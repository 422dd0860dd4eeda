"""Expected outputs computed without the code being timed.

Nothing here imports anyonlab.  The toric oracle works from bond
geometry alone: bond ("h", r, c) joins vertices (r, c)-(r, c+1) and bond
("v", r, c) joins (r, c)-(r+1, c), coordinates mod k.  A Z on a bond
flips the vertex operators at its two ends; an X flips the two face
operators beside it.  Every ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

ETA_TOL = 1e-9
AMP_TOL = 1e-12

PLANAR6_GROUND = {"000000", "111000", "110111", "001111"}
BRAIDED_LABELS = {"s": "111111", "t": "001000", "u": "110111", "v": "000000"}


# -- toric geometry ----------------------------------------------------------


def bond_qubit(k: int, bond: tuple[str, int, int]) -> int:
    """1-based qubit of a bond: each cell owns its h bond, then its v bond."""
    kind, r, c = bond
    return 2 * (r * k + c) + (1 if kind == "h" else 2)


def toric_ids(k: int) -> list[str]:
    cells = [(r, c) for r in range(k) for c in range(k)]
    return [f"A({r},{c})" for r, c in cells] + [f"B({r},{c})" for r, c in cells]


def toric_generator_strings(k: int) -> list[str]:
    """Text form of every generator: X on a vertex's four bonds, Z around a face."""
    def text(letter, bonds):
        return "+" + " ".join(f"{letter}{q}" for q in sorted(bond_qubit(k, b) for b in bonds))

    cells = [(r, c) for r in range(k) for c in range(k)]
    vertices = [text("X", [("h", r, c), ("h", r, (c - 1) % k),
                           ("v", r, c), ("v", (r - 1) % k, c)]) for r, c in cells]
    faces = [text("Z", [("h", r, c), ("h", (r + 1) % k, c),
                        ("v", r, c), ("v", r, (c + 1) % k)]) for r, c in cells]
    return vertices + faces


def toric_syndrome(k: int, errors) -> list[int]:
    """+1/-1 per generator (vertices, then faces) after the listed (kind, bond) errors."""
    flips = [0] * (2 * k * k)
    for kind, (direction, r, c) in errors:
        if kind == "z":
            other = (r, (c + 1) % k) if direction == "h" else ((r + 1) % k, c)
            for vr, vc in ((r, c), other):
                flips[vr * k + vc] ^= 1
        else:
            other = ((r - 1) % k, c) if direction == "h" else (r, (c - 1) % k)
            for fr, fc in ((r, c), other):
                flips[k * k + fr * k + fc] ^= 1
    return [-1 if f else 1 for f in flips]


def _defects(k: int, values) -> tuple[int, int]:
    nv = k * k
    return (sum(1 for v in values[:nv] if v == -1),
            sum(1 for v in values[nv:] if v == -1))


def check_sweep(k: int, errors, sweep) -> list[str]:
    """A syndrome sweep [(generator id, value), ...] against the oracle."""
    problems = []
    expected = toric_syndrome(k, errors)
    ids = toric_ids(k)
    if [gid for gid, _ in sweep] != ids:
        problems.append("generator order differs from vertex-then-face scan order")
    values = [v for _, v in sweep]
    if values != expected:
        bad = [ids[i] for i, (a, b) in enumerate(zip(values, expected)) if a != b]
        problems.append(f"{len(bad)} syndrome value(s) differ, first {bad[:3]}")
    vertex, face = _defects(k, values)
    if vertex % 2 or face % 2:
        problems.append(f"odd defect count: vertex {vertex}, face {face}")
    return problems


def check_toric_report(report: dict, k: int, errors) -> list[str]:
    """A ``toric`` report: echoed inputs, every syndrome and the defect counts."""
    problems = []
    if report.get("k") != k or report.get("n_qubits") != 2 * k * k:
        problems.append("k / n_qubits not echoed")
    echoed = [(e["kind"], tuple(e["bond"])) for e in report.get("errors", [])]
    if echoed != [(kind, tuple(bond)) for kind, bond in errors]:
        problems.append("error list not echoed")
    sweep = [(row["generator"], row["value"]) for row in report.get("syndromes", [])]
    problems += check_sweep(k, errors, sweep)
    vertex, face = _defects(k, toric_syndrome(k, errors))
    if report.get("defect_counts") != {"vertex": vertex, "face": face}:
        problems.append(f"defect_counts {report.get('defect_counts')} != "
                        f"{{'vertex': {vertex}, 'face': {face}}}")
    return problems


def check_toric_ground(report: dict, k: int) -> list[str]:
    """A ``ground --model torus:K --backend tableau`` report."""
    problems = []
    n = 2 * k * k
    if report.get("n_qubits") != n:
        problems.append("n_qubits wrong")
    if report.get("generators") != toric_generator_strings(k):
        problems.append("generator strings differ from the lattice geometry")
    if report.get("generator_ids") != toric_ids(k):
        problems.append("generator ids differ")
    if len(report.get("tableau_rows", [])) != n:
        problems.append(f"expected {n} tableau rows")
    syn = report.get("syndrome", [])
    if [row["generator"] for row in syn] != toric_ids(k) or \
            any(row["value"] != 1 or row["eigenstate"] is not True for row in syn):
        problems.append("ground syndrome is not all +1")
    return problems


# -- braiding ------------------------------------------------------------------


def expected_delta(eta: float) -> float:
    return (math.pi / 2 + eta) * 2


def check_planar6_ground(report: dict) -> list[str]:
    """Four amplitudes of exactly 0.5 and every generator at +1."""
    problems = []
    amps = {bits: (re, im) for bits, re, im in report.get("amplitudes", [])}
    if set(amps) != PLANAR6_GROUND:
        problems.append(f"ground support {sorted(amps)}")
    elif any(abs(re - 0.5) > AMP_TOL or abs(im) > AMP_TOL for re, im in amps.values()):
        problems.append("ground amplitudes are not 0.5")
    syn = report.get("syndrome", [])
    if len(syn) != 6 or any(row["value"] != 1 for row in syn):
        problems.append("ground syndrome is not all +1")
    return problems


def check_braid_demo(report: dict, eta: float, admix: float) -> list[str]:
    """The recovered phase matches the injected one and delta = (pi/2 + eta) * 2."""
    phase = report.get("phase")
    if phase is None:
        return ["braid-demo report has no phase"]
    problems = []
    if abs(phase["eta"] - eta) > ETA_TOL:
        problems.append(f"eta {phase['eta']!r} != injected {eta!r}")
    if abs(phase["delta"] - expected_delta(eta)) > ETA_TOL:
        problems.append(f"delta {phase['delta']!r} != (pi/2 + eta) * 2")
    if abs(phase["beta_over_alpha"] - admix) > ETA_TOL:
        problems.append(f"beta/alpha {phase['beta_over_alpha']!r} != admix {admix!r}")
    if "psi_e" not in report.get("braided", {}).get("states", {}):
        problems.append("braided psi_e missing")
    return problems


def check_spectrum(report: dict, spectrum_csv: str, lineshape_csv: str,
                   points: int) -> list[str]:
    """Labelled braided peaks s/t (and u/v), unit total population, full CSVs."""
    problems = []
    peaks = report.get("peaks", [])
    labels = {p["label"]: p["state"] for p in peaks if p.get("label")}
    for label in ("s", "t"):
        if labels.get(label) != BRAIDED_LABELS[label]:
            problems.append(f"peak {label!r} missing or on the wrong state")
    if any(labels.get(lbl, BRAIDED_LABELS[lbl]) != st for lbl, st in BRAIDED_LABELS.items()):
        problems.append("contamination labels u/v on the wrong states")
    total = sum(p["intensity"] for p in peaks)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"total intensity {total!r} != 1")
    if len(spectrum_csv.splitlines()) != len(peaks) + 1:
        problems.append("spectrum CSV row count differs from the peak list")
    if len(lineshape_csv.splitlines()) != points + 1:
        problems.append(f"lineshape CSV does not have {points} rows")
    return problems


def check_sweep_csv(text: str, etas, admixes) -> tuple[int, list[str]]:
    """Rows in eta-major order; returns (failed rows, problems)."""
    expected = [(e, a) for e in etas for a in admixes]
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    failed = max(0, len(expected) - len(rows))
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} sweep rows, expected {len(expected)}")
    for row, (eta, admix) in zip(rows, expected):
        try:
            ok = (abs(float(row["eta_injected"]) - eta) <= AMP_TOL
                  and abs(float(row["admix"]) - admix) <= AMP_TOL
                  and abs(float(row["eta_recovered"]) - eta) <= ETA_TOL
                  and abs(float(row["delta"]) - expected_delta(eta)) <= ETA_TOL)
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            failed += 1
            if len(problems) < 3:
                problems.append(f"sweep row eta={eta} admix={admix}: {row}")
    return failed, problems
