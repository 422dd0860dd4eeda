"""Command-line front end: reproducible runs with machine-readable outputs.

Subcommands: ground, braid-demo, toric, spectrum, sweep.  Reports are
deterministic JSON/CSV (see report module).  Each ``cmd_*`` returns the
paths it wrote, report first; ``main`` then writes the one sidecar
``*.manifest.json`` (argv, every parsed option, seed, versions,
timestamp, and ``wall_s``, the command's wall time in seconds) and
prints the one ``wrote`` line.  Relative output paths resolve against
$ANYONLAB_OUT_DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import anyon, report, spectrum
from .dense import dump_amplitudes, state_from_dump
from .lattice import (build_planar6, build_toric, describe_model, error_syndrome,
                      syndrome)
from .pauli import DENSE_LIMIT, PauliString
from .tableau import Tableau, init_toric_ground, run as tableau_run, syndrome_sweep


GRID_LIMIT = 10 ** 6    # points per grid and rows per sweep; acceptance grid: 31 x 4
ERROR_LIMIT = 10 ** 5   # errors per toric spec; the report at the cap is about 9 MB


def _parse_model(text: str):
    if text == "planar6":
        return build_planar6()
    kind, _, size = text.partition(":")
    if kind == "torus" and size.isascii() and size.isdigit():
        return build_toric(int(size))
    raise ValueError(f"unknown model {text!r}; use planar6 or torus:K")


def _parse_grid(text: str) -> list[float]:
    """Comma list ("0,0.1") or inclusive range ("start:stop:step")."""
    if ":" in text:
        start, stop, step = (float(tok) for tok in text.split(":"))
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid bounds must be finite: {text!r}")
        if step <= 0:
            raise ValueError(f"grid step must be positive: {text!r}")
        span = (stop - start) / step + 1e-9
        if span >= GRID_LIMIT:    # also an infinite span, before any list is built
            raise ValueError(f"grid {text!r} has more than the cap of {GRID_LIMIT} points")
        count = math.floor(span)
        if count < 0:
            raise ValueError(f"empty grid: {text!r}")
        return [start + i * step for i in range(count + 1)]
    grid = [float(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise ValueError(f"empty grid: {text!r}")
    return grid


def _syndrome_rows(pairs):
    """Report rows of (generator, value) pairs; only a +/-1 value is an eigenstate."""
    return [{"generator": gid, "value": value, "eigenstate": abs(value) == 1}
            for gid, value in pairs]


def _spin_system(path: str | None, t2: float | None) -> spectrum.SpinSystem:
    """The spin system in ``path`` (the default table when None); ``t2``, when
    given, replaces its t2_s."""
    sys_ = spectrum.load_spin_system(path) if path else spectrum.default_spin_system()
    return sys_ if t2 is None else dataclasses.replace(sys_, t2_s=t2)


# -- ground ------------------------------------------------------------------


def cmd_ground(args) -> list[Path]:
    model = _parse_model(args.model)
    out: dict = {"model": args.model, "backend": args.backend,
                 "n_qubits": model.n_qubits,
                 "generators": [str(g) for g in model.generators],
                 "generator_ids": list(model.generator_ids)}
    if args.backend == "dense":
        if model.n_qubits > DENSE_LIMIT:
            raise ValueError(
                f"dense backend refuses {model.n_qubits} qubits "
                f"(limit {DENSE_LIMIT}); use --backend tableau")
        if model.geometry == "planar6":
            state = anyon.planar6_ground_state()
        else:
            state = init_toric_ground(model, tuple(args.logical),
                                      seed=args.seed).to_statevector()
        out["amplitudes"] = dump_amplitudes(state)
        out["syndrome"] = _syndrome_rows(syndrome(model, state))
    else:
        if model.geometry == "planar6":
            t = tableau_run(anyon.PREPARATION, Tableau(6))
        else:
            t = init_toric_ground(model, tuple(args.logical), seed=args.seed)
        out["tableau_rows"] = [str(p) for p in t.stabilizer_paulis()]
        out["syndrome"] = _syndrome_rows(syndrome_sweep(t, model))
    if args.describe:
        out["description"] = describe_model(model)
    return [report.write_report(args.out, out)]


# -- braid-demo ----------------------------------------------------------------


def _stage_dump(run_):
    return {name: dump_amplitudes(state) for name, state in run_.states.items()}


def cmd_braid_demo(args) -> list[Path]:
    config = anyon.ExperimentConfig(
        with_braiding=not args.no_braid, eta_inject=args.eta,
        admix_beta=args.admix, gamma_leak=args.gamma, damping=args.damping)
    sys_ = _spin_system(args.spin_config, args.t2)
    model = build_planar6()
    result = anyon.run_experiment(config, sys_, seed=args.seed)

    out: dict = {"config": {**config.as_dict(), "seed": args.seed},
                 "spin_system": sys_.as_dict()}
    unb = result["unbraided"]
    out["unbraided"] = {
        "states": _stage_dump(unb["run"]),
        "syndrome_initial": _syndrome_rows(syndrome(model, unb["run"].states["psi_f"])),
        "spectrum": unb["spectrum"].as_dict(),
    }
    if "braided" in result:
        br = result["braided"]
        out["braided"] = {
            "states": _stage_dump(br["run"]),
            "syndrome_after_creation": _syndrome_rows(
                syndrome(model, br["run"].states["psi_b"])),
            "spectrum": br["spectrum"].as_dict(),
        }
        out["phase"] = result["phase"].as_dict()
    if config.eta_inject == 0 and config.admix_beta == 0 and config.gamma_leak == 0:
        out["ideal_fidelities"] = anyon.ideal_fidelities()

    path = report.write_report(args.out, out)
    if "phase" in out:
        p = result["phase"]
        print(f"eta = {p.eta:.6f}  delta = {p.delta / math.pi:.6f} pi "
              f"ratios = ({p.beta_over_alpha:.4f}, {p.alphap_over_betap:.4f})")
    return [path]


# -- toric ---------------------------------------------------------------------


def _parse_errors(text: str, model, rng) -> list[tuple[str, tuple]]:
    """Error spec: comma-separated "x:h:R:C", "z:v:R:C", "rand-x:N",
    "rand-z:N", or "rand:N" tokens, at most ERROR_LIMIT errors in all.
    Every token is checked before the first random draw."""
    specs = []    # (kind, bond) or (rand kind, draw count), in token order
    total = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, *fields = token.split(":")
        # a draw count or the two bond coordinates: non-negative decimals
        if not all(f.isascii() and f.isdigit() for f in fields[-2:]):
            raise ValueError(f"bad error token {token!r}")
        if kind in ("rand-x", "rand-z", "rand") and len(fields) == 1:
            specs.append((kind, int(fields[0])))
            total += int(fields[0])
        elif kind in ("x", "z") and len(fields) == 3:
            bond = (fields[0], int(fields[1]), int(fields[2]))
            if bond not in model.qubit_layout:
                raise ValueError(f"unknown bond {bond} in error spec {token!r}")
            specs.append((kind, bond))
            total += 1
        else:
            raise ValueError(f"bad error token {token!r}")
        if total > ERROR_LIMIT:
            raise ValueError(f"error spec passes the cap of {ERROR_LIMIT} errors "
                             f"at token {token!r}")

    errors = []
    bonds = sorted(model.qubit_layout)
    for kind, spec in specs:
        if kind in ("x", "z"):
            errors.append((kind, spec))
            continue
        for _ in range(spec):
            drawn = kind.removeprefix("rand-") if kind != "rand" \
                else ("x" if rng.integers(0, 2) == 0 else "z")
            errors.append((drawn, bonds[rng.integers(0, len(bonds))]))
    return errors


def cmd_toric(args) -> list[Path]:
    model = build_toric(args.k)
    errors = _parse_errors(args.errors, model, np.random.default_rng(args.seed))

    # the errors fold into one Pauli frame: a bond hit twice cancels
    x_mask = z_mask = 0
    for kind, bond in errors:
        bit = 1 << (model.qubit_layout[bond] - 1)
        if kind == "x":
            x_mask ^= bit
        else:
            z_mask ^= bit
    sweep = error_syndrome(model, PauliString(model.n_qubits, x_mask, z_mask))

    n_vertex = len(model.vertex_ops)
    vertex_defects = sum(1 for _, v in sweep[:n_vertex] if v == -1)
    face_defects = sum(1 for _, v in sweep[n_vertex:] if v == -1)
    out = {"k": args.k, "n_qubits": model.n_qubits,
           "logical": list(args.logical),
           "errors": [{"kind": kind, "bond": list(bond)} for kind, bond in errors],
           "syndromes": [{"generator": gid, "value": val} for gid, val in sweep],
           "defect_counts": {"vertex": vertex_defects, "face": face_defects}}
    return [report.write_report(args.out, out)]


# -- spectrum --------------------------------------------------------------------


def cmd_spectrum(args) -> list[Path]:
    sys_ = _spin_system(args.spin_config, args.t2)
    if args.thermal:
        rep = spectrum.synthesize_thermal(sys_)
    else:
        if not args.state:
            raise ValueError("spectrum needs --state FILE or --thermal")
        with open(args.state, encoding="utf-8") as fh:
            rows = json.load(fh)
        rep = spectrum.synthesize(sys_, state_from_dump(rows))
    if args.label:
        rep = spectrum.assign_peak_labels(rep, args.label)
    # sampled before anything is written, so a refused size leaves no report
    lineshape = spectrum.sample_lineshape(rep, args.lineshape) if args.lineshape else None

    json_path = report.write_report(args.out + ".json", rep.as_dict())
    csv_path = report.write_text(args.out + ".csv", spectrum.spectrum_to_csv(rep))
    outputs = [json_path, csv_path]
    if lineshape is not None:
        outputs.append(report.write_text(args.out + ".lineshape.csv",
                                         spectrum.lineshape_to_csv(*lineshape)))
    return outputs


# -- sweep -----------------------------------------------------------------------


def cmd_sweep(args) -> list[Path]:
    etas = _parse_grid(args.eta_grid)
    admixes = _parse_grid(args.admix_grid)
    if len(etas) * len(admixes) > GRID_LIMIT:
        raise ValueError(f"sweep of {len(etas)} eta x {len(admixes)} admix points "
                         f"passes the cap of {GRID_LIMIT} rows")
    sys_ = _spin_system(args.spin_config, None)

    def rows():
        for eta in etas:
            for r in admixes:
                config = anyon.ExperimentConfig(
                    eta_inject=eta, admix_beta=r, gamma_leak=args.gamma)
                ph = anyon.run_experiment(config, sys_, seed=args.seed)["phase"]
                yield [eta, r, ph.eta, ph.delta, ph.delta / math.pi]

    text = report.csv_text(
        ["eta_injected", "admix", "eta_recovered", "delta", "delta_over_pi"], rows())
    return [report.write_text(args.out, text)]


# -- parser ------------------------------------------------------------------------


def _logical_bits(text: str) -> tuple[int, int]:
    if len(text) != 2 or any(ch not in "01" for ch in text):
        raise argparse.ArgumentTypeError(f"logical choice must be two bits, got {text!r}")
    return (int(text[0]), int(text[1]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonlab",
        description="Kitaev lattice models, abelian anyon braiding, NMR-style readout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="prepare and dump a model ground state")
    p.add_argument("--model", default="planar6", help="planar6 or torus:K")
    p.add_argument("--backend", choices=("dense", "tableau"), default="dense")
    p.add_argument("--logical", type=_logical_bits, default=(0, 0),
                   help="two bits choosing the toric Z-loop sector")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted but changes no report: every vertex outcome is forced")
    p.add_argument("--describe", action="store_true")
    p.add_argument("--out", default="ground.json")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("braid-demo", help="run the braided/unbraided comparison")
    p.add_argument("--no-braid", action="store_true")
    p.add_argument("--eta", type=float, default=0.0, help="injected braiding phase error")
    p.add_argument("--admix", type=float, default=0.0, help="|beta/alpha| contamination")
    p.add_argument("--gamma", type=float, default=0.0, help="orthogonal error weight")
    p.add_argument("--damping", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t2", type=float, default=None, help="T2 in seconds (linewidth)")
    p.add_argument("--spin-config", default=None)
    p.add_argument("--out", default="braid_demo.json")
    p.set_defaults(func=cmd_braid_demo)

    p = sub.add_parser("toric", help="syndromes of error strings on a k x k torus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--errors", default="", help='e.g. "x:h:0:0,z:v:1:2,rand-x:5"')
    p.add_argument("--logical", type=_logical_bits, default=(0, 0))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="syndromes.json")
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("spectrum", help="synthesize a label-qubit spectrum")
    p.add_argument("--spin-config", default=None)
    p.add_argument("--state", default=None, help="state dump JSON ([bits, re, im] rows)")
    p.add_argument("--thermal", action="store_true")
    p.add_argument("--t2", type=float, default=None)
    p.add_argument("--label", choices=sorted(spectrum.READOUT), default=None)
    p.add_argument("--lineshape", type=int, default=0,
                   help="also emit a sampled lineshape CSV with this many points")
    p.add_argument("--out", default="spectrum", help="output base path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="eta-recovery sweep over parameter grids")
    p.add_argument("--eta-grid", default="0", help='"start:stop:step" or comma list')
    p.add_argument("--admix-grid", default="0")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spin-config", default=None)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    try:
        start = time.perf_counter()
        outputs = args.func(args)
        wall_s = time.perf_counter() - start
        report.write_manifest(outputs, args.command, argv, config, wall_s)
    except (ValueError, OSError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1
    print(f"wrote {', '.join(str(p) for p in outputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
