"""Label-qubit spectrum synthesis from final states and J-couplings.

First-order (weak-coupling) multiplet model: observing one spin of the
molecule, each basis configuration of its coupling partners contributes
one resonance at offset + sum_j (J_j / 2) * (+1 if partner j is |1>,
else -1), with intensity proportional to that configuration's squared
amplitude in the final state, scaled by an overall damping factor.
Intensities are normalized to a pseudopure reference: a basis state of
unit population gives peak intensity 1.0 at damping 1.0.

Only two couplings of the observed spin are documented measurement
values (J to H1 = 155.42 Hz, J to H2 = 0.66 Hz); the remaining entries
of the default table are placeholders, flagged as such, chosen distinct
and free of subset-sum collisions so that all 64 thermal peaks resolve.
Supply a measured table via a spin-system config file to reproduce
absolute peak positions.

Each synthesized peak also records the complex conditional amplitude it
came from.  That is simulation-side information (a physical intensity
readout has no phase); the phase extraction needs it to recover the
coefficient signs, and refuses a report without it.  ``READOUT`` is the
one table of peak labels and readout states per pipeline role.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dense import StateVector
from .pauli import DENSE_LIMIT
from .report import csv_text

INTENSITY_THRESHOLD = 1e-9
LINESHAPE_LIMIT = 10 ** 6    # sampled points; each costs ~70 bytes of arrays and CSV
# Accepted t2_s in seconds.  The Lorentzian half-width 1/(2 pi t2) then lies
# within about 1e+-100 Hz, so it, its square and the squared offsets of a
# lineshape grid ten linewidths wide stay finite and nonzero in doubles.
T2_RANGE_S = (1e-100, 1e100)

MEASURED_J_H1_HZ = 155.42
MEASURED_J_H2_HZ = 0.66


@dataclass(frozen=True)
class Readout:
    """One pipeline role's labeled peaks, as (label, readout state) pairs.

    ``contamination[k]`` is read against ``dominant[k]``; ``orientation`` is
    the ratio's sign when Re(sum c * conj(d)) >= 0 (-1: -sin-like contamination).
    """

    dominant: tuple[tuple[str, str], tuple[str, str]]
    contamination: tuple[tuple[str, str], tuple[str, str]]
    orientation: int


# anyon.MEASUREMENT sends ground/excited to phase +1 sums of the control
# run's dominant/contamination pair; the braided run swaps the two roles.
READOUT = {
    "unbraided": Readout(dominant=(("i", "110111"), ("j", "000000")),
                         contamination=(("p", "111111"), ("q", "001000")),
                         orientation=1),
    "braided": Readout(dominant=(("s", "111111"), ("t", "001000")),
                       contamination=(("u", "110111"), ("v", "000000")),
                       orientation=-1),
}


@dataclass(frozen=True)
class SpinSystem:
    """Observed spin plus its coupling partners, in state-bit order.

    A state has at most DENSE_LIMIT bits, one per partner, so a system has
    1..DENSE_LIMIT partners.
    """

    observed: str
    partners: tuple[str, ...]
    j_hz: dict[str, float]
    offset_hz: float = 0.0
    t2_s: float | None = None
    placeholder: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.partners)) != len(self.partners):
            raise ValueError("partner names must be unique")
        missing = [p for p in self.partners if p not in self.j_hz]
        if missing:
            raise ValueError(f"no J value for partner(s) {missing}")
        for p, j in self.j_hz.items():
            if not math.isfinite(j):
                raise ValueError(f"J[{p}] is not finite: {j}")
        if not math.isfinite(self.offset_hz):
            raise ValueError(f"offset_hz is not finite: {self.offset_hz}")
        lo, hi = T2_RANGE_S
        if self.t2_s is not None and not lo <= self.t2_s <= hi:
            raise ValueError(f"t2_s must be in [{lo:g}, {hi:g}] s, got {self.t2_s}")
        if not 1 <= len(self.partners) <= DENSE_LIMIT:
            raise ValueError(f"a spin system needs 1..{DENSE_LIMIT} partners, "
                             f"got {len(self.partners)}")

    @property
    def linewidth_hz(self) -> float | None:
        """Lorentzian FWHM 1/(pi*t2), when a t2 is configured."""
        return None if self.t2_s is None else 1.0 / (math.pi * self.t2_s)

    def as_dict(self) -> dict:
        return {"observed": self.observed, "partners": list(self.partners),
                "j_hz": dict(self.j_hz), "offset_hz": self.offset_hz,
                "t2_s": self.t2_s, "placeholder": sorted(self.placeholder)}


def default_spin_system() -> SpinSystem:
    """Seven-spin system observed on C2; see module notes on placeholders."""
    return SpinSystem(
        observed="C2",
        partners=("C1", "M", "H1", "C4", "H2", "C3"),
        j_hz={"C1": 40.0, "M": 2.0, "H1": MEASURED_J_H1_HZ,
              "C4": 64.0, "H2": MEASURED_J_H2_HZ, "C3": 28.0},
        offset_hz=0.0,
        placeholder=frozenset({"C1", "M", "C4", "C3"}),
    )


def load_spin_system(path: str) -> SpinSystem:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"spin config {path} is not a JSON object")
    missing = [key for key in ("observed", "partners", "j_hz") if key not in raw]
    if missing:
        raise ValueError(f"spin config {path} is missing {', '.join(missing)}")
    for key, kind in (("observed", str), ("partners", list), ("j_hz", dict),
                      ("placeholder", list)):
        value = raw.get(key, [])
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(v, str) for v in value)):
            what = {str: "a string", list: "a list of strings", dict: "a JSON object"}
            raise ValueError(f"spin config {path}: {key} must be {what[kind]}, "
                             f"got {value!r}")

    def number(key, value) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"spin config {path}: {key} must be a number, "
                             f"got {value!r}") from None

    return SpinSystem(
        observed=raw["observed"],
        partners=tuple(raw["partners"]),
        j_hz={k: number(f"j_hz[{k}]", v) for k, v in raw["j_hz"].items()},
        offset_hz=number("offset_hz", raw.get("offset_hz", 0.0)),
        t2_s=None if raw.get("t2_s") is None else number("t2_s", raw["t2_s"]),
        placeholder=frozenset(raw.get("placeholder", ())),
    )


def peak_frequency(sys_: SpinSystem, partner_state: str) -> float:
    """Resonance offset for one partner configuration.

    A partner in |1> shifts the observed line by +J/2, in |0> by -J/2.
    """
    if len(partner_state) != len(sys_.partners):
        raise ValueError(
            f"state has {len(partner_state)} bits, system has {len(sys_.partners)} partners")
    freq = sys_.offset_hz
    for bit, partner in zip(partner_state, sys_.partners):
        freq += 0.5 * sys_.j_hz[partner] * (1.0 if bit == "1" else -1.0)
    return freq


@dataclass(frozen=True)
class Peak:
    frequency_hz: float
    intensity: float
    state: str
    linewidth_hz: float | None = None
    amplitude: complex | None = None
    label: str | None = None

    def as_dict(self) -> dict:
        out = {"frequency_hz": self.frequency_hz, "intensity": self.intensity,
               "state": self.state, "linewidth_hz": self.linewidth_hz,
               "label": self.label}
        if self.amplitude is not None:
            out["amplitude_re"] = self.amplitude.real
            out["amplitude_im"] = self.amplitude.imag
        return out


@dataclass(frozen=True)
class SpectrumReport:
    peaks: tuple[Peak, ...]
    metadata: dict = field(default_factory=dict)

    def total_intensity(self) -> float:
        return sum(p.intensity for p in self.peaks)

    def peak_for_state(self, state: str) -> Peak | None:
        for p in self.peaks:
            if p.state == state:
                return p
        return None

    def labeled_peak(self, label: str) -> Peak:
        for p in self.peaks:
            if p.label == label:
                return p
        raise ValueError(f"missing expected peak {label!r}")

    def as_dict(self) -> dict:
        meta = {k: (v.as_dict() if isinstance(v, SpinSystem) else v)
                for k, v in self.metadata.items()}
        return {"metadata": meta, "peaks": [p.as_dict() for p in self.peaks]}


def synthesize(sys_: SpinSystem, state: StateVector, damping: float = 1.0,
               threshold: float = INTENSITY_THRESHOLD) -> SpectrumReport:
    """Spectrum of the observed spin conditioned on the partner state.

    One peak per partner configuration whose squared amplitude clears
    the reporting threshold; intensity = damping * |amplitude|^2.  The
    threshold drops populations below ~1e-9, which floors how small a
    contamination ratio downstream analysis can see; pass threshold=0
    to keep every numerically nonzero configuration.
    """
    m = len(sys_.partners)
    if state.n != m:
        raise ValueError(f"state has {state.n} qubits, system has {m} partners")
    if not 0 <= damping <= 1:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    width = sys_.linewidth_hz
    root = math.sqrt(damping)
    peaks = []
    for index, amp in enumerate(state.amps):
        weight = abs(amp) ** 2
        if weight <= threshold:
            continue
        bits = format(index, f"0{m}b")
        peaks.append(Peak(frequency_hz=peak_frequency(sys_, bits),
                          intensity=damping * weight, state=bits,
                          linewidth_hz=width, amplitude=root * complex(amp)))
    peaks.sort(key=lambda p: (p.frequency_hz, p.state))
    meta = {"observed": sys_.observed, "damping": damping,
            "reference": "unit-population basis peak = 1.0",
            "offset_hz": sys_.offset_hz, "t2_s": sys_.t2_s,
            "spin_system": sys_}
    return SpectrumReport(tuple(peaks), meta)


def synthesize_thermal(sys_: SpinSystem) -> SpectrumReport:
    """Equal-weight spectrum over every partner configuration."""
    m = len(sys_.partners)
    width = sys_.linewidth_hz
    weight = 1.0 / 2 ** m
    peaks = [Peak(frequency_hz=peak_frequency(sys_, format(i, f"0{m}b")),
                  intensity=weight, state=format(i, f"0{m}b"), linewidth_hz=width)
             for i in range(2 ** m)]
    peaks.sort(key=lambda p: (p.frequency_hz, p.state))
    meta = {"observed": sys_.observed, "thermal": True,
            "reference": "total population = 1.0",
            "offset_hz": sys_.offset_hz, "t2_s": sys_.t2_s,
            "spin_system": sys_}
    return SpectrumReport(tuple(peaks), meta)


def assign_peak_labels(report: SpectrumReport, role: str) -> SpectrumReport:
    """Attach the ``READOUT`` peak names of one pipeline role.

    Dominant peaks must exist; absent contamination peaks are filled in at
    zero intensity and zero amplitude, at the frequency the report's spin
    system gives, so ratio formulas stay total.
    """
    if role not in READOUT:
        raise ValueError(f"role must be one of {sorted(READOUT)}, got {role!r}")
    readout = READOUT[role]
    label_of = {state: label for label, state in readout.dominant + readout.contamination}
    peaks = [replace(p, label=label_of[p.state]) if p.state in label_of else p
             for p in report.peaks]
    present = {p.state for p in report.peaks}
    for label, state in readout.dominant:
        if state not in present:
            raise ValueError(f"missing expected peak {label!r} (state {state})")
    sys_ = report.metadata["spin_system"]
    peaks += [Peak(frequency_hz=peak_frequency(sys_, state), intensity=0.0, state=state,
                   linewidth_hz=sys_.linewidth_hz, amplitude=0j, label=label)
              for label, state in readout.contamination if state not in present]
    peaks.sort(key=lambda p: (p.frequency_hz, p.state))
    return SpectrumReport(tuple(peaks), {**report.metadata, "role": role})


def sample_lineshape(report: SpectrumReport, points: int = 4001
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Absorption-mode Lorentzian sum on a frequency grid.

    Each peak contributes intensity * (hwhm^2 / ((f - f0)^2 + hwhm^2)),
    so the sampled height at center equals the peak intensity and the
    full width at half maximum equals the configured linewidth.
    """
    if not 1 <= points <= LINESHAPE_LIMIT:
        raise ValueError(
            f"lineshape points must be in [1, {LINESHAPE_LIMIT}], got {points}")
    widths = [p.linewidth_hz for p in report.peaks]
    if not widths or any(w is None for w in widths):
        raise ValueError("lineshape sampling needs a linewidth (set t2 on the spin system)")
    f_min = min(p.frequency_hz for p in report.peaks) - 10 * max(widths)
    f_max = max(p.frequency_hz for p in report.peaks) + 10 * max(widths)
    freqs = np.linspace(f_min, f_max, points)
    values = np.zeros_like(freqs)
    for p in report.peaks:
        hwhm = p.linewidth_hz / 2.0
        values += p.intensity * hwhm ** 2 / ((freqs - p.frequency_hz) ** 2 + hwhm ** 2)
    return freqs, values


def spectrum_to_csv(report: SpectrumReport) -> str:
    return csv_text(["freq_hz", "intensity", "state", "linewidth_hz", "label"],
                    ([p.frequency_hz, p.intensity, p.state, p.linewidth_hz, p.label]
                     for p in report.peaks))


def lineshape_to_csv(freqs: np.ndarray, values: np.ndarray) -> str:
    return csv_text(["freq_hz", "absorption"], zip(freqs, values))
