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
one table of peak labels and readout states per pipeline role, and
``readout_peaks`` reads a role's labeled peaks straight from a state's
readout amplitudes, by the same peak rule as ``synthesize``.  ``_report``
builds every spectrum, labeled ones too, and ``check_damping`` is the one
check of the damping, for the peak rule and for ``anyon.ExperimentConfig``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .dense import DENSE_LIMIT, StateVector
from .report import csv_text, read_json

INTENSITY_THRESHOLD = 1e-9
# Smallest damping (about 2.2e-299).  A kept peak's intensity is damping times
# a weight above INTENSITY_THRESHOLD, so from here up it is a normal double;
# below it a subnormal intensity loses bits and eta comes back wrong.
DAMPING_FLOOR = sys.float_info.min / INTENSITY_THRESHOLD
LINESHAPE_LIMIT = 10 ** 6    # sampled points; each costs ~70 bytes of arrays and CSV
# Accepted t2_s in seconds.  The Lorentzian half-width 1/(2 pi t2) then lies
# within about 1e+-100 Hz, so it, its square and the squared offsets of a
# lineshape grid ten linewidths wide stay finite and nonzero in doubles.
T2_RANGE_S = (1e-100, 1e100)
# Largest accepted |J| in Hz.  Over at most 12 partners a peak sits within
# 6e150 Hz of the offset, so offset + sum J/2 stays finite, and the squared
# offsets (f - f0)^2 of a lineshape grid ten linewidths (at most 3.2e100 Hz
# each) past the outermost peaks stay below 1.5e302, short of overflow.
J_LIMIT_HZ = 1e150
# Largest accepted |offset_hz| in Hz.  Doubles near 1e12 are 1.2e-4 Hz apart,
# so the smallest measured coupling (0.66 Hz) stays thousands of steps wide;
# near 1e300 they are ~1e284 Hz apart and every peak rounds onto the offset.
OFFSET_LIMIT_HZ = 1e12

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
    1..DENSE_LIMIT partners.  ``j_hz`` and ``placeholder`` name partners
    only, so a misspelt name is refused rather than silently unused.
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
            if not abs(j) <= J_LIMIT_HZ:      # also NaN
                raise ValueError(f"j_hz[{p}] must be finite with |J| <= {J_LIMIT_HZ:g} Hz, "
                                 f"got {j}")
        if not abs(self.offset_hz) <= OFFSET_LIMIT_HZ:      # also NaN
            raise ValueError(f"offset_hz must be finite with |offset| <= "
                             f"{OFFSET_LIMIT_HZ:g} Hz, got {self.offset_hz}")
        lo, hi = T2_RANGE_S
        if self.t2_s is not None and not lo <= self.t2_s <= hi:
            raise ValueError(f"t2_s must be in [{lo:g}, {hi:g}] s, got {self.t2_s}")
        if not 1 <= len(self.partners) <= DENSE_LIMIT:
            raise ValueError(f"a spin system needs 1..{DENSE_LIMIT} partners, "
                             f"got {len(self.partners)}")
        for field, names in (("j_hz", self.j_hz), ("placeholder", self.placeholder)):
            stray = sorted(set(names) - set(self.partners))
            if stray:
                raise ValueError(f"{field} names non-partner(s) {stray}")

    @property
    def linewidth_hz(self) -> float | None:
        """Lorentzian FWHM 1/(pi*t2), when a t2 is configured."""
        return None if self.t2_s is None else 1.0 / (math.pi * self.t2_s)

    @cached_property
    def peak_frequencies(self) -> tuple[float, ...]:
        """Resonance offset of each partner configuration by basis index, built
        on first use; not a field, so ``==``, ``replace`` and ``as_dict`` never
        see it.

        A partner in |1> shifts the observed line by +J/2, in |0> by -J/2.
        Each partner appends the next lower index bit, adding its shift in
        partner order.
        """
        table = [self.offset_hz]
        for partner in self.partners:
            j = self.j_hz[partner]
            low, high = 0.5 * j * -1.0, 0.5 * j * 1.0
            table = [f + shift for f in table for shift in (low, high)]
        return tuple(table)

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
    raw = read_json(path, "--spin-config")
    if not isinstance(raw, dict):
        raise ValueError(f"--spin-config {path} is not a JSON object")
    missing = [key for key in ("observed", "partners", "j_hz") if key not in raw]
    if missing:
        raise ValueError(f"--spin-config {path} is missing {', '.join(missing)}")
    # the fields, the keys ``as_dict`` writes: a misspelt key is refused, not read as its default
    unknown = sorted(raw.keys() - {f.name for f in fields(SpinSystem)})
    if unknown:
        raise ValueError(f"--spin-config {path} has unknown key(s) {unknown}")
    for key, kind in (("observed", str), ("partners", list), ("j_hz", dict),
                      ("placeholder", list)):
        value = raw.get(key, [])
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(v, str) for v in value)):
            what = {str: "a string", list: "a list of strings", dict: "a JSON object"}
            raise ValueError(f"--spin-config {path}: {key} must be {what[kind]}, "
                             f"got {value!r}")

    def number(key, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"--spin-config {path}: {key} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:       # an integer past any double; SpinSystem refuses inf
            return math.inf if value > 0 else -math.inf

    return SpinSystem(
        observed=raw["observed"],
        partners=tuple(raw["partners"]),
        j_hz={k: number(f"j_hz[{k}]", v) for k, v in raw["j_hz"].items()},
        offset_hz=number("offset_hz", raw.get("offset_hz", 0.0)),
        t2_s=None if raw.get("t2_s") is None else number("t2_s", raw["t2_s"]),
        placeholder=frozenset(raw.get("placeholder", ())),
    )


def peak_frequency(sys_: SpinSystem, partner_state: str) -> float:
    """Resonance offset for one partner configuration, a bit string in partner
    order, read from ``sys_.peak_frequencies``."""
    if len(partner_state) != len(sys_.partners):
        raise ValueError(
            f"state has {len(partner_state)} bits, system has {len(sys_.partners)} partners")
    if not set(partner_state) <= {"0", "1"}:
        raise ValueError(f"state {partner_state!r} has a bit other than 0 or 1")
    return sys_.peak_frequencies[int(partner_state, 2)]


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


def _report(sys_: SpinSystem, rows, labels: dict[int, str], **meta) -> SpectrumReport:
    """Report of (basis index, intensity, amplitude) rows, named by ``labels`` (index
    -> label), with the system's metadata and ``meta``: the one place that names a
    configuration, reads its frequency, labels it and sorts a spectrum (by
    (frequency, index), which orders like the state string)."""
    freqs, width = sys_.peak_frequencies, sys_.linewidth_hz
    spec = f"0{len(sys_.partners)}b"
    ordered = sorted((freqs[i], i, intensity, amp) for i, intensity, amp in rows)
    peaks = tuple(Peak(f, intensity, format(i, spec), width, amp, labels.get(i))
                  for f, i, intensity, amp in ordered)
    return SpectrumReport(peaks, {"observed": sys_.observed, "offset_hz": sys_.offset_hz,
                                  "t2_s": sys_.t2_s, "spin_system": sys_, **meta})


def check_damping(damping: float) -> None:
    """Refuse a damping outside [DAMPING_FLOOR, 1], NaN included."""
    if not DAMPING_FLOOR <= damping <= 1:
        raise ValueError(f"damping must be in [DAMPING_FLOOR = {DAMPING_FLOOR:.4g}, 1], "
                         f"got {damping}")


def _peak_rows(amps, damping: float) -> list[tuple]:
    """The one peak rule, over (key, amplitude) pairs: a peak for each squared
    amplitude above ``INTENSITY_THRESHOLD``, as (key, damping * |amp|^2,
    sqrt(damping) * amp).  ``synthesize`` keys by basis index, ``readout_peaks``
    by readout state."""
    check_damping(damping)
    root = math.sqrt(damping)
    # scalar abs per amplitude: np.abs over the array rounds some weights differently
    return [(key, damping * weight, root * complex(amp)) for key, amp in amps
            if (weight := abs(amp) ** 2) > INTENSITY_THRESHOLD]


def synthesize(sys_: SpinSystem, state: StateVector,
               damping: float = 1.0) -> SpectrumReport:
    """Spectrum of the observed spin conditioned on the partner state.

    One peak per partner configuration whose squared amplitude clears
    ``INTENSITY_THRESHOLD``; intensity = damping * |amplitude|^2.  The
    threshold drops populations below ~1e-9, which floors how small a
    contamination ratio downstream analysis can see.
    """
    m = len(sys_.partners)
    if state.n != m:
        raise ValueError(f"state has {state.n} qubits, system has {m} partners")
    return _report(sys_, _peak_rows(enumerate(state.amps), damping), {}, damping=damping,
                   reference="unit-population basis peak = 1.0")


def synthesize_thermal(sys_: SpinSystem) -> SpectrumReport:
    """Equal-weight spectrum over every partner configuration."""
    count = 2 ** len(sys_.partners)
    return _report(sys_, ((index, 1.0 / count, None) for index in range(count)), {},
                   thermal=True, reference="total population = 1.0")


def _readout(role: str, n: int, counted: str) -> Readout:
    """The ``READOUT`` entry of ``role``, for states of ``n`` bits: the one check
    of the role and of the bit count.  ``counted`` names what has the ``n``
    bits, as a format string such as ``"state has {} qubits"``."""
    if role not in READOUT:
        raise ValueError(f"role must be one of {sorted(READOUT)}, got {role!r}")
    bits = len(READOUT[role].dominant[0][1])
    if n != bits:
        raise ValueError(f"{counted.format(n)}, {role} readout states have {bits} bits")
    return READOUT[role]


def _check_dominant(role: str, present) -> None:
    """Refuse a readout in which a dominant state of ``role``, taken in ``READOUT``
    order, has no peak (is not in ``present``)."""
    for label, state in READOUT[role].dominant:
        if state not in present:
            raise ValueError(f"{role} spectrum: missing expected peak {label!r} "
                             f"(state {state})")


def readout_peaks(state: StateVector, damping: float, role: str
                  ) -> tuple[list[tuple[float, complex]], list[tuple[float, complex]]]:
    """(intensity, amplitude) of each dominant and each contamination state of
    ``role``, in ``READOUT`` order: the labeled peaks of
    ``assign_peak_labels(synthesize(sys_, state, damping), role)``, read from the
    four readout amplitudes by the same peak rule, with no spectrum built.

    An absent contamination state reads (0.0, 0j); an absent dominant state
    raises the error ``assign_peak_labels`` raises.
    """
    readout = _readout(role, state.n, "state has {} qubits")
    pairs = readout.dominant + readout.contamination
    found = {bits: (intensity, amp) for bits, intensity, amp in
             _peak_rows(((bits, state.amps[int(bits, 2)]) for _, bits in pairs), damping)}
    _check_dominant(role, found)
    return ([found[bits] for _, bits in readout.dominant],
            [found.get(bits, (0.0, 0j)) for _, bits in readout.contamination])


def assign_peak_labels(report: SpectrumReport, role: str) -> SpectrumReport:
    """Attach the ``READOUT`` peak names of one pipeline role.

    Dominant peaks must exist; absent contamination peaks are filled in at
    zero intensity and zero amplitude, so ratio formulas stay total.
    """
    sys_ = report.metadata["spin_system"]
    readout = _readout(role, len(sys_.partners), "spin system has {} partners")
    present = {p.state for p in report.peaks}
    _check_dominant(role, present)
    rows = [(int(p.state, 2), p.intensity, p.amplitude) for p in report.peaks]
    rows += [(int(bits, 2), 0.0, 0j) for _, bits in readout.contamination
             if bits not in present]
    labels = {int(bits, 2): label for label, bits in readout.dominant + readout.contamination}
    return _report(sys_, rows, labels, **{**report.metadata, "role": role})


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
