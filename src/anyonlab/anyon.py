"""Anyon creation, braiding, fusion, and statistical-phase extraction.

The experiment compares two runs on the 6-qubit planar model: one that
creates an m pair (X on qubit 4) together with a superposed e pair
(sqrt(sigma_z) on qubit 3), drags the m anyon around the e anyon with
the loop X6 X5 X3 X4, and fuses everything back; and a control run that
only prepares the ground state.  Both end in a fixed measurement
circuit that maps the ground/excited flag onto qubit 3 of two-peak
readout states.  ``run_experiment`` runs both for one config and
labels their spectra.  The braiding phase deviation eta is injected as
exp(-i * eta * L) after the ideal loop L, so the loop's -1 eigenspace
picks up e^{i(pi + 2 eta)} relative to the +1 eigenspace (a global phase
is dropped relative to the textbook parametrization).

A sweep column is the configs that share one preparation (admix, gamma,
damping, seed), since the control run reads no eta: ``column_control``
runs it once, and ``run_column`` runs the column's braided rows.  Every
braided run, a column's or ``run_experiment``'s one, goes through
``_braided``: creation and L psi_b run once per column, and the rows run
FUSION and MEASUREMENT as one stack through ``dense.run_stack``,
``COLUMN_CHUNK`` rows at a time; the stack leaves every amplitude
bit-identical to a lone run.  A sweep builds no spectrum: each ratio is
read from the four readout amplitudes of its final state
(``spectrum.readout_peaks``) by the peak rule of ``synthesize``, and
``_ratio`` and ``_phase`` are the same arithmetic ``extract_phase``
applies to labeled spectra, so a row gives the bits of
``run_experiment``.  ``ideal_fidelities()`` runs both ideal pipelines
itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectrum as spec
from .dense import (Circuit, Gate, StateVector, apply_gate, apply_pauli,
                    overlap, run, run_stack)
from .lattice import ground_state_circuit, planar6_graph_spec
from .pauli import PauliString


def _measurement_circuit(preparation: Circuit) -> Circuit:
    """Fixed Clifford network mapping ground/excited onto two-peak states.

    Uninvert the preparation (sending the ground state to |000000> and
    the excited one to |100001>), fold the excitation flag onto qubit 3,
    then re-entangle qubits (1,2,4,5,6) into the GHZ-like readout pair.
    Golden-tested against the target amplitudes.
    """
    def cnot(c, t):
        return [Gate("h", (t,)), Gate("cz", (c, t)), Gate("h", (t,))]

    gates = list(preparation.inverse().gates)
    gates += cnot(1, 6)
    gates += [Gate("swap", (1, 3))]
    gates += [Gate("h", (1,))]
    for t in (2, 4, 5, 6):
        gates += cnot(1, t)
    return Circuit(preparation.n, tuple(gates))


# The fixed pieces of the experiment; none of them applies a gate.
PREPARATION = ground_state_circuit(planar6_graph_spec())
CREATION = Circuit(6, (Gate("x", (4,)), Gate("s", (3,))))
BRAIDING_LOOP = PauliString.x_on(6, 6, 5, 3, 4)   # drags m around e
FUSION = CREATION.inverse()
MEASUREMENT = _measurement_circuit(PREPARATION)

# Largest admix_beta.  Each dominant control peak holds alpha^2 / 2 =
# 1 / (2 (1 + beta^2)) at gamma = 0, which at this cap (5e-9) still clears
# spec.INTENSITY_THRESHOLD; from about 2.2e4 up the peak is dropped.
ADMIX_LIMIT = 10 ** 4
# Braided rows per stack; the stacks of psi_c, psi_d and psi_e hold 3 KB per row.
COLUMN_CHUNK = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Imperfection model for a braiding run.

    ``admix_beta`` is the ground-state contamination ratio |beta/alpha|,
    ``gamma_leak`` the weight of a seeded random component orthogonal to
    the ground/excited plane, and ``damping`` a uniform intensity scale
    standing in for relaxation losses.  Weights are normalized so
    alpha^2 + beta^2 + gamma^2 = 1.

    ``admix_beta`` must lie in [0, ADMIX_LIMIT], ``eta_inject`` in
    (-pi/2, pi/2 - atan(admix_beta)), the range in which ``extract_phase``
    recovers it, and ``damping`` in [spectrum.DAMPING_FLOOR, 1] (by the peak
    rule's own ``spectrum.check_damping``); any other value is rejected here.
    """

    with_braiding: bool = True
    eta_inject: float = 0.0
    admix_beta: float = 0.0
    gamma_leak: float = 0.0
    damping: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.eta_inject):
            raise ValueError(f"eta_inject must be finite, got {self.eta_inject}")
        if not math.isfinite(self.admix_beta):
            raise ValueError(f"admix_beta must be finite, got {self.admix_beta}")
        if not 0 <= self.admix_beta <= ADMIX_LIMIT:
            raise ValueError(f"admix_beta must be in [0, ADMIX_LIMIT = {ADMIX_LIMIT}], "
                             f"got {self.admix_beta}")
        lo, hi = -math.pi / 2, math.pi / 2 - math.atan(self.admix_beta)
        if not lo < self.eta_inject < hi:
            raise ValueError(
                f"eta_inject must lie in (-pi/2, pi/2 - atan(admix_beta)) = "
                f"({lo:.6g}, {hi:.6g}) to be recoverable, got {self.eta_inject}")
        if not 0 <= self.gamma_leak < 1:
            raise ValueError(f"gamma_leak must be in [0, 1), got {self.gamma_leak}")
        spec.check_damping(self.damping)

    def weights(self) -> tuple[float, float, float]:
        gamma = self.gamma_leak
        alpha = math.sqrt((1 - gamma * gamma) / (1 + self.admix_beta ** 2))
        return alpha, self.admix_beta * alpha, gamma


@dataclass(frozen=True)
class PhaseResult:
    """Extracted braiding statistics; delta = (pi/2 + eta) * 2 by construction."""

    eta: float
    delta: float
    beta_over_alpha: float
    alphap_over_betap: float

    def as_dict(self) -> dict:
        return {"eta": self.eta, "delta": self.delta,
                "delta_over_pi": self.delta / math.pi,
                "beta_over_alpha": self.beta_over_alpha,
                "alphap_over_betap": self.alphap_over_betap}


# -- reference states ------------------------------------------------------


@lru_cache(maxsize=1)
def planar6_ground_state() -> StateVector:
    """Eq-exact ground state of the planar model, via the graph circuit (built once)."""
    return run(PREPARATION, StateVector.zero(6))


@lru_cache(maxsize=1)
def planar6_excited_state() -> StateVector:
    """Z on qubit 3 applied to the ground state (the e-pair excitation)."""
    return apply_gate(planar6_ground_state(), "z", 3)


# -- anyon manipulations ----------------------------------------------------


def create_anyons(state: StateVector) -> StateVector:
    """X on qubit 4 (m pair) then sqrt(sigma_z) on qubit 3 (superposed e pair)."""
    return run(CREATION, state)


def braid(state: StateVector, eta_inject: float = 0.0) -> StateVector:
    """Move the m anyon around the e anyon: the loop L = ``BRAIDING_LOOP``.

    ``eta_inject`` applies exp(-i * eta * L) after the loop, which is
    cos(eta) L psi - i sin(eta) psi because L^2 = 1; it rotates the
    relative phase of L's -1 eigenspace by 2*eta (at eta = 0, L psi itself).
    """
    looped = apply_pauli(state, BRAIDING_LOOP)
    return StateVector(state.n, _braid_rows(state, looped, (eta_inject,))[0])


def _braid_rows(psi_b: StateVector, looped: StateVector, etas) -> np.ndarray:
    """``braid`` of psi_b at each eta, stacked, from its loop image ``looped``."""
    return np.stack([math.cos(eta) * looped.amps - 1j * math.sin(eta) * psi_b.amps
                     for eta in etas])


def fuse(state: StateVector) -> StateVector:
    """Inverse creation: sqrt(sigma_z)^-1 on qubit 3 then X on qubit 4."""
    return run(FUSION, state)


# -- measurement reduction ---------------------------------------------------


def measurement_reduction(state: StateVector) -> StateVector:
    """Apply the fixed readout circuit ``MEASUREMENT``."""
    return run(MEASUREMENT, state)


# -- imperfect preparation ---------------------------------------------------


@lru_cache(maxsize=1)
def _labeled_subspace() -> np.ndarray:
    """Orthonormal basis (columns) of the span whose readout peaks carry labels.

    Columns run over the ground readout pair, then the excited one, each in
    bit order; the order sets the QR's rounding, which gamma > 0 reports print.
    Built once and read-only.
    """
    readout = spec.READOUT["unbraided"]
    minv = MEASUREMENT.inverse()
    cols = [run(minv, StateVector.basis(bits)).amps
            for pair in (readout.dominant, readout.contamination)
            for bits in sorted(state for _, state in pair)]
    q, _ = np.linalg.qr(np.array(cols).T)
    q.setflags(write=False)
    return q


def prepare_initial_state(config: ExperimentConfig, seed: int = 0) -> StateVector:
    """alpha |ground> + beta |excited> + gamma |error>, seeded.

    The error component is drawn uniformly from the complement of the
    four-dimensional subspace feeding the labeled readout peaks (which
    contains the ground/excited plane), so contamination shows up only
    at unlabeled frequencies, and stays there through either pipeline.
    """
    alpha, beta, gamma = config.weights()
    amps = alpha * planar6_ground_state().amps + beta * planar6_excited_state().amps
    if gamma > 0:
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        basis = _labeled_subspace()
        raw -= basis @ (basis.conj().T @ raw)
        raw /= np.linalg.norm(raw)
        amps = amps + gamma * raw
    return StateVector(6, amps)


# -- pipelines ---------------------------------------------------------------


@dataclass(frozen=True)
class PipelineRun:
    states: dict[str, StateVector]   # stage-labeled intermediate states
    final: StateVector


def _braided(configs: Sequence[ExperimentConfig], psi_a: StateVector
             ) -> Iterator[PipelineRun]:
    """The braided pipeline of each config, in order, all from one psi_a.

    Creation and L psi_b run once; each chunk of rows stacks its own braid
    expressions and runs FUSION and MEASUREMENT once on the stack.
    """
    psi_b = create_anyons(psi_a)
    looped = apply_pauli(psi_b, BRAIDING_LOOP)
    for start in range(0, len(configs), COLUMN_CHUNK):
        chunk = configs[start:start + COLUMN_CHUNK]
        psi_c = _braid_rows(psi_b, looped, [c.eta_inject for c in chunk])
        psi_d = run_stack(FUSION, psi_c)
        psi_e = run_stack(MEASUREMENT, psi_d)
        for c, d, e in zip(psi_c, psi_d, psi_e):
            final = StateVector(6, e)
            yield PipelineRun({"psi_a": psi_a, "psi_b": psi_b, "psi_c": StateVector(6, c),
                               "psi_d": StateVector(6, d), "psi_e": final}, final)


def _unbraided(psi_f: StateVector) -> PipelineRun:
    psi_g = measurement_reduction(psi_f)
    return PipelineRun({"psi_f": psi_f, "psi_g": psi_g}, psi_g)


def run_braided_pipeline(config: ExperimentConfig, seed: int = 0) -> PipelineRun:
    """Creation, braiding, fusion, measurement (labeled states a..e)."""
    (braided,) = _braided([config], prepare_initial_state(config, seed))
    return braided


def run_unbraided_pipeline(config: ExperimentConfig, seed: int = 0) -> PipelineRun:
    """Control run: preparation then measurement only (labeled states f, g)."""
    return _unbraided(prepare_initial_state(config, seed))


# -- phase extraction ---------------------------------------------------------


def _ratio(role: str, dominant, contamination) -> float:
    """Signed amplitude ratio of a role's contamination pair over its dominant pair,
    from each pair's (intensity, amplitude) in ``spec.READOUT`` order.

    The magnitude comes from the summed peak intensities, exactly as the
    intensity-ratio analysis prescribes.  The sign of the underlying
    coefficient ratio comes from the per-peak complex amplitudes, oriented
    by the role's ``spec.READOUT`` entry.
    """
    readout = spec.READOUT[role]
    gamma_dom = sum(intensity for intensity, _ in dominant)
    if gamma_dom <= 0:
        raise ValueError(f"{role} dominant peaks {[label for label, _ in readout.dominant]} "
                         f"have no intensity; cannot form ratio")
    magnitude = math.sqrt(sum(intensity for intensity, _ in contamination) / gamma_dom)
    cross = sum(c * d.conjugate() for (_, c), (_, d) in zip(contamination, dominant))
    sign = -readout.orientation if cross.real < 0 else readout.orientation
    return sign * magnitude


def _pair_ratio(report: spec.SpectrumReport, role: str) -> float:
    """``_ratio`` of a role's labeled peaks in ``report``.

    A physical intensity-only spectrum cannot give the ratio's sign, so a
    report without amplitudes is refused.
    """
    readout = spec.READOUT[role]
    contam = [report.labeled_peak(label) for label, _ in readout.contamination]
    dom = [report.labeled_peak(label) for label, _ in readout.dominant]
    if any(p.amplitude is None for p in contam + dom):
        raise ValueError(f"{role} spectrum has no peak amplitudes; "
                         f"the sign of its ratio cannot be recovered")
    return _ratio(role, [(p.intensity, p.amplitude) for p in dom],
                  [(p.intensity, p.amplitude) for p in contam])


def _readout_ratio(state: StateVector, damping: float, role: str) -> float:
    """``_pair_ratio`` of the labeled spectrum of ``state``, read from its readout
    amplitudes without building the spectrum."""
    return _ratio(role, *spec.readout_peaks(state, damping, role))


def _phase(rho: float, rho_prime: float) -> PhaseResult:
    """eta and delta from the control ratio rho and the braided ratio rho_prime."""
    denom = 1.0 + rho * rho_prime
    if denom <= 0:
        raise ValueError(
            f"ratio combination outside the invertible regime: {rho}, {rho_prime}")
    eta = math.atan((rho_prime - rho) / denom)
    return PhaseResult(eta=eta, delta=(math.pi / 2 + eta) * 2,
                       beta_over_alpha=abs(rho), alphap_over_betap=abs(rho_prime))


def extract_phase(with_braid: spec.SpectrumReport,
                  without_braid: spec.SpectrumReport) -> PhaseResult:
    """Recover eta and delta = (pi/2 + eta)*2 from the paired spectra.

    |beta/alpha| = sqrt((G_p + G_q) / (G_i + G_j)) from the control run,
    |alpha'/beta'| = sqrt((G_u + G_v) / (G_s + G_t)) from the braided
    run, and tan(eta) is their tangent-difference combination.
    The ratios are tan(theta) and tan(eta + theta), theta = atan(admix), so
    eta is recovered only for -pi/2 < eta < pi/2 - theta (enforced by
    ``ExperimentConfig``); outside it eta is aliased by pi or this raises.
    """
    return _phase(_pair_ratio(without_braid, "unbraided"),
                  _pair_ratio(with_braid, "braided"))


def run_experiment(config: ExperimentConfig, spin_system: spec.SpinSystem,
                   seed: int = 0) -> dict:
    """Full comparison experiment: the control run, then the braided run from the
    same psi_a, each with its labeled spectrum.

    Returns a dict with the unbraided run always present, the braided
    run when ``config.with_braiding``, and the PhaseResult when both
    spectra exist.
    """
    unbraided = _unbraided(prepare_initial_state(config, seed))
    r_u = spec.assign_peak_labels(
        spec.synthesize(spin_system, unbraided.final, config.damping), "unbraided")
    out: dict = {"unbraided": {"run": unbraided, "spectrum": r_u}}
    if config.with_braiding:
        (braided,) = _braided([config], unbraided.states["psi_f"])
        r_b = spec.assign_peak_labels(
            spec.synthesize(spin_system, braided.final, config.damping), "braided")
        out["braided"] = {"run": braided, "spectrum": r_b}
        out["phase"] = extract_phase(r_b, r_u)
    return out


# -- sweep columns -------------------------------------------------------------


def column_control(config: ExperimentConfig, seed: int = 0) -> tuple[StateVector, float]:
    """The control half of a sweep column: the prepared psi_a and the control
    ratio rho, read from the unbraided readout amplitudes.

    Reads no ``eta_inject`` and no ``with_braiding``, so configs that differ
    only in those share one control.
    """
    psi_a = prepare_initial_state(config, seed)
    return psi_a, _readout_ratio(_unbraided(psi_a).final, config.damping, "unbraided")


def run_column(configs: Sequence[ExperimentConfig], psi_a: StateVector,
               rho: float) -> Iterator[PhaseResult]:
    """The PhaseResult of each config of a sweep column, in order, against the
    control (psi_a, rho) that ``column_control`` made for the column.

    The rows are ``_braided``'s, a chunk at a time.  A row's ratio is read
    from its final state's readout amplitudes only when the row is asked
    for, so a ValueError belongs to that row.
    """
    for config, braided in zip(configs, _braided(configs, psi_a)):
        yield _phase(rho, _readout_ratio(braided.final, config.damping, "braided"))


def ideal_fidelities() -> dict[str, float]:
    """Round-trip figures of the noiseless pipelines, run here from the ideal config."""
    cfg = ExperimentConfig()
    ov_u = overlap(measurement_reduction(planar6_ground_state()),
                   run_unbraided_pipeline(cfg).final)
    ov_b = overlap(measurement_reduction(planar6_excited_state()),
                   run_braided_pipeline(cfg).final)
    return {"unbraided_fidelity": abs(ov_u), "braided_fidelity": abs(ov_b),
            "braided_relative_phase": math.atan2(ov_b.imag, ov_b.real)}
