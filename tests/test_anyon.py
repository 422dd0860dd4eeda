"""Anyon manipulation pipelines against the labeled golden states."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonlab.anyon import (BRAIDING_LOOP, MEASUREMENT, ExperimentConfig,
                            _labeled_subspace, braid, create_anyons,
                            extract_phase, fuse, ideal_fidelities,
                            measurement_reduction, planar6_excited_state,
                            planar6_ground_state, prepare_initial_state,
                            run_braided_pipeline, run_experiment,
                            run_unbraided_pipeline)
from anyonlab.dense import StateVector, apply_pauli, overlap, run
from anyonlab.pauli import PauliString
from anyonlab.spectrum import (assign_peak_labels, default_spin_system, synthesize,
                               synthesize_thermal)

# Golden amplitude tables for the labeled states (qubit order 1..6).
GOLDEN = {
    "psi_a": {"000000": 0.5, "111000": 0.5, "110111": 0.5, "001111": 0.5},
    "psi_b": {"000100": 0.5, "111100": 0.5j, "110011": 0.5, "001011": 0.5j},
    "psi_c": {"001011": 0.5, "110011": 0.5j, "111100": 0.5, "000100": 0.5j},
    "psi_d": {"000000": 0.5j, "111000": -0.5j, "110111": 0.5j, "001111": -0.5j},
    "psi_e": {"001000": 1j * math.sqrt(2) / 2, "111111": 1j * math.sqrt(2) / 2},
    "psi_f": {"000000": 0.5, "111000": 0.5, "110111": 0.5, "001111": 0.5},
    "psi_g": {"000000": math.sqrt(2) / 2, "110111": math.sqrt(2) / 2},
}


def assert_state_equals(state: StateVector, golden: dict, atol: float = 1e-12):
    expected = np.zeros(64, dtype=complex)
    for bits, amp in golden.items():
        expected[int(bits, 2)] = amp
    np.testing.assert_allclose(state.amps, expected, atol=atol)


class TestGoldenStates:
    def test_braided_pipeline_stage_by_stage(self):
        states = run_braided_pipeline(ExperimentConfig()).states
        for name in ("psi_a", "psi_b", "psi_c", "psi_d", "psi_e"):
            assert_state_equals(states[name], GOLDEN[name])

    def test_unbraided_pipeline(self):
        states = run_unbraided_pipeline(ExperimentConfig()).states
        assert_state_equals(states["psi_f"], GOLDEN["psi_f"])
        assert_state_equals(states["psi_g"], GOLDEN["psi_g"])

    def test_creation_output_is_psi_b(self):
        assert_state_equals(create_anyons(planar6_ground_state()), GOLDEN["psi_b"])

    def test_fused_braided_state_is_i_times_excited(self):
        psi_d = fuse(braid(create_anyons(planar6_ground_state())))
        excited = planar6_excited_state()
        ov = overlap(excited, psi_d)
        assert abs(abs(ov) - 1.0) < 1e-10
        assert abs(cmath.phase(ov) - math.pi / 2) < 1e-10

    def test_psi_b_orthogonal_to_psi_c(self):
        psi_b = create_anyons(planar6_ground_state())
        psi_c = braid(psi_b)
        assert abs(overlap(psi_b, psi_c)) < 1e-12


class TestAnyonOps:
    def test_creation_flips_b1_b3(self):
        from anyonlab.lattice import build_planar6, syndrome
        entries = dict(syndrome(build_planar6(), create_anyons(planar6_ground_state())))
        assert entries["B1"] == -1.0 and entries["B3"] == -1.0

    def test_create_then_fuse_is_identity(self):
        g = planar6_ground_state()
        assert abs(overlap(g, fuse(create_anyons(g))) - 1.0) < 1e-12

    def test_braid_fixes_ground_state(self):
        g = planar6_ground_state()
        assert abs(overlap(g, braid(g)) - 1.0) < 1e-12

    def test_braid_acts_as_loop_sign_on_eigenspaces(self):
        loop = BRAIDING_LOOP
        g = planar6_ground_state()
        plus = StateVector(6, (g.amps + apply_pauli(g, loop).amps))
        plus = StateVector(6, plus.amps / np.linalg.norm(plus.amps))
        seed = apply_pauli(g, PauliString.z_on(6, 3))
        minus = StateVector(6, (seed.amps - apply_pauli(seed, loop).amps))
        minus = StateVector(6, minus.amps / np.linalg.norm(minus.amps))
        assert np.max(np.abs(braid(plus).amps - plus.amps)) < 1e-12
        assert np.max(np.abs(braid(minus).amps + minus.amps)) < 1e-12

    def test_fusion_coefficients_with_injected_eta(self):
        # beta = 0 input: coefficient pair must be (-sin eta, cos eta) times i
        eta = 0.17
        g = planar6_ground_state()
        out = fuse(braid(create_anyons(g), eta_inject=eta))
        c_ground = overlap(g, out)
        c_excited = overlap(planar6_excited_state(), out)
        np.testing.assert_allclose(c_ground, 1j * -math.sin(eta), atol=1e-12)
        np.testing.assert_allclose(c_excited, 1j * math.cos(eta), atol=1e-12)

    def test_measurement_circuit_is_unitary(self):
        circ = MEASUREMENT
        cols = []
        for i in range(64):
            basis = StateVector.basis(format(i, "06b"))
            cols.append(run(circ, basis).amps)
        m = np.array(cols).T
        np.testing.assert_allclose(m.conj().T @ m, np.eye(64), atol=1e-12)

    def test_measurement_targets(self):
        m_ground = measurement_reduction(planar6_ground_state())
        assert_state_equals(m_ground, GOLDEN["psi_g"])
        m_excited = measurement_reduction(planar6_excited_state())
        assert_state_equals(
            m_excited, {"001000": math.sqrt(2) / 2, "111111": math.sqrt(2) / 2})

    def test_ideal_fidelities(self):
        fid = ideal_fidelities()
        assert abs(fid["unbraided_fidelity"] - 1.0) < 1e-10
        assert abs(fid["braided_fidelity"] - 1.0) < 1e-10
        assert abs(fid["braided_relative_phase"] - math.pi / 2) < 1e-10


class TestConfig:
    def test_weights_normalized(self):
        cfg = ExperimentConfig(admix_beta=0.18, gamma_leak=0.3)
        a, b, g = cfg.weights()
        assert abs(a * a + b * b + g * g - 1.0) < 1e-12
        assert abs(b / a - 0.18) < 1e-12

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="admix"):
            ExperimentConfig(admix_beta=-0.1)
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(gamma_leak=1.0)
        for bad in (1.5, 0.0, -0.1):
            with pytest.raises(ValueError, match="damping"):
                ExperimentConfig(damping=bad)
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(eta_inject=math.nan)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="admix_beta must be finite"):
                ExperimentConfig(admix_beta=bad)
        # above ADMIX_LIMIT = 1e4 the control run's dominant peaks fall under
        # the intensity threshold, so eta could not be recovered
        for bad in (1e308, 3e4):
            with pytest.raises(ValueError, match=r"admix_beta must be in \[0, ADMIX_LIMIT"):
                ExperimentConfig(eta_inject=-0.1, admix_beta=bad)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((0.0, 0.1, 0.18, 0.3)),
           st.booleans(),
           st.floats(min_value=-0.05, max_value=0.05))
    def test_eta_range_edges(self, admix, upper, offset):
        # recovery is exact only for -pi/2 < eta < pi/2 - atan(admix); outside
        # it the config is refused, inside it eta comes back or the
        # extraction raises, never a wrong eta
        lo, hi = -math.pi / 2, math.pi / 2 - math.atan(admix)
        eta = (hi if upper else lo) + offset
        if not lo < eta < hi:
            with pytest.raises(ValueError, match="recoverable"):
                ExperimentConfig(eta_inject=eta, admix_beta=admix)
            return
        config = ExperimentConfig(eta_inject=eta, admix_beta=admix)
        try:
            recovered = run_experiment(config)["phase"].eta
        except ValueError:
            return
        assert abs(recovered - eta) < 1e-9

    def test_contaminated_state_components(self):
        cfg = ExperimentConfig(admix_beta=0.18, gamma_leak=0.2)
        state = prepare_initial_state(cfg, seed=42)
        a, b, g = cfg.weights()
        assert abs(overlap(planar6_ground_state(), state) - a) < 1e-12
        assert abs(overlap(planar6_excited_state(), state) - b) < 1e-12
        assert abs(state.norm() - 1.0) < 1e-12

    def test_error_component_seeded(self):
        cfg = ExperimentConfig(gamma_leak=0.3)
        s1 = prepare_initial_state(cfg, seed=7)
        s2 = prepare_initial_state(cfg, seed=7)
        s3 = prepare_initial_state(cfg, seed=8)
        assert np.array_equal(s1.amps, s2.amps)
        assert not np.allclose(s1.amps, s3.amps)


def _spectra_for(config: ExperimentConfig, seed: int = 0, threshold: float = 1e-9):
    sys_ = default_spin_system()
    r_u = assign_peak_labels(
        synthesize(sys_, run_unbraided_pipeline(config, seed).final, config.damping,
                   threshold=threshold),
        "unbraided")
    r_b = assign_peak_labels(
        synthesize(sys_, run_braided_pipeline(config, seed).final, config.damping,
                   threshold=threshold),
        "braided")
    return r_b, r_u


class TestExtractPhase:
    def test_reference_numbers(self):
        r_b, r_u = _spectra_for(ExperimentConfig(eta_inject=0.06, admix_beta=0.18))
        result = extract_phase(r_b, r_u)
        assert abs(result.beta_over_alpha - 0.18) < 1e-9
        assert abs(result.alphap_over_betap
                   - math.tan(0.06 + math.atan(0.18))) < 1e-9
        assert abs(result.alphap_over_betap - 0.2427) < 5e-4
        assert abs(result.eta - 0.06) < 1e-9
        assert abs(result.delta - (math.pi / 2 + 0.06) * 2) < 1e-9
        assert abs(result.delta / (2 * math.pi) - 0.5191) < 1e-4

    def test_ideal_run_gives_delta_pi(self):
        r_b, r_u = _spectra_for(ExperimentConfig())
        result = extract_phase(r_b, r_u)
        assert result.eta == 0.0
        assert result.delta == math.pi

    def test_recovery_through_full_pipeline(self):
        r_b, r_u = _spectra_for(ExperimentConfig(eta_inject=0.10, admix_beta=0.18))
        result = extract_phase(r_b, r_u)
        assert abs(result.eta - 0.10) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-0.3, max_value=0.3),
           st.floats(min_value=0.0, max_value=0.499))
    def test_eta_recovery_property(self, eta, admix):
        # threshold 0: the tan-subtraction identity itself, no reporting floor
        r_b, r_u = _spectra_for(ExperimentConfig(eta_inject=eta, admix_beta=admix),
                                threshold=0.0)
        result = extract_phase(r_b, r_u)
        assert abs(result.eta - eta) < 1e-9

    def test_eta_recovery_on_acceptance_grid_with_default_threshold(self):
        etas = [round(-0.3 + 0.02 * i, 10) for i in range(31)]
        for admix in (0.0, 0.1, 0.18, 0.3):
            for eta in etas:
                r_b, r_u = _spectra_for(
                    ExperimentConfig(eta_inject=eta, admix_beta=admix))
                assert abs(extract_phase(r_b, r_u).eta - eta) < 1e-9

    def test_damping_leaves_eta_unchanged(self):
        res1 = extract_phase(*_spectra_for(
            ExperimentConfig(eta_inject=0.06, admix_beta=0.18, damping=1.0)))
        res2 = extract_phase(*_spectra_for(
            ExperimentConfig(eta_inject=0.06, admix_beta=0.18, damping=0.55)))
        assert abs(res1.eta - res2.eta) < 1e-12

    def test_missing_dominant_peak_is_named(self):
        sys_ = default_spin_system()
        cfg = ExperimentConfig()
        good = synthesize(sys_, run_unbraided_pipeline(cfg).final, 1.0)
        with pytest.raises(ValueError, match="'s'"):
            assign_peak_labels(good, "braided")

    def test_reports_without_amplitudes_refused(self):
        # thermal peaks carry intensities only, so no ratio sign can be read off
        thermal = synthesize_thermal(default_spin_system())
        r_b = assign_peak_labels(thermal, "braided")
        r_u = assign_peak_labels(thermal, "unbraided")
        with pytest.raises(ValueError, match="unbraided spectrum has no peak amplitudes"):
            extract_phase(r_b, r_u)
        good_u = _spectra_for(ExperimentConfig())[1]
        with pytest.raises(ValueError, match="braided spectrum has no peak amplitudes"):
            extract_phase(r_b, good_u)

    def test_gamma_leak_does_not_touch_labeled_peaks(self):
        cfg = ExperimentConfig(eta_inject=0.06, admix_beta=0.18, gamma_leak=0.3)
        r_b, r_u = _spectra_for(cfg, seed=5)
        result = extract_phase(r_b, r_u)
        assert abs(result.eta - 0.06) < 1e-9
        # leaked intensity appears at unlabeled frequencies
        unlabeled = [p for p in r_u.peaks if p.label is None]
        assert sum(p.intensity for p in unlabeled) > 0.01


class TestRunExperiment:
    def test_braided_run_has_phase(self):
        result = run_experiment(ExperimentConfig(eta_inject=0.05))
        assert abs(result["phase"].eta - 0.05) < 1e-9
        assert set(result["braided"]["run"].states) == \
            {"psi_a", "psi_b", "psi_c", "psi_d", "psi_e"}

    def test_no_braid_omits_phase(self):
        result = run_experiment(ExperimentConfig(with_braiding=False))
        assert "phase" not in result and "braided" not in result
        assert set(result["unbraided"]["run"].states) == {"psi_f", "psi_g"}


class TestFixedPieces:
    """The fixed pieces of the experiment are built once and shared read-only."""

    def test_state_amplitudes_are_read_only(self):
        g = planar6_ground_state()
        states = [StateVector.zero(6), StateVector.basis("01"),
                  StateVector.from_amplitudes(1, {"1": 1.0}), g, braid(g, 0.1),
                  apply_pauli(g, BRAIDING_LOOP), measurement_reduction(g),
                  prepare_initial_state(ExperimentConfig(gamma_leak=0.2), seed=3)]
        for state in states:
            with pytest.raises(ValueError, match="read-only"):
                state.amps[0] = 0.0

    def test_builders_return_one_read_only_value(self):
        for build in (planar6_ground_state, planar6_excited_state):
            assert build() is build()
            assert not build().amps.flags.writeable
        basis = _labeled_subspace()
        assert basis is _labeled_subspace() and not basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.0
