"""Spectrum synthesis: multiplet frequencies, intensities, labeling, lineshape."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyonlab.anyon import (ExperimentConfig, _pair_ratio, _readout_ratio, extract_phase,
                            run_braided_pipeline, run_unbraided_pipeline)
from anyonlab.dense import StateVector
from anyonlab.spectrum import (INTENSITY_THRESHOLD, LINESHAPE_LIMIT, MEASURED_J_H1_HZ,
                               MEASURED_J_H2_HZ, J_LIMIT_HZ, OFFSET_LIMIT_HZ, READOUT,
                               T2_RANGE_S, SpinSystem,
                               assign_peak_labels, default_spin_system,
                               lineshape_to_csv, load_spin_system,
                               peak_frequency, readout_peaks, sample_lineshape,
                               spectrum_to_csv, synthesize, synthesize_thermal)


def small_system(**kwargs) -> SpinSystem:
    defaults = dict(observed="O", partners=("a", "b"),
                    j_hz={"a": 10.0, "b": 4.0})
    defaults.update(kwargs)
    return SpinSystem(**defaults)


def total_intensity(report) -> float:
    return sum(p.intensity for p in report.peaks)


def summed_frequency(sys_: SpinSystem, partner_state: str) -> float:
    """Oracle: the offset plus each partner's +J/2 (|1>) or -J/2 (|0>), in partner order."""
    freq = sys_.offset_hz
    for bit, partner in zip(partner_state, sys_.partners):
        freq += 0.5 * sys_.j_hz[partner] * (1.0 if bit == "1" else -1.0)
    return freq


class TestPeakFrequency:
    def test_all_zero_closed_form(self):
        sys_ = default_spin_system()
        total = sum(sys_.j_hz[p] for p in sys_.partners)
        assert peak_frequency(sys_, "000000") == pytest.approx(-total / 2, abs=1e-12)

    def test_h1_flip_shifts_by_its_coupling(self):
        sys_ = default_spin_system()
        lo = peak_frequency(sys_, "000000")
        hi = peak_frequency(sys_, "001000")   # H1 is the third partner
        assert abs(hi - lo - MEASURED_J_H1_HZ) < 1e-9
        assert abs(hi - lo - 155.42) < 1e-9

    def test_h2_flip_shifts_by_smallest_coupling(self):
        sys_ = default_spin_system()
        lo = peak_frequency(sys_, "000000")
        hi = peak_frequency(sys_, "000010")
        assert abs(hi - lo - MEASURED_J_H2_HZ) < 1e-12

    def test_sixty_four_distinct_frequencies(self):
        sys_ = default_spin_system()
        freqs = {round(peak_frequency(sys_, format(i, "06b")), 9) for i in range(64)}
        assert len(freqs) == 64

    def test_offset_adds(self):
        sys_ = small_system(offset_hz=100.0)
        assert peak_frequency(sys_, "00") == pytest.approx(100.0 - 7.0)

    def test_single_partner_flip_shifts_by_that_coupling(self):
        sys_ = default_spin_system()
        base = ["0"] * 6
        for idx, partner in enumerate(sys_.partners):
            flipped = list(base)
            flipped[idx] = "1"
            shift = peak_frequency(sys_, "".join(flipped)) \
                - peak_frequency(sys_, "".join(base))
            assert abs(shift - abs(sys_.j_hz[partner])) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="bits"):
            peak_frequency(small_system(), "000")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-J_LIMIT_HZ, max_value=J_LIMIT_HZ),
                    min_size=1, max_size=12),
           st.floats(min_value=-OFFSET_LIMIT_HZ, max_value=OFFSET_LIMIT_HZ))
    def test_has_the_bits_of_the_per_partner_sum(self, j_values, offset):
        names = tuple(f"p{i}" for i in range(len(j_values)))
        sys_ = SpinSystem(observed="O", partners=names, j_hz=dict(zip(names, j_values)),
                          offset_hz=offset)
        m = len(names)
        for i in range(2 ** m):     # hex tells -0.0 from 0.0
            state = format(i, f"0{m}b")
            assert peak_frequency(sys_, state).hex() == summed_frequency(sys_, state).hex()

    # int(s, 2) alone would read the last four as 5, 1, 1 and 1
    @pytest.mark.parametrize("state", ["00x000", "0_0101", "+00001", " 00001", "00001\n"])
    def test_non_binary_state_refused(self, state):
        with pytest.raises(ValueError, match=re.escape(
                f"state {state!r} has a bit other than 0 or 1")):
            peak_frequency(default_spin_system(), state)


class TestFrequencyTable:
    def twelve_partner_system(self, tmp_path) -> SpinSystem:
        names = [f"p{i}" for i in range(12)]
        path = tmp_path / "spins.json"
        path.write_text(json.dumps({
            "observed": "O", "partners": names, "offset_hz": -37.25,
            "j_hz": {p: 0.66 * 3.1 ** i * (-1) ** i for i, p in enumerate(names)}}))
        return load_spin_system(str(path))

    def test_table_is_peak_frequency_by_index(self, tmp_path):
        for sys_ in (default_spin_system(), self.twelve_partner_system(tmp_path)):
            m = len(sys_.partners)
            table = sys_.peak_frequencies
            assert len(table) == 2 ** m
            for i, f in enumerate(table):
                assert f == peak_frequency(sys_, format(i, f"0{m}b"))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-J_LIMIT_HZ, max_value=J_LIMIT_HZ),
                    min_size=1, max_size=12),
           st.floats(min_value=-OFFSET_LIMIT_HZ, max_value=OFFSET_LIMIT_HZ))
    def test_table_has_the_bits_of_peak_frequency(self, j_values, offset):
        names = tuple(f"p{i}" for i in range(len(j_values)))
        sys_ = SpinSystem(observed="O", partners=names, j_hz=dict(zip(names, j_values)),
                          offset_hz=offset)
        m = len(names)
        table = sys_.peak_frequencies
        assert len(table) == 2 ** m
        for i, f in enumerate(table):     # hex tells -0.0 from 0.0
            assert f.hex() == peak_frequency(sys_, format(i, f"0{m}b")).hex()

    def test_fill_in_is_peak_frequency(self, tmp_path):
        # READOUT states have six bits, so labels need a six-partner system
        names = [f"p{i}" for i in range(6)]
        path = tmp_path / "six.json"
        path.write_text(json.dumps({
            "observed": "O", "partners": names, "offset_hz": 12.5,
            "j_hz": {p: 0.66 * 3.1 ** i * (-1) ** i for i, p in enumerate(names)}}))
        sys_ = load_spin_system(str(path))
        finals = {"unbraided": run_unbraided_pipeline(ExperimentConfig()).final,
                  "braided": run_braided_pipeline(ExperimentConfig()).final}
        for role, final in finals.items():
            report = assign_peak_labels(synthesize(sys_, final), role)
            for label, state in READOUT[role].contamination:
                peak = report.labeled_peak(label)
                assert peak.intensity == 0.0     # filled in, not synthesized
                assert peak.frequency_hz == peak_frequency(sys_, state)
        # twelve-bit states are refused by their bit count, so no fill-in is reached
        twelve = synthesize_thermal(self.twelve_partner_system(tmp_path))
        with pytest.raises(ValueError, match="spin system has 12 partners, unbraided "
                                             "readout states have 6 bits"):
            assign_peak_labels(twelve, "unbraided")

    def test_table_is_not_a_field(self, tmp_path):
        sys_ = self.twelve_partner_system(tmp_path)
        fresh = load_spin_system(str(tmp_path / "spins.json"))
        before = sys_.as_dict()
        assert sys_.peak_frequencies
        assert sys_.as_dict() == before
        assert sys_ == fresh and "peak_frequencies" not in vars(fresh)
        copy = replace(sys_, t2_s=0.3)
        assert "peak_frequencies" not in vars(copy)
        assert copy.peak_frequencies == sys_.peak_frequencies


class TestSpinSystemConfig:
    def test_round_trip(self, tmp_path):
        sys_ = replace(default_spin_system(), t2_s=0.3)
        path = tmp_path / "spins.json"
        path.write_text(json.dumps(sys_.as_dict()))
        loaded = load_spin_system(str(path))
        assert loaded == sys_

    def test_placeholders_flagged(self):
        sys_ = default_spin_system()
        assert sys_.placeholder == frozenset({"C1", "M", "C4", "C3"})
        assert "H1" not in sys_.placeholder and "H2" not in sys_.placeholder

    def test_validation(self):
        with pytest.raises(ValueError, match="no J value"):
            SpinSystem("O", ("a", "b"), {"a": 1.0})
        with pytest.raises(ValueError, match="finite"):
            SpinSystem("O", ("a",), {"a": math.inf})
        for t2 in (0.0, -0.3, 1e-160, 1e300, 1e-320):
            with pytest.raises(ValueError, match=r"t2_s must be in \[1e-100, 1e\+100\] s"):
                SpinSystem("O", ("a",), {"a": 1.0}, t2_s=t2)
        for t2 in T2_RANGE_S + (0.3,):    # both ends, and the T2 of the examples
            sys_ = SpinSystem("O", ("a",), {"a": 1.0}, t2_s=t2)
            _, values = sample_lineshape(synthesize_thermal(sys_), 11)
            assert np.all(np.isfinite(values)) and values.max() > 0
        for j in (1.7e308, -1e151, 1e300, math.nan):
            with pytest.raises(ValueError,
                               match=r"j_hz\[b\] must be finite with \|J\| <= 1e\+150 Hz"):
                small_system(j_hz={"a": 1.0, "b": j})
        # 12 partners at the J cap: finite peaks and lineshape at both t2 ends
        names = tuple(f"p{i}" for i in range(12))
        for t2 in T2_RANGE_S:
            sys_ = SpinSystem("O", names, dict.fromkeys(names, J_LIMIT_HZ), t2_s=t2)
            rep = synthesize_thermal(sys_)
            assert rep.peaks[-1].frequency_hz == pytest.approx(6 * J_LIMIT_HZ)
            freqs, values = sample_lineshape(rep, 11)
            assert np.all(np.isfinite(freqs)) and np.all(np.isfinite(values))
        with pytest.raises(ValueError, match="unique"):
            SpinSystem("O", ("a", "a"), {"a": 1.0})
        # a state has at most DENSE_LIMIT = 12 bits, one per partner
        names = tuple(f"p{i}" for i in range(13))
        for partners in (names, ()):
            with pytest.raises(ValueError, match=rf"1\.\.12 partners, got {len(partners)}"):
                SpinSystem("O", partners, dict.fromkeys(names, 1.0))
        for field in ("offset_hz", "t2_s"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    small_system(**{field: value})
        for offset in (-1.0000001e12, 1e300):
            with pytest.raises(ValueError, match=r"\|offset\| <= 1e\+12 Hz"):
                small_system(offset_hz=offset)
        # at the cap the 0.66 Hz coupling is still resolved
        rep = synthesize_thermal(small_system(offset_hz=-OFFSET_LIMIT_HZ,
                                              j_hz={"a": 0.66, "b": 6.0}))
        freqs = sorted(peak.frequency_hz for peak in rep.peaks)
        assert freqs[1] - freqs[0] == pytest.approx(0.66, rel=1e-3)

    def test_stray_names_refused(self):
        # a coupling or placeholder flag on a name that is not a partner
        # would be silently unused
        with pytest.raises(ValueError, match=r"j_hz names non-partner\(s\) \['zz'\]"):
            SpinSystem("O", ("a",), {"a": 1.0, "zz": 5.0}, placeholder=frozenset({"typo"}))
        with pytest.raises(ValueError, match=r"placeholder names non-partner\(s\) \['c', 'x'\]"):
            small_system(placeholder=frozenset({"a", "x", "c"}))
        assert small_system(placeholder=frozenset({"b"})).as_dict()["placeholder"] == ["b"]

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "spins.json"
        path.write_text(json.dumps({"partners": ["a"], "j_hz": {"a": 1.0}}))
        with pytest.raises(ValueError, match="missing observed$"):
            load_spin_system(str(path))
        good = {"observed": "O", "partners": ["a"], "j_hz": {"a": 1.0}}
        for change, message in (({"observed": 1}, "observed must be a string"),
                                ({"partners": "ab"}, "partners must be a list of str"),
                                ({"partners": [1]}, "partners must be a list of str"),
                                ({"j_hz": [1]}, "j_hz must be a JSON object"),
                                ({"j_hz": {"a": [1]}}, r"j_hz\[a\] must be a number"),
                                ({"offset_hz": {}}, "offset_hz must be a number"),
                                # JSON numbers only: no numeric strings, no booleans
                                ({"j_hz": {"a": "155.42"}}, r"j_hz\[a\] must be a number"),
                                ({"j_hz": {"a": True}}, r"j_hz\[a\] must be a number"),
                                ({"offset_hz": "12"}, "offset_hz must be a number"),
                                ({"offset_hz": False}, "offset_hz must be a number"),
                                ({"t2_s": True}, "t2_s must be a number"),
                                ({"t2_s": "0.3"}, "t2_s must be a number"),
                                # an integer past any double is infinite, so out of range
                                ({"j_hz": {"a": 10 ** 400}}, r"j_hz\[a\] must be finite"),
                                ({"offset_hz": -10 ** 400}, "offset_hz must be finite"),
                                ({"placeholder": "a"}, "placeholder must be a list"),
                                # every name is a partner's: a typo is refused
                                ({"j_hz": {"a": 1.0, "zz": 5.0}},
                                 r"j_hz names non-partner\(s\) \['zz'\]"),
                                ({"placeholder": ["typo", "a"]},
                                 r"placeholder names non-partner\(s\) \['typo'\]"),
                                # a misspelt key would be read as its default
                                ({"t2": 0.3, "ofset_hz": 5},
                                 r"has unknown key\(s\) \['ofset_hz', 't2'\]$"),
                                ({"offset": 0.0}, r"has unknown key\(s\) \['offset'\]$"),
                                ({"T2_s": None}, r"has unknown key\(s\) \['T2_s'\]$")):
            path.write_text(json.dumps({**good, **change}))
            with pytest.raises(ValueError, match=message):
                load_spin_system(str(path))
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_spin_system(str(path))
        # JSON integers are numbers
        path.write_text(json.dumps({**good, "j_hz": {"a": 155}, "offset_hz": -12, "t2_s": 1}))
        loaded = load_spin_system(str(path))
        assert (loaded.j_hz, loaded.offset_hz, loaded.t2_s) == ({"a": 155.0}, -12.0, 1.0)
        assert all(type(v) is float for v in (loaded.j_hz["a"], loaded.offset_hz, loaded.t2_s))


class TestSynthesize:
    def test_ground_readout_two_equal_peaks(self):
        sys_ = default_spin_system()
        state = run_unbraided_pipeline(ExperimentConfig()).final
        report = synthesize(sys_, state)
        assert [p.state for p in report.peaks] == ["000000", "110111"]
        assert all(abs(p.intensity - 0.5) < 1e-12 for p in report.peaks)

    def test_excited_readout_shifted_by_h1_coupling(self):
        sys_ = default_spin_system()
        r_g = synthesize(sys_, run_unbraided_pipeline(ExperimentConfig()).final)
        r_e = synthesize(sys_, run_braided_pipeline(ExperimentConfig()).final)
        assert [p.state for p in r_e.peaks] == ["001000", "111111"]
        for pg, pe in zip(r_g.peaks, r_e.peaks):
            assert abs(pe.frequency_hz - pg.frequency_hz - MEASURED_J_H1_HZ) < 1e-9

    def test_damping_scales_total_intensity(self):
        sys_ = default_spin_system()
        state = run_unbraided_pipeline(ExperimentConfig()).final
        report = synthesize(sys_, state, damping=0.7)
        assert abs(total_intensity(report) - 0.7) < 1e-12

    def test_braiding_preserves_total_intensity(self):
        sys_ = default_spin_system()
        cfg = ExperimentConfig(eta_inject=0.11, admix_beta=0.18, gamma_leak=0.2)
        r_u = synthesize(sys_, run_unbraided_pipeline(cfg, seed=3).final, 0.8)
        r_b = synthesize(sys_, run_braided_pipeline(cfg, seed=3).final, 0.8)
        assert abs(total_intensity(r_u) - total_intensity(r_b)) < 1e-10

    def test_peak_count_matches_support(self):
        sys_ = small_system()
        amps = np.array([math.sqrt(0.5), 0, math.sqrt(0.3), math.sqrt(0.2)],
                        dtype=complex)
        report = synthesize(sys_, StateVector(2, amps))
        assert len(report.peaks) == 3

    def test_linewidth_from_t2(self):
        sys_ = small_system(t2_s=0.2)
        report = synthesize(sys_, StateVector.basis("00"))
        assert report.peaks[0].linewidth_hz == pytest.approx(1 / (math.pi * 0.2))

    def test_state_size_mismatch(self):
        with pytest.raises(ValueError, match="partners"):
            synthesize(small_system(), StateVector.basis("000"))

    def test_thermal_has_all_64_peaks(self):
        report = synthesize_thermal(default_spin_system())
        assert len(report.peaks) == 64
        freqs = {round(p.frequency_hz, 9) for p in report.peaks}
        assert len(freqs) == 64
        assert abs(total_intensity(report) - 1.0) < 1e-12


class TestEqualFrequencies:
    """Peaks at one frequency sort by state, in every spectrum."""

    def test_synthesize_and_thermal(self):
        sys_ = small_system(j_hz={"a": 5.0, "b": 5.0})    # 01 and 10 both at 0 Hz
        amps = np.array([0.5, 0.5, 0.5j, -0.5], dtype=complex)
        for report in (synthesize(sys_, StateVector(2, amps)), synthesize_thermal(sys_)):
            assert [p.state for p in report.peaks] == ["00", "01", "10", "11"]
            assert report.peaks[1].frequency_hz == report.peaks[2].frequency_hz == 0.0

    def test_labeled_fill_in(self):
        # J = 0 on the third partner: each fill-in shares its frequency with a dominant
        names = tuple(f"p{i}" for i in range(6))
        sys_ = SpinSystem("O", names, dict(zip(names, (40.0, 2.0, 0.0, 64.0, 0.66, 28.0))))
        finals = {"unbraided": run_unbraided_pipeline(ExperimentConfig()).final,
                  "braided": run_braided_pipeline(ExperimentConfig()).final}
        for role, final in finals.items():
            report = assign_peak_labels(synthesize(sys_, final), role)
            assert [p.state for p in report.peaks] == \
                ["000000", "001000", "110111", "111111"]
            freqs = [p.frequency_hz for p in report.peaks]
            assert freqs[0] == freqs[1] and freqs[2] == freqs[3]


class TestLabels:
    def test_ideal_unbraided_labels(self):
        sys_ = default_spin_system()
        report = assign_peak_labels(
            synthesize(sys_, run_unbraided_pipeline(ExperimentConfig()).final),
            "unbraided")
        labels = {p.label: p for p in report.peaks if p.label}
        assert set(labels) == {"i", "j", "p", "q"}
        assert labels["i"].state == "110111" and labels["j"].state == "000000"
        assert labels["p"].intensity == 0.0 and labels["q"].intensity == 0.0

    def test_admix_ratio_squared(self):
        sys_ = default_spin_system()
        cfg = ExperimentConfig(admix_beta=0.18)
        report = assign_peak_labels(
            synthesize(sys_, run_unbraided_pipeline(cfg).final), "unbraided")
        num = sum(report.labeled_peak(l).intensity for l in ("p", "q"))
        den = sum(report.labeled_peak(l).intensity for l in ("i", "j"))
        assert abs(num / den - 0.18 ** 2) < 1e-9

    def test_braided_ratio_matches_tan_identity(self):
        sys_ = default_spin_system()
        cfg = ExperimentConfig(eta_inject=0.06, admix_beta=0.18)
        report = assign_peak_labels(
            synthesize(sys_, run_braided_pipeline(cfg).final), "braided")
        num = sum(report.labeled_peak(l).intensity for l in ("u", "v"))
        den = sum(report.labeled_peak(l).intensity for l in ("s", "t"))
        expected = math.tan(0.06 + math.atan(0.18)) ** 2
        assert abs(num / den - expected) < 1e-9
        assert abs(math.sqrt(num / den) - 0.24) < 4e-3   # the reference 0.24

    def test_contamination_fills_at_opposite_dominant_frequencies(self):
        sys_ = default_spin_system()
        r_u = assign_peak_labels(
            synthesize(sys_, run_unbraided_pipeline(ExperimentConfig()).final),
            "unbraided")
        r_b = assign_peak_labels(
            synthesize(sys_, run_braided_pipeline(ExperimentConfig()).final),
            "braided")
        assert r_u.labeled_peak("p").frequency_hz == \
            pytest.approx(r_b.labeled_peak("s").frequency_hz, abs=1e-12)
        assert r_b.labeled_peak("u").frequency_hz == \
            pytest.approx(r_u.labeled_peak("i").frequency_hz, abs=1e-12)

    def test_labels_follow_the_readout_table(self):
        sys_ = default_spin_system()
        finals = {"unbraided": run_unbraided_pipeline(ExperimentConfig()).final,
                  "braided": run_braided_pipeline(ExperimentConfig()).final}
        assert set(READOUT) == set(finals)
        for role, readout in READOUT.items():
            report = assign_peak_labels(synthesize(sys_, finals[role]), role)
            assert {(p.label, p.state) for p in report.peaks if p.label} == \
                set(readout.dominant + readout.contamination)
            for label, _ in readout.contamination:
                # the ideal runs leave the contamination pair to the fill-in
                assert report.labeled_peak(label).intensity == 0.0
                assert report.labeled_peak(label).amplitude == 0j

    def test_bad_role(self):
        report = synthesize_thermal(default_spin_system())
        with pytest.raises(ValueError, match="role"):
            assign_peak_labels(report, "sideways")


# sqrt(1e-9) squares to the threshold itself; its neighbours square just below
# and just above it
_ROOT = math.sqrt(INTENSITY_THRESHOLD)
EDGE_MAGNITUDES = (math.nextafter(_ROOT, 0.0), _ROOT, math.nextafter(_ROOT, 1.0))
READOUT_STATES = sorted({bits for r in READOUT.values()
                         for _, bits in r.dominant + r.contamination})
READOUT_AMPLITUDE = st.one_of(
    st.just(0j),
    st.builds(lambda m, phase: m * phase, st.sampled_from(EDGE_MAGNITUDES),
              st.sampled_from([1, -1, 1j, -1j])),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))


def _outcome(compute):
    """A ratio's float.hex, or the text of the ValueError it raised."""
    try:
        return compute().hex()
    except ValueError as err:
        return f"ValueError: {err}"


class TestReadoutPeaks:
    """``readout_peaks`` reads a role's labeled peaks without building a spectrum."""

    def test_edge_magnitudes_straddle_the_threshold(self):
        below, at, above = (abs(complex(m)) ** 2 for m in EDGE_MAGNITUDES)
        assert below < INTENSITY_THRESHOLD == at < above

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.fixed_dictionaries({bits: READOUT_AMPLITUDE for bits in READOUT_STATES}),
           st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           st.sampled_from(sorted(READOUT)))
    @example(0, {bits: 0.5 for bits in READOUT_STATES}, 1.0, "braided")
    @example(0, {**{bits: 0.5 for bits in READOUT_STATES}, "111111": 0j}, 0.5, "braided")
    @example(0, {**{bits: 0.5 for bits in READOUT_STATES}, "000000": _ROOT}, 1.0,
             "unbraided")
    def test_ratio_matches_the_labeled_spectrum(self, seed, readout, damping, role):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        amps /= np.linalg.norm(amps)
        for bits, amp in readout.items():
            amps[int(bits, 2)] = amp
        state = StateVector(6, amps)
        sys_ = default_spin_system()
        want = _outcome(lambda: _pair_ratio(
            assign_peak_labels(synthesize(sys_, state, damping), role), role))
        assert _outcome(lambda: _readout_ratio(state, damping, role)) == want
        if want.startswith("ValueError"):
            return
        # and the peaks themselves: the labeled ones, in READOUT order
        labeled = assign_peak_labels(synthesize(sys_, state, damping), role)
        dominant, contamination = readout_peaks(state, damping, role)
        for pairs, peaks in ((dominant, READOUT[role].dominant),
                             (contamination, READOUT[role].contamination)):
            assert pairs == [(labeled.labeled_peak(label).intensity,
                              labeled.labeled_peak(label).amplitude) for label, _ in peaks]

    def test_missing_dominant_state_named_in_readout_order(self):
        amps = np.zeros(64, dtype=complex)
        amps[int("001000", 2)] = 1.0      # t present, s absent
        with pytest.raises(ValueError, match=r"^braided spectrum: missing expected peak "
                                             r"'s' \(state 111111\)$"):
            readout_peaks(StateVector(6, amps), 1.0, "braided")
        with pytest.raises(ValueError, match=r"^unbraided spectrum: missing expected peak "
                                             r"'i' \(state 110111\)$"):
            readout_peaks(StateVector(6, amps), 1.0, "unbraided")

    def test_absent_contamination_reads_zero(self):
        state = run_unbraided_pipeline(ExperimentConfig()).final
        dominant, contamination = readout_peaks(state, 0.5, "unbraided")
        assert contamination == [(0.0, 0j), (0.0, 0j)]
        assert [i for i, _ in dominant] == [0.5 * abs(state.amps[int(b, 2)]) ** 2
                                            for b in ("110111", "000000")]

    def test_bad_role_state_or_damping_refused(self):
        state = run_unbraided_pipeline(ExperimentConfig()).final
        with pytest.raises(ValueError, match="role must be one of"):
            readout_peaks(state, 1.0, "sideways")
        with pytest.raises(ValueError, match="state has 2 qubits"):
            readout_peaks(StateVector.basis("00"), 1.0, "braided")
        sys_ = default_spin_system()
        # the dampings a config refuses (TestConfig's, NaN, and 1e-320, where a
        # kept intensity is subnormal) are refused with the config's message
        for bad in (1.5, 0.0, -0.1, 1e-300, 5e-324, 1e-320, math.nan):
            with pytest.raises(ValueError) as refused:
                ExperimentConfig(damping=bad)
            message = f"^{re.escape(str(refused.value))}$"
            with pytest.raises(ValueError, match=message):
                readout_peaks(state, bad, "unbraided")
            with pytest.raises(ValueError, match=message):
                synthesize(sys_, state, bad)
        # unchecked, the spectra at damping 1e-320 gave eta = 0.0586889 for 0.06
        cfg = ExperimentConfig(eta_inject=0.06, admix_beta=0.18)
        with pytest.raises(ValueError, match=r"^damping must be in \[DAMPING_FLOOR = "):
            extract_phase(*(assign_peak_labels(synthesize(sys_, run(cfg).final, 1e-320), role)
                            for run, role in ((run_braided_pipeline, "braided"),
                                              (run_unbraided_pipeline, "unbraided"))))


class TestLineshape:
    def test_fwhm_within_one_percent(self):
        t2 = 0.15
        sys_ = small_system(t2_s=t2)
        report = synthesize(sys_, StateVector.basis("01"))
        assert len(report.peaks) == 1
        peak = report.peaks[0]
        freqs, values = sample_lineshape(report, points=80001)
        half = values.max() / 2
        above = freqs[values >= half]
        fwhm = above.max() - above.min()
        expected = 1 / (math.pi * t2)
        # the grid spans ten linewidths either side of the outermost peaks
        assert freqs[0] == pytest.approx(peak.frequency_hz - 10 * expected)
        assert freqs[-1] == pytest.approx(peak.frequency_hz + 10 * expected)
        assert abs(fwhm - expected) / expected < 0.01
        assert values.max() == pytest.approx(peak.intensity, rel=1e-6)

    def test_points_capped(self):
        report = synthesize(small_system(t2_s=0.1), StateVector.basis("01"))
        assert len(sample_lineshape(report, points=LINESHAPE_LIMIT)[0]) == LINESHAPE_LIMIT
        # 10^12 points would ask numpy for 8 TB
        for points in (LINESHAPE_LIMIT + 1, 10 ** 12, 0):
            with pytest.raises(ValueError, match=f"got {points}"):
                sample_lineshape(report, points=points)

    def test_requires_linewidth(self):
        report = synthesize(small_system(), StateVector.basis("01"))
        with pytest.raises(ValueError, match="t2"):
            sample_lineshape(report)


class TestSerialization:
    def test_csv_columns(self):
        report = synthesize(small_system(t2_s=0.1), StateVector.basis("01"))
        lines = spectrum_to_csv(report).strip().splitlines()
        assert lines[0] == "freq_hz,intensity,state,linewidth_hz,label"
        assert len(lines) == 2

    def test_report_dict_is_json_ready(self):
        sys_ = default_spin_system()
        report = assign_peak_labels(
            synthesize(sys_, run_unbraided_pipeline(ExperimentConfig()).final),
            "unbraided")
        blob = json.dumps(report.as_dict())
        parsed = json.loads(blob)
        assert parsed["metadata"]["role"] == "unbraided"
        assert any(p["label"] == "i" for p in parsed["peaks"])

    def test_lineshape_csv(self):
        report = synthesize(small_system(t2_s=0.1), StateVector.basis("01"))
        freqs, values = sample_lineshape(report, points=11)
        lines = lineshape_to_csv(freqs, values).strip().splitlines()
        assert lines[0] == "freq_hz,absorption"
        assert len(lines) == 12
