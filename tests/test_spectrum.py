"""Spectrum synthesis: multiplet frequencies, intensities, labeling, lineshape."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from anyonlab.anyon import (ExperimentConfig, run_braided_pipeline,
                            run_unbraided_pipeline)
from anyonlab.dense import StateVector
from anyonlab.spectrum import (LINESHAPE_LIMIT, MEASURED_J_H1_HZ, MEASURED_J_H2_HZ,
                               READOUT, T2_RANGE_S, SpinSystem,
                               assign_peak_labels, default_spin_system,
                               lineshape_to_csv, load_spin_system,
                               peak_frequency, sample_lineshape,
                               spectrum_to_csv, synthesize, synthesize_thermal)


def small_system(**kwargs) -> SpinSystem:
    defaults = dict(observed="O", partners=("a", "b"),
                    j_hz={"a": 10.0, "b": 4.0})
    defaults.update(kwargs)
    return SpinSystem(**defaults)


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
                                ({"placeholder": "a"}, "placeholder must be a list")):
            path.write_text(json.dumps({**good, **change}))
            with pytest.raises(ValueError, match=message):
                load_spin_system(str(path))
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_spin_system(str(path))


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
        assert abs(report.total_intensity() - 0.7) < 1e-12

    def test_braiding_preserves_total_intensity(self):
        sys_ = default_spin_system()
        cfg = ExperimentConfig(eta_inject=0.11, admix_beta=0.18, gamma_leak=0.2)
        r_u = synthesize(sys_, run_unbraided_pipeline(cfg, seed=3).final, 0.8)
        r_b = synthesize(sys_, run_braided_pipeline(cfg, seed=3).final, 0.8)
        assert abs(r_u.total_intensity() - r_b.total_intensity()) < 1e-10

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
        assert abs(report.total_intensity() - 1.0) < 1e-12


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
