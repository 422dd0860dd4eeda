"""CLI smoke and contract tests (subprocess, golden-style determinism)."""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from anyonlab import anyon, cli, report, spectrum
from anyonlab.report import OUT_DIR_ENV, round_sig
from anyonlab.spectrum import READOUT, default_spin_system

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env(**extra):
    """The test environment plus ``extra``, with the absolute ``src`` first on
    PYTHONPATH: children run in a temporary directory, where a relative
    entry would not find the package."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *(p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)])
    return env


TWO_SPINS = {"observed": "O", "partners": ["a", "b"], "j_hz": {"a": 100.0, "b": 6.0},
             "offset_hz": 0.0, "t2_s": None, "placeholder": []}
DEFAULT_SPINS = default_spin_system().as_dict()


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "anyonlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())


class TestGround:
    def test_planar6_dense(self, tmp_path):
        start = time.perf_counter()
        res = run_cli(["ground", "--model", "planar6", "--backend", "dense",
                       "--out", "g.json"], tmp_path)
        elapsed = time.perf_counter() - start
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "g.json").read_text())
        amps = {bits: (re, im) for bits, re, im in data["amplitudes"]}
        assert set(amps) == {"000000", "111000", "110111", "001111"}
        for re, im in amps.values():
            assert abs(re - 0.5) < 1e-12 and abs(im) < 1e-12
        assert all(row["value"] == 1 for row in data["syndrome"])
        assert elapsed < 5.0  # subprocess includes interpreter startup

    def test_torus2_tableau(self, tmp_path):
        res = run_cli(["ground", "--model", "torus:2", "--backend", "tableau",
                       "--out", "t.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "t.json").read_text())
        assert len(data["tableau_rows"]) == 8
        assert len(data["syndrome"]) == 8
        assert all(row["value"] == 1 for row in data["syndrome"])

    def test_torus4_dense_refused_with_hint(self, tmp_path):
        res = run_cli(["ground", "--model", "torus:4", "--backend", "dense",
                       "--out", "x.json"], tmp_path)
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert "tableau" in err["error"]
        assert "32" in err["error"]

    @pytest.mark.parametrize("backend", ["dense", "tableau"])
    def test_planar6_refuses_logical(self, backend, tmp_path, monkeypatch, capsys):
        """planar6 has no logical sector: only the default 00 is accepted."""
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        argv = ["ground", "--model", "planar6", "--backend", backend, "--out", "g.json"]
        for bits in ("01", "10", "11"):
            assert cli.main([*argv, "--logical", bits]) == 1
            error = json.loads(capsys.readouterr().err)["error"]
            assert error.startswith(f"--logical {bits}: planar6")
        assert not list(tmp_path.iterdir())
        assert cli.main([*argv, "--logical", "00"]) == 0

    @pytest.mark.parametrize("model", ["torus:4", "planar6"])
    def test_seed_changes_no_report(self, model, tmp_path, monkeypatch):
        # every outcome of the ground preparation is deterministic or forced
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        reports = []
        for seed in ("0", "5"):
            assert cli.main(["ground", "--model", model, "--backend", "tableau",
                             "--seed", seed, "--out", f"g{seed}.json"]) == 0
            reports.append((tmp_path / f"g{seed}.json").read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_model(self, tmp_path):
        for model in ("cube:3", "torus:x", "torus:", "torus:-2"):
            res = run_cli(["ground", "--model", model], tmp_path)
            assert res.returncode == 1
            assert json.loads(res.stderr) == {
                "error": f"unknown model {model!r}; use planar6 or torus:K"}


class TestBraidDemo:
    def test_ideal_run(self, tmp_path):
        res = run_cli(["braid-demo", "--out", "demo.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "demo.json").read_text())
        assert data["phase"]["eta"] == 0.0
        assert abs(data["phase"]["delta"] - math.pi) < 1e-12
        fid = data["ideal_fidelities"]
        assert abs(fid["unbraided_fidelity"] - 1.0) < 1e-10
        assert abs(fid["braided_fidelity"] - 1.0) < 1e-10
        assert abs(fid["braided_relative_phase"] - math.pi / 2) < 1e-10

    def test_reference_numbers(self, tmp_path):
        res = run_cli(["braid-demo", "--eta", "0.06", "--admix", "0.18",
                       "--out", "noisy.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "noisy.json").read_text())
        assert abs(data["phase"]["eta"] - 0.06) < 1e-9
        assert abs(data["phase"]["beta_over_alpha"] - 0.18) < 1e-9
        assert abs(data["phase"]["alphap_over_betap"]
                   - math.tan(0.06 + math.atan(0.18))) < 1e-9

    @pytest.mark.parametrize("argv, error", [
        (["--gamma", "0.999999999"],
         "unbraided spectrum: missing expected peak 'i' (state 110111)"),
        (["--eta", "1.57079"],      # inside the band, but cos(eta)^2 / 2 < 1e-9
         "braided spectrum: missing expected peak 's' (state 111111)"),
    ], ids=["unbraided", "braided"])
    def test_missing_peak_error_names_the_spectrum(self, argv, error, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["braid-demo", *argv, "--out", "x.json"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error}
        assert not list(tmp_path.iterdir())

    def test_no_braid_omits_phase(self, tmp_path):
        res = run_cli(["braid-demo", "--no-braid", "--out", "nb.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "nb.json").read_text())
        assert "phase" not in data and "braided" not in data
        labels = {p["label"] for p in data["unbraided"]["spectrum"]["peaks"]
                  if p["label"]}
        assert labels == {"i", "j", "p", "q"}

    def test_deterministic_reports(self, tmp_path):
        for name in ("a.json", "b.json"):
            res = run_cli(["braid-demo", "--eta", "0.1", "--admix", "0.2",
                           "--gamma", "0.3", "--seed", "7", "--out", name], tmp_path)
            assert res.returncode == 0, res.stderr
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["versions"]["anyonlab"]
        assert manifest["timestamp"]

    def test_invalid_config(self, tmp_path):
        res = run_cli(["braid-demo", "--gamma", "1.5"], tmp_path)
        assert res.returncode == 1
        assert "gamma" in json.loads(res.stderr)["error"]

    def test_eta_outside_recoverable_range(self, tmp_path):
        res = run_cli(["braid-demo", "--eta", "1.6"], tmp_path)
        assert res.returncode == 1
        assert "recoverable" in json.loads(res.stderr)["error"]
        assert not (tmp_path / "braid_demo.json").exists()

    def test_t2_overrides_spin_config(self, tmp_path):
        (tmp_path / "spins.json").write_text(json.dumps(DEFAULT_SPINS))
        res = run_cli(["braid-demo", "--spin-config", "spins.json", "--t2", "0.3",
                       "--out", "demo.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "demo.json").read_text())
        assert data["spin_system"]["t2_s"] == 0.3
        widths = [p["linewidth_hz"] for p in data["braided"]["spectrum"]["peaks"]]
        assert widths == [pytest.approx(1 / (math.pi * 0.3), rel=1e-11)] * len(widths)

    def test_non_finite_admix_rejected(self, tmp_path):
        res = run_cli(["braid-demo", "--admix", "nan", "--out", "demo.json"], tmp_path)
        assert res.returncode == 1
        assert "admix_beta" in json.loads(res.stderr)["error"]
        assert not (tmp_path / "demo.json").exists()

    def test_damping_below_the_floor_rejected(self, tmp_path, monkeypatch, capsys):
        # 1e-320 used to run on subnormal intensities and report a wrong eta
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        argv = ["braid-demo", "--eta", "0.06", "--admix", "0.18", "--damping", "1e-320"]
        assert cli.main([*argv, "--out", "demo.json"]) == 1
        assert "damping" in json.loads(capsys.readouterr().err)["error"]
        assert list(tmp_path.iterdir()) == []

    def test_admix_above_cap_rejected(self, tmp_path, monkeypatch, capsys):
        # 1e308 used to overflow in ExperimentConfig.weights(); 3e4 lost peak 'i'
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        for argv in (["braid-demo", "--eta=-0.1", "--admix", "1e308"],
                     ["braid-demo", "--eta=-0.1", "--admix", "3e4"],
                     ["sweep", "--eta-grid=-0.1", "--admix-grid=1e200"]):
            assert cli.main([*argv, "--out", "x.out"]) == 1
            assert "admix_beta must be in [0, ADMIX_LIMIT" in \
                json.loads(capsys.readouterr().err)["error"]
            assert not (tmp_path / "x.out").exists()

    def test_non_finite_spin_config_rejected(self, tmp_path):
        (tmp_path / "spins.json").write_text(
            '{"observed": "C2", "partners": [], "j_hz": {}, '
            '"t2_s": NaN, "offset_hz": Infinity}')
        res = run_cli(["braid-demo", "--spin-config", "spins.json",
                       "--out", "demo.json"], tmp_path)
        assert res.returncode == 1
        assert "offset_hz" in json.loads(res.stderr)["error"]
        assert not (tmp_path / "demo.json").exists()


class TestToric:
    def test_explicit_errors_even_defects(self, tmp_path):
        res = run_cli(["toric", "--k", "4", "--errors", "x:h:0:0,x:v:2:1,z:h:1:3",
                       "--out", "syn.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "syn.json").read_text())
        assert data["defect_counts"]["face"] % 2 == 0
        assert data["defect_counts"]["vertex"] % 2 == 0
        assert data["defect_counts"]["face"] > 0
        assert len(data["syndromes"]) == 32

    def test_random_errors_seeded(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            res = run_cli(["toric", "--k", "3", "--errors", "rand:6",
                           "--seed", "5", "--out", name], tmp_path)
            assert res.returncode == 0, res.stderr
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_bond_hit_twice_cancels(self, tmp_path):
        res = run_cli(["toric", "--k", "4", "--errors",
                       "x:h:0:0,x:h:0:0,z:v:1:2,x:v:3:3,x:v:3:3,x:v:3:3",
                       "--out", "syn.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "syn.json").read_text())
        assert len(data["errors"]) == 6
        defects = {row["generator"] for row in data["syndromes"] if row["value"] == -1}
        # Z on v(1,2) hits vertices (1,2) and (2,2); X on v(3,3) hits faces
        # (3,3) and (3,2); the doubled X on h(0,0) leaves no trace
        assert defects == {"A(1,2)", "A(2,2)", "B(3,3)", "B(3,2)"}
        assert data["defect_counts"] == {"vertex": 2, "face": 2}

    def test_bad_error_token(self, tmp_path):
        res = run_cli(["toric", "--k", "3", "--errors", "y:h:0:0"], tmp_path)
        assert res.returncode == 1
        assert "error" in json.loads(res.stderr)

    def test_malformed_tokens_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        for token in ("rand:-5", "rand:2:junk", "x:h:a:0", "rand:", "rand", "x:h:0"):
            assert cli.main(["toric", "--k", "3", "--errors", token]) == 1, token
            assert json.loads(capsys.readouterr().err) == {
                "error": f"bad error token {token!r}"}
        assert not (tmp_path / "syndromes.json").exists()

    def test_error_count_capped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        limit = cli.ERROR_LIMIT
        # the cap counts every token, and is checked before any draw
        for spec, token in ((f"rand:{limit},x:h:0:0", "x:h:0:0"),
                            ("rand:100000000", "rand:100000000")):
            assert cli.main(["toric", "--k", "4", "--errors", spec]) == 1
            error = json.loads(capsys.readouterr().err)["error"]
            assert error == f"error spec passes the cap of {limit} errors at token {token!r}"
        assert not (tmp_path / "syndromes.json").exists()


class TestSpectrumCommand:
    def test_thermal_64_rows(self, tmp_path):
        res = run_cli(["spectrum", "--thermal", "--out", "th"], tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "th.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        assert len({row["freq_hz"] for row in rows}) == 64

    def test_state_file_pipeline(self, tmp_path):
        res = run_cli(["ground", "--model", "planar6", "--out", "g.json"], tmp_path)
        assert res.returncode == 0
        amps = json.loads((tmp_path / "g.json").read_text())["amplitudes"]
        (tmp_path / "state.json").write_text(json.dumps(amps))
        res = run_cli(["spectrum", "--state", "state.json", "--t2", "0.3",
                       "--lineshape", "101", "--out", "sp"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "sp.json").read_text())
        assert len(data["peaks"]) == 4
        assert (tmp_path / "sp.lineshape.csv").exists()

    def test_spin_config_override(self, tmp_path):
        config = {"observed": "O", "partners": ["a", "b"],
                  "j_hz": {"a": 100.0, "b": 6.0}, "offset_hz": 0.0,
                  "t2_s": None, "placeholder": []}
        (tmp_path / "spins.json").write_text(json.dumps(config))
        (tmp_path / "state.json").write_text(json.dumps([["10", 1.0, 0.0]]))
        res = run_cli(["spectrum", "--state", "state.json",
                       "--spin-config", "spins.json", "--out", "sp"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "sp.json").read_text())
        assert data["peaks"][0]["frequency_hz"] == 47.0

    def test_needs_state_or_thermal(self, tmp_path, monkeypatch, capsys):
        # exactly one: --thermal used to ignore --state, even a missing file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "state.json").write_text(json.dumps([["10", 1.0, 0.0]]))
        for extra in ([], ["--thermal", "--state", "nope.json"],
                      ["--thermal", "--state", "state.json"]):
            assert cli.main(["spectrum", *extra, "--out", "sp"]) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "spectrum needs exactly one of --state FILE and --thermal"}
            assert not list(tmp_path.glob("sp*"))

    def test_missing_input_file_names_the_option(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv, option in ((["spectrum", "--state", "nope.json"], "--state"),
                             (["spectrum", "--thermal", "--spin-config", "nope.json"],
                              "--spin-config"),
                             (["braid-demo", "--spin-config", "nope.json"], "--spin-config")):
            assert cli.main([*argv, "--out", "out"]) == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": f"cannot read {option} nope.json: No such file or directory"}
            assert not list(tmp_path.iterdir())

    def test_t2_overrides_spin_config(self, tmp_path):
        (tmp_path / "spins.json").write_text(json.dumps(TWO_SPINS))
        (tmp_path / "state.json").write_text(json.dumps([["10", 1.0, 0.0]]))
        res = run_cli(["spectrum", "--state", "state.json", "--spin-config",
                       "spins.json", "--t2", "0.3", "--lineshape", "11",
                       "--out", "sp"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "sp.json").read_text())
        assert data["metadata"]["t2_s"] == 0.3
        assert data["peaks"][0]["linewidth_hz"] == pytest.approx(1 / (math.pi * 0.3),
                                                                rel=1e-11)
        lines = (tmp_path / "sp.lineshape.csv").read_text().splitlines()
        assert len(lines) == 12

    def test_non_finite_spin_config_rejected(self, tmp_path):
        for field, value in (("t2_s", math.nan), ("offset_hz", math.inf)):
            # json.dumps writes the bare NaN / Infinity tokens json.load accepts
            (tmp_path / "spins.json").write_text(json.dumps({**TWO_SPINS, field: value}))
            res = run_cli(["spectrum", "--thermal", "--spin-config", "spins.json",
                           "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert field in json.loads(res.stderr)["error"]
            assert not (tmp_path / "sp.json").exists()

    def test_spin_config_is_a_directory(self, tmp_path):
        res = run_cli(["spectrum", "--thermal", "--spin-config", ".", "--out", "sp"],
                      tmp_path)
        assert res.returncode == 1
        assert "directory" in json.loads(res.stderr)["error"]

    def test_spin_config_missing_key(self, tmp_path):
        missing = {k: v for k, v in TWO_SPINS.items() if k != "observed"}
        names = [f"p{i}" for i in range(13)]
        thirteen = {**TWO_SPINS, "partners": names, "j_hz": dict.fromkeys(names, 1.0)}
        for config, key in ((missing, "observed"),
                            ({**TWO_SPINS, "j_hz": [1]}, "j_hz"),
                            ({**TWO_SPINS, "partners": "ab"}, "partners"),
                            ({**TWO_SPINS, "placeholder": "a"}, "placeholder"),
                            ({**TWO_SPINS, "placeholder": ["typo"]},
                             "placeholder names non-partner(s) ['typo']"),
                            (thirteen, "1..12 partners, got 13"),
                            # misspelt keys: refused, not read as their defaults
                            ({"observed": "C2", "partners": ["a", "b"],
                              "j_hz": {"a": 10, "b": 4}, "t2": 0.3, "ofset_hz": 5},
                             "--spin-config spins.json has unknown key(s) ['ofset_hz', 't2']")):
            (tmp_path / "spins.json").write_text(json.dumps(config))
            res = run_cli(["spectrum", "--thermal", "--spin-config", "spins.json",
                           "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert key in json.loads(res.stderr)["error"]
            assert not (tmp_path / "sp.json").exists()
        # a file that is not JSON: the error names the file
        (tmp_path / "spins.json").write_text('{"observed": "O", "partners": [')
        for path in ("spins.json", "/dev/null"):
            res = run_cli(["spectrum", "--thermal", "--spin-config", path,
                           "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert json.loads(res.stderr)["error"].startswith(
                f"--spin-config {path} is not valid JSON: Expecting value")
            assert not (tmp_path / "sp.json").exists()

    def test_state_not_a_list_of_rows(self, tmp_path):
        for rows, message in (({"a": 1}, "list of [bits, re, im] rows"),
                              ([[10, 1.0, 0.0]], "dump row 0 is not"),
                              ([["000000", 1.0]], "dump row 0 is not"),
                              # an integer past any double: no OverflowError traceback
                              ([["0", 10 ** 400, 0]], "dump row 0 is not"),
                              ([["0", 1.0, 0], ["1", 0, -10 ** 400]], "dump row 1 is not")):
            (tmp_path / "state.json").write_text(json.dumps(rows))
            res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert message in json.loads(res.stderr)["error"]
            assert not (tmp_path / "sp.json").exists()
        # a truncated file: the error names the option and the file
        (tmp_path / "state.json").write_text('[["000000", 1.0, ')
        res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"].startswith(
            "--state state.json is not valid JSON: Expecting value")
        assert not (tmp_path / "sp.json").exists()

    def test_deeply_nested_json_is_a_json_error(self, tmp_path):
        # 100 000 open brackets: json.load raises RecursionError, which must not
        # escape as a traceback
        (tmp_path / "deep.json").write_text("[" * 100_000)
        for args in (["--state", "deep.json"], ["--thermal", "--spin-config", "deep.json"]):
            res = run_cli(["spectrum", *args, "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert json.loads(res.stderr)["error"].startswith(
                f"{args[-2]} deep.json is not valid JSON: ")
            assert not (tmp_path / "sp.json").exists()

    def test_j_above_the_cap_rejected(self, tmp_path):
        # three partners at 1.7e308 summed to -inf; 1e300 overflowed the lineshape
        huge = {**TWO_SPINS, "partners": ["a", "b", "c"],
                "j_hz": dict.fromkeys("abc", 1.7e308)}
        wide = {**TWO_SPINS, "j_hz": {"a": 1e300, "b": 1.0}}
        for spins, extra, partner in ((huge, [], "a"),
                                      (wide, ["--t2", "0.3", "--lineshape", "11"], "a")):
            (tmp_path / "spins.json").write_text(json.dumps(spins))
            res = run_cli(["spectrum", "--thermal", "--spin-config", "spins.json",
                           *extra, "--out", "sp"], tmp_path)
            assert res.returncode == 1
            # one JSON line on stderr: no traceback, no RuntimeWarning
            assert json.loads(res.stderr)["error"].startswith(
                f"j_hz[{partner}] must be finite with |J| <= 1e+150 Hz")
            assert not (tmp_path / "sp.json").exists()

    def test_offset_above_the_cap_rejected(self, tmp_path):
        # at 1e300 every peak and lineshape point rounded onto the offset, exit 0
        spins = {**TWO_SPINS, "j_hz": {"a": 10.0, "b": 4.0}, "offset_hz": 1e300}
        (tmp_path / "spins.json").write_text(json.dumps(spins))
        res = run_cli(["spectrum", "--thermal", "--t2", "0.3", "--lineshape", "5",
                       "--spin-config", "spins.json", "--out", "sp"], tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"].startswith(
            "offset_hz must be finite with |offset| <= 1e+12 Hz, got 1e+300")
        assert not list(tmp_path.glob("sp.*"))

    def test_unnormalized_state_rejected(self, tmp_path):
        (tmp_path / "state.json").write_text(json.dumps([["000000", 5.0, 0.0]]))
        res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
        assert res.returncode == 1
        assert "norm 5.0" in json.loads(res.stderr)["error"]
        assert not (tmp_path / "sp.json").exists()

    def test_lineshape_size_capped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        argv = ["spectrum", "--thermal", "--t2", "0.3", "--lineshape", str(10 ** 12),
                "--out", "sp"]
        assert cli.main(argv) == 1
        assert "lineshape points" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "sp.json").exists()

    def test_extreme_t2_rejected(self, tmp_path, monkeypatch, capsys):
        # 1e-160 overflowed hwhm ** 2; 1e300 underflowed it to 0 and wrote NaN;
        # 1e-320 made braid-demo fail on an unnamed infinite float
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        for argv in (["spectrum", "--thermal", "--t2", "1e-160", "--lineshape", "11"],
                     ["spectrum", "--thermal", "--t2", "1e300", "--lineshape", "11"],
                     ["braid-demo", "--t2", "1e-320"]):
            assert cli.main([*argv, "--out", "sp"]) == 1
            assert "t2_s must be in" in json.loads(capsys.readouterr().err)["error"]
            assert not list(tmp_path.iterdir())

    def test_label_choices_are_the_readout_roles(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        for role in READOUT:
            assert cli.main(["spectrum", "--thermal", "--label", role, "--out", role]) == 0
        # a role the table lacks is refused by the parser, before any run
        monkeypatch.delitem(READOUT, "braided")
        with pytest.raises(SystemExit) as exit_:
            cli.main(["spectrum", "--thermal", "--label", "braided", "--out", "gone"])
        assert exit_.value.code == 2
        assert "invalid choice: 'braided'" in capsys.readouterr().err
        assert not (tmp_path / "gone.json").exists()

    @pytest.mark.parametrize("partners", [5, 7])
    @pytest.mark.parametrize("role", sorted(READOUT))
    def test_label_needs_six_partners(self, partners, role, tmp_path, monkeypatch, capsys):
        # the readout states have six bits; other sizes are refused by their
        # bit count, not as a missing peak
        monkeypatch.chdir(tmp_path)
        names = [f"p{i}" for i in range(partners)]
        (tmp_path / "spins.json").write_text(json.dumps(
            {**TWO_SPINS, "partners": names, "j_hz": dict.fromkeys(names, 10.0)}))
        assert cli.main(["spectrum", "--thermal", "--spin-config", "spins.json",
                         "--label", role, "--out", "sp"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"spin system has {partners} partners, {role} readout states "
                     f"have 6 bits"}
        assert not list(tmp_path.glob("sp.*"))

    def test_state_rows_of_different_lengths(self, tmp_path):
        (tmp_path / "state.json").write_text(
            json.dumps([["000000", 1.0, 0.0], ["0000001", 0.0, 0.0]]))
        res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
        assert res.returncode == 1
        assert "dump row 1" in json.loads(res.stderr)["error"]


class TestParseGrid:
    def test_range_keeps_points_short_of_stop(self):
        assert cli._parse_grid("--eta-grid", "0:1:0.6") == [0.0, 0.6]
        assert cli._parse_grid("--eta-grid", "0:1:0.35") == [0.0, 0.35, 0.7]
        assert cli._parse_grid("--eta-grid", "0:0.3:0.1") == \
            [0.0, 0.1, 0.2, 0.30000000000000004]
        assert cli._parse_grid("--eta-grid", "0.2:0.2:0.1") == [0.2]
        assert len(cli._parse_grid("--eta-grid", "-0.3:0.3:0.02")) == 31

    def test_range_rejects_empty_and_non_positive_step(self):
        for text, message in (("1:0:0.1", "empty grid"), ("0:1:0", "positive"),
                              ("0:1:-0.5", "positive")):
            with pytest.raises(ValueError, match=message):
                cli._parse_grid("--eta-grid", text)

    def test_range_above_the_cap_refused(self):
        assert len(cli._parse_grid("--eta-grid", f"1:{cli.GRID_LIMIT}:1")) == cli.GRID_LIMIT
        # 0:1:1e-10 would build 1e10 floats; 1e-320 overflows the point count
        for text in (f"0:{cli.GRID_LIMIT}:1", "0:1:1e-10", "0:1:1e-320", "-1e308:1e308:1"):
            with pytest.raises(ValueError, match=f"grid has more than the cap "
                                                 f"of {cli.GRID_LIMIT} points"):
                cli._parse_grid("--eta-grid", text)

    @pytest.mark.parametrize("option", ["--eta-grid", "--admix-grid"])
    def test_every_error_names_option_and_text(self, option):
        for text, message in (
                ("0:1", "not enough values to unpack (expected 3, got 2)"),
                ("0:1:0.1:2", "too many values to unpack (expected 3)"),
                ("a,b", "could not convert string to float: 'a'"),
                ("0:inf:0.1", "grid bounds must be finite"),
                ("0:1:0", "grid step must be positive"),
                ("0:1:1e-10", f"grid has more than the cap of {cli.GRID_LIMIT} points"),
                ("1:0:0.1", "empty grid"),
                (",", "empty grid"),
                ("nan", "grid values must be finite"),
                ("inf,0", "grid values must be finite"),
                ("1e400", "grid values must be finite")):
            with pytest.raises(ValueError) as err:
                cli._parse_grid(option, text)
            assert str(err.value) == f"{option} {text!r}: {message}"

    def test_sweep_above_the_cap_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["sweep", "--eta-grid=0:1:1e-320", "--out", "x.csv"]) == 1
        assert "cap" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_rows_capped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        # each grid is under the cap, their 1.8e11 rows are not
        argv = ["sweep", "--eta-grid=-0.3:0.3:1e-6", "--admix-grid=0:0.3:1e-6",
                "--out", "x.csv"]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"sweep of 600001 eta x 300001 admix points passes the cap of "
            f"{cli.GRID_LIMIT} rows")
        assert not (tmp_path / "x.csv").exists()
        # at the cap a sweep runs; one row past it, none does
        monkeypatch.setattr(cli, "GRID_LIMIT", 4)
        assert cli.main(["sweep", "--eta-grid", "0,0.1", "--admix-grid", "0,0.1",
                         "--out", "x.csv"]) == 0
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 5
        assert cli.main(["sweep", "--eta-grid", "0,0.1,0.2", "--admix-grid", "0,0.1",
                         "--out", "y.csv"]) == 1
        assert "cap of 4 rows" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()


class TestSweep:
    def test_recovery_grid(self, tmp_path):
        res = run_cli(["sweep", "--eta-grid=-0.1,0,0.1", "--admix-grid",
                       "0,0.18", "--out", "sweep.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["eta_recovered"]) - float(row["eta_injected"])) < 1e-9

    def test_admix_alone_cancels(self, tmp_path):
        res = run_cli(["sweep", "--eta-grid", "0", "--admix-grid", "0:0.3:0.1",
                       "--out", "c.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "c.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row["eta_recovered"])) < 1e-9
            assert abs(float(row["delta"]) - math.pi) < 1e-9

    def test_single_point(self, tmp_path):
        res = run_cli(["sweep", "--eta-grid", "0.05", "--admix-grid", "0.1",
                       "--out", "one.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "one.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_empty_grid_rejected(self, tmp_path):
        res = run_cli(["sweep", "--eta-grid", ",", "--out", "x.csv"], tmp_path)
        assert res.returncode == 1
        assert "grid" in json.loads(res.stderr)["error"]

    def test_grid_errors_name_the_option(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        for option in ("--eta-grid", "--admix-grid"):
            for text, message in (("0:1", "not enough values to unpack (expected 3, got 2)"),
                                  ("a,b", "could not convert string to float: 'a'")):
                assert cli.main(["sweep", f"{option}={text}", "--out", "x.csv"]) == 1
                assert json.loads(capsys.readouterr().err) == {
                    "error": f"{option} {text!r}: {message}"}
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("eta_grid, admix_grid, message", [
        ("0.1,2.0", "0,0.1,0.2", "to be recoverable, got 2.0"),   # past pi/2 - atan(admix)
        ("0.1", "0,0.1,20000", "admix_beta must be in [0, ADMIX_LIMIT"),
        ("0.1,nan", "0", "--eta-grid '0.1,nan': grid values must be finite"),
    ], ids=["eta-past-band", "admix-past-cap", "eta-nan"])
    def test_bad_point_refused_before_the_first_run(self, eta_grid, admix_grid, message,
                                                    tmp_path, monkeypatch, capsys):
        """A bad point anywhere in the grid exits 1 before any row runs."""
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        calls = []
        for name in ("run_experiment", "column_control", "run_column"):
            monkeypatch.setattr(anyon, name, lambda *a, name=name, **kw: calls.append(name))
        assert cli.main(["sweep", f"--eta-grid={eta_grid}", "--admix-grid", admix_grid,
                         "--out", "x.csv"]) == 1
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert calls == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, error", [
        (["--eta-grid=0.1,2.0", "--admix-grid", "0,0.1"],
         "sweep point eta=2.0, admix=0.0: eta_inject must lie in "
         "(-pi/2, pi/2 - atan(admix_beta)) = (-1.5708, 1.5708) to be recoverable, got 2.0"),
        (["--eta-grid=0,0.1", "--gamma", "1.5"],
         "--gamma 1.5: gamma_leak must be in [0, 1), got 1.5"),
    ], ids=["point", "gamma"])
    def test_bad_input_error_names_the_point_or_option(self, argv, error, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["sweep", *argv, "--out", "x.csv"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, error", [
        (["--eta-grid=0.1", "--admix-grid=0", "--gamma", "0.9999999999"],
         "sweep column admix=0.0: unbraided spectrum: missing expected peak 'i' "
         "(state 110111)"),
        # the failing row opens the second chunk of its column
        (["--eta-grid=0.1,0.2,1.57079", "--admix-grid=0"],
         "sweep point eta=1.57079, admix=0.0: braided spectrum: missing expected peak 's' "
         "(state 111111)"),
    ], ids=["column", "point"])
    def test_missing_peak_error_names_the_column_or_point(self, argv, error, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(anyon, "COLUMN_CHUNK", 2)
        assert cli.main(["sweep", *argv, "--out", "x.csv"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("eta_grid, admix_grid, chunk", [
        ("-0.1,0.05,0.2", "0.1,0,0.1", None),    # a repeated admix value
        ("0.05", "0.1,0,0.1", None),
        ("-0.1,0.05,0.2", "0.18", None),
        ("-0.2,-0.1,0,0.05,0.1,0.2,0.25", "0.1,0", 3),    # columns of 3 + 3 + 1 rows
    ], ids=["3x3", "1x3", "3x1", "7x2-chunks-of-3"])
    def test_matches_one_experiment_per_row(self, eta_grid, admix_grid, chunk, seed, gamma,
                                            tmp_path, monkeypatch):
        """The CSV is byte for byte the one built from a full ``run_experiment``
        per row; each admix column runs its control once, with no other
        control alive, and its braided halves in one column call, which
        braids each row once."""
        etas = [float(v) for v in eta_grid.split(",")]
        admixes = [float(v) for v in admix_grid.split(",")]
        sys_ = default_spin_system()
        rows = []
        for eta in etas:
            for admix in admixes:
                config = anyon.ExperimentConfig(eta_inject=eta, admix_beta=admix,
                                                gamma_leak=gamma)
                p = anyon.run_experiment(config, sys_, seed=seed)["phase"]
                rows.append([eta, admix, p.eta, p.delta, p.delta / math.pi])
        expected = report.csv_text(
            ["eta_injected", "admix", "eta_recovered", "delta", "delta_over_pi"], rows)

        controls, braided = [], []

        def column_control(*args, **kwargs):
            psi_a, rho = real_control(*args, **kwargs)
            controls.append(weakref.ref(psi_a))
            return psi_a, rho

        def run_column(configs, *args):
            assert [ref() is not None for ref in controls].count(True) == 1
            assert len({c.admix_beta for c in configs}) == 1
            columns.append(len(configs))
            for config, row in zip(configs, real_column(configs, *args)):
                braided.append(config)
                yield row

        columns = []
        real_control, real_column = anyon.column_control, anyon.run_column
        monkeypatch.setattr(anyon, "column_control", column_control)
        monkeypatch.setattr(anyon, "run_column", run_column)
        if chunk is not None:
            monkeypatch.setattr(anyon, "COLUMN_CHUNK", chunk)
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["sweep", f"--eta-grid={eta_grid}", f"--admix-grid={admix_grid}",
                         "--gamma", str(gamma), "--seed", str(seed), "--out", "s.csv"]) == 0
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()
        assert len(controls) == len(admixes)
        assert columns == [len(etas)] * len(admixes)
        assert sorted((c.admix_beta, c.eta_inject) for c in braided) == \
            sorted((admix, eta) for eta in etas for admix in admixes)

    def test_builds_no_spectrum(self, tmp_path, monkeypatch):
        """With ``synthesize``, ``assign_peak_labels`` and ``extract_phase`` patched
        to raise, the sweep still writes the CSV of one ``run_experiment`` per row."""
        rows = []
        for eta in (-0.2, 0.0, 0.15):
            for admix in (0.18, 0.0):
                config = anyon.ExperimentConfig(eta_inject=eta, admix_beta=admix,
                                                gamma_leak=0.05)
                p = anyon.run_experiment(config, default_spin_system(), seed=4)["phase"]
                rows.append([eta, admix, p.eta, p.delta, p.delta / math.pi])
        expected = report.csv_text(
            ["eta_injected", "admix", "eta_recovered", "delta", "delta_over_pi"], rows)

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a spectrum")

        for name in ("synthesize", "assign_peak_labels"):
            monkeypatch.setattr(spectrum, name, refuse)
        monkeypatch.setattr(anyon, "extract_phase", refuse)
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["sweep", "--eta-grid=-0.2,0,0.15", "--admix-grid=0.18,0",
                         "--gamma", "0.05", "--seed", "4", "--out", "s.csv"]) == 0
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

    def test_spin_config_refused(self, tmp_path, monkeypatch, capsys):
        """eta reads no peak frequency, so the sweep takes no spin table."""
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        (tmp_path / "spins.json").write_text(json.dumps(DEFAULT_SPINS))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["sweep", "--spin-config", str(tmp_path / "spins.json"),
                      "--out", "s.csv"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --spin-config" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["spins.json"]

    def test_non_finite_admix_rejected(self, tmp_path):
        for grid in ("nan,inf", "0:inf:0.1"):
            res = run_cli(["sweep", "--admix-grid", grid, "--out", "x.csv"], tmp_path)
            assert res.returncode == 1
            assert "error" in json.loads(res.stderr)
            assert not (tmp_path / "x.csv").exists()


def test_import_applies_no_gate():
    # the experiment's states and readout basis are built on first use only
    code = ("import anyonlab.cli\n"
            "from anyonlab import anyon as a\n"
            "print([f.cache_info().currsize for f in (a.planar6_ground_state, "
            "a.planar6_excited_state, a._labeled_subspace)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env(), check=True)
    assert out.stdout.strip() == "[0, 0, 0]"


@pytest.mark.parametrize("argv", [
    ["ground", "--seed", "-1"],
    ["braid-demo", "--seed", "-1"],
    ["braid-demo", "--gamma", "0.1", "--seed", "-3"],
    ["toric", "--k", "4", "--seed", "-1"],
    ["sweep", "--seed", "-1"],
])
def test_negative_seed_named(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert cli.main([*argv, "--out", "run.json"]) == 1
    seed = argv[-1]
    assert json.loads(capsys.readouterr().err) == {
        "error": f"--seed must be a non-negative integer, got {seed}"}
    assert not list(tmp_path.iterdir())


class TestOutDirEnv:
    def test_relative_paths_resolve_to_env_dir(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "outputs"
        env_args = [sys.executable, "-m", "anyonlab.cli", "ground",
                    "--model", "planar6", "--out", "env.json"]
        env = cli_env(ANYONLAB_OUT_DIR=str(out_dir))
        res = subprocess.run(env_args, capture_output=True, text=True,
                             cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        assert (out_dir / "env.json").exists()
        assert (out_dir / "env.json.manifest.json").exists()


class TestManifest:
    """The one manifest ``cli.main`` writes: argv as given, every parsed option."""

    @staticmethod
    def manifest(argv, tmp_path, monkeypatch, name):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(argv) == 0
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())

    def test_argv_is_the_list_given_to_main(self, tmp_path, monkeypatch):
        argv = ["braid-demo", "--eta", "0.06", "--seed", "3", "--out", "b.json"]
        manifest = self.manifest(argv, tmp_path, monkeypatch, "b.json")
        assert manifest["argv"] == argv
        assert manifest["command"] == "braid-demo"
        assert manifest["seed"] == 3
        assert manifest["config"]["eta"] == 0.06
        assert manifest["outputs"] == [str(tmp_path / "b.json")]

    @pytest.mark.parametrize("argv, outputs", [
        (["ground", "--out", "g.json"], ["g.json"]),
        (["braid-demo", "--out", "b.json"], ["b.json"]),
        (["toric", "--k", "8", "--errors", "rand-x:5", "--out", "t.json"], ["t.json"]),
        (["spectrum", "--thermal", "--out", "sp"], ["sp.json", "sp.csv"]),
        (["sweep", "--out", "s.csv"], ["s.csv"]),
    ])
    def test_every_command_records_wall_s(self, argv, outputs, tmp_path, monkeypatch):
        """The run's wall time is in its one sidecar: no other file is written."""
        manifest = self.manifest(argv, tmp_path, monkeypatch, outputs[0])
        wall_s = manifest["wall_s"]
        assert isinstance(wall_s, float) and math.isfinite(wall_s) and wall_s >= 0
        assert wall_s == round_sig(wall_s)    # the 12-digit report precision
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*outputs, f"{outputs[0]}.manifest.json"])

    def test_spectrum_records_t2_and_lineshape(self, tmp_path, monkeypatch):
        manifest = self.manifest(["spectrum", "--thermal", "--t2", "0.3",
                                  "--lineshape", "11", "--out", "sp"],
                                 tmp_path, monkeypatch, "sp.json")
        assert manifest["config"]["t2"] == 0.3
        assert manifest["config"]["lineshape"] == 11
        assert manifest["seed"] is None
        assert len(manifest["outputs"]) == 3


class TestRepeatedMain:
    """``main`` parses with one parser per process; each call must still
    behave like a fresh process."""

    @pytest.mark.parametrize("argv", [
        ["braid-demo", "--eta", "0.06", "--admix", "0.18", "--damping", "0.7"],
        ["toric", "--k", "8", "--errors", "rand:20", "--seed", "3"],
    ])
    def test_reruns_match_a_cold_run(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        reports = []
        for name in ("first.json", "second.json"):
            assert cli.main([*argv, "--out", name]) == 0
            reports.append((tmp_path / name).read_bytes())
        res = run_cli([*argv, "--out", "cold.json"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert reports[0] == reports[1] == (tmp_path / "cold.json").read_bytes()

    def test_refusal_then_good_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert cli.main(["braid-demo", "--out", "fresh.json"]) == 0
        with pytest.raises(SystemExit) as exit_:
            cli.main(["braid-demo", "--eta", "x", "--out", "bad.json"])
        assert exit_.value.code == 2
        assert cli.main(["braid-demo", "--out", "after.json"]) == 0
        assert ((tmp_path / "after.json").read_bytes()
                == (tmp_path / "fresh.json").read_bytes())
        assert not (tmp_path / "bad.json").exists()

    def test_option_does_not_leak_into_the_next_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        argv = ["ground", "--model", "torus:2", "--backend", "tableau"]
        assert cli.main([*argv, "--logical", "11", "--out", "g11.json"]) == 0
        assert cli.main([*argv, "--out", "g00.json"]) == 0
        config = json.loads((tmp_path / "g00.json.manifest.json").read_text())["config"]
        assert config["logical"] == [0, 0]

    def test_each_parse_is_a_fresh_namespace(self, tmp_path, monkeypatch):
        argv = ["toric", "--k", "4"]
        first, second = cli.PARSER.parse_args(argv), cli.PARSER.parse_args(argv)
        assert first is not second and vars(first) == vars(second)
        # main parses with the parser built at import, not a new one per call
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(cli, "build_parser", None)
        assert cli.main([*argv, "--out", "t.json"]) == 0


@pytest.mark.parametrize("out", ["taken/r.json", "folder"])
def test_unwritable_out_names_the_path(out, tmp_path, monkeypatch, capsys):
    """The parent is a file, or the output is a directory: exit 1, the error
    names the output path."""
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    (tmp_path / "taken").write_text("")
    (tmp_path / "folder").mkdir()
    assert cli.main(["braid-demo", "--out", out]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"cannot write {tmp_path / out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "taken"]


class TestReadme:
    def test_quick_start_lines_run(self, tmp_path, monkeypatch, capsys):
        """Every ``anyonlab`` line of README's quick start exits 0."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        quick_start = readme.split("## Quick start", 1)[1].split("```bash", 1)[1]
        lines = [line for line in quick_start.split("```", 1)[0].splitlines()
                 if line.startswith("anyonlab ")]
        assert len(lines) >= 5
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "out"))
        # the --state line reads this file: the planar6 ground state, norm 1
        (tmp_path / "state.json").write_text(json.dumps(
            [[bits, 0.5, 0.0] for bits in ("000000", "001111", "110111", "111000")]))
        for line in lines:
            assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
