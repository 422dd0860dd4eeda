"""CLI smoke and contract tests (subprocess, golden-style determinism)."""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from anyonlab import cli
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

    def test_needs_state_or_thermal(self, tmp_path):
        res = run_cli(["spectrum", "--out", "sp"], tmp_path)
        assert res.returncode == 1

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
                            (thirteen, "1..12 partners, got 13")):
            (tmp_path / "spins.json").write_text(json.dumps(config))
            res = run_cli(["spectrum", "--thermal", "--spin-config", "spins.json",
                           "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert key in json.loads(res.stderr)["error"]
            assert not (tmp_path / "sp.json").exists()

    def test_state_not_a_list_of_rows(self, tmp_path):
        for rows, message in (({"a": 1}, "list of [bits, re, im] rows"),
                              ([[10, 1.0, 0.0]], "dump row 0 is not"),
                              ([["000000", 1.0]], "dump row 0 is not")):
            (tmp_path / "state.json").write_text(json.dumps(rows))
            res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
            assert res.returncode == 1
            assert message in json.loads(res.stderr)["error"]
            assert not (tmp_path / "sp.json").exists()

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

    def test_state_rows_of_different_lengths(self, tmp_path):
        (tmp_path / "state.json").write_text(
            json.dumps([["000000", 1.0, 0.0], ["0000001", 0.0, 0.0]]))
        res = run_cli(["spectrum", "--state", "state.json", "--out", "sp"], tmp_path)
        assert res.returncode == 1
        assert "dump row 1" in json.loads(res.stderr)["error"]


class TestParseGrid:
    def test_range_keeps_points_short_of_stop(self):
        assert cli._parse_grid("0:1:0.6") == [0.0, 0.6]
        assert cli._parse_grid("0:1:0.35") == [0.0, 0.35, 0.7]
        assert cli._parse_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert cli._parse_grid("0.2:0.2:0.1") == [0.2]
        assert len(cli._parse_grid("-0.3:0.3:0.02")) == 31

    def test_range_rejects_empty_and_non_positive_step(self):
        for text, message in (("1:0:0.1", "empty grid"), ("0:1:0", "positive"),
                              ("0:1:-0.5", "positive")):
            with pytest.raises(ValueError, match=message):
                cli._parse_grid(text)

    def test_range_above_the_cap_refused(self):
        assert len(cli._parse_grid(f"1:{cli.GRID_LIMIT}:1")) == cli.GRID_LIMIT
        # 0:1:1e-10 would build 1e10 floats; 1e-320 overflows the point count
        for text in (f"0:{cli.GRID_LIMIT}:1", "0:1:1e-10", "0:1:1e-320", "-1e308:1e308:1"):
            with pytest.raises(ValueError, match=f"grid {text!r} has more than the cap "
                                                 f"of {cli.GRID_LIMIT} points"):
                cli._parse_grid(text)

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

    def test_sweep_records_spin_config(self, tmp_path, monkeypatch):
        (tmp_path / "spins.json").write_text(json.dumps(DEFAULT_SPINS))
        spins = str(tmp_path / "spins.json")
        manifest = self.manifest(["sweep", "--spin-config", spins, "--out", "s.csv"],
                                 tmp_path, monkeypatch, "s.csv")
        assert manifest["config"]["spin_config"] == spins

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
