"""Golden CLI outputs: exit code, stderr and the sha256 of every report.

Each case runs in process through ``cli.main`` with $ANYONLAB_OUT_DIR
pointing at a fresh directory.  Manifests hold timestamps and timings,
so they are left out.  A change that keeps these hashes keeps every
report byte-identical.
"""

import hashlib
import json

import pytest

from anyonlab import cli
from anyonlab.report import OUT_DIR_ENV

# argv per case; {name} fields are input files made by ``make_inputs``
CASES = {
    "ground-planar6-dense": ["ground", "--model", "planar6", "--backend", "dense"],
    "ground-planar6-tableau": ["ground", "--model", "planar6", "--backend", "tableau"],
    "ground-torus2-tableau-00": ["ground", "--model", "torus:2", "--backend", "tableau",
                                 "--logical", "00"],
    "ground-torus2-tableau-01": ["ground", "--model", "torus:2", "--backend", "tableau",
                                 "--logical", "01"],
    "ground-torus2-tableau-10": ["ground", "--model", "torus:2", "--backend", "tableau",
                                 "--logical", "10"],
    "ground-torus2-tableau-11": ["ground", "--model", "torus:2", "--backend", "tableau",
                                 "--logical", "11"],
    "ground-torus2-dense": ["ground", "--model", "torus:2", "--backend", "dense"],
    "ground-torus4-describe": ["ground", "--model", "torus:4", "--backend", "tableau",
                               "--describe"],
    "braid-ideal": ["braid-demo"],
    "braid-noisy": ["braid-demo", "--eta", "0.06", "--admix", "0.18",
                    "--damping", "0.7"],
    "braid-gamma": ["braid-demo", "--gamma", "0.3", "--seed", "7"],
    "braid-no-braid": ["braid-demo", "--no-braid"],
    "braid-t2": ["braid-demo", "--t2", "0.3"],
    "toric-k4-repeated": ["toric", "--k", "4", "--errors",
                          "x:h:0:0,x:h:0:0,z:v:1:2,x:v:3:3,x:v:3:3,x:v:3:3"],
    "toric-k3-rand": ["toric", "--k", "3", "--errors", "rand:6", "--seed", "5"],
    "spectrum-thermal": ["spectrum", "--thermal"],
    "spectrum-psi-e": ["spectrum", "--state", "{psi_e}", "--t2", "0.3",
                       "--lineshape", "101", "--label", "braided"],
    "spectrum-two-partners": ["spectrum", "--state", "{state2}", "--spin-config",
                              "{spins2}", "--lineshape", "21"],
    "sweep-grid": ["sweep", "--eta-grid=-0.1,0,0.1", "--admix-grid", "0,0.18",
                   "--gamma", "0.05"],
    "error-unknown-model": ["ground", "--model", "cube:3"],
    "error-toric-token": ["toric", "--k", "3", "--errors", "y:h:0:0"],
    "error-gamma": ["braid-demo", "--gamma", "1.5"],
}

# recorded before the tableau, CLI and spectrum simplification
EXPECTED = {
    "braid-gamma": (0, "", {
        "braid_demo.json":
            "cf8b20de7fa89e1ff40c68b1bce8e488596968f7c9cfbe0f671cca043ee7e9ae",
    }),
    "braid-ideal": (0, "", {
        "braid_demo.json":
            "41bd8887de03d26325e4eea8c4caaf8e81ba5a23f78c88532820b83c135e2f88",
    }),
    "braid-no-braid": (0, "", {
        "braid_demo.json":
            "4847ec59523cbd06f52d6a1b8410b9113646ee139c5e3dc5735c9172aee737c0",
    }),
    "braid-noisy": (0, "", {
        "braid_demo.json":
            "68e74f469101287ee76e3e43770760f4bb44b1329a90c301ec6f6ef396b6a81d",
    }),
    "braid-t2": (0, "", {
        "braid_demo.json":
            "d4b2cdf9e860e18e0d2ef91837ac213b848ffdf72b5964ff31d65f144d465934",
    }),
    "error-gamma": (1, '{"error": "gamma_leak must be in [0, 1), got 1.5"}\n', {}),
    "error-toric-token": (1, '{"error": "bad error token \'y:h:0:0\'"}\n', {}),
    "error-unknown-model": (
        1, '{"error": "unknown model \'cube:3\'; use planar6 or torus:K"}\n', {}),
    "ground-planar6-dense": (0, "", {
        "ground.json":
            "fe035bb9c23faf7cbde7236fd854ee5df9678e54972792232872848fd683a90e",
    }),
    "ground-planar6-tableau": (0, "", {
        "ground.json":
            "32b017bbefb2c1d824ffe3e3e842d82e0350a8402ddf5544546b01f67104891a",
    }),
    "ground-torus2-dense": (0, "", {
        "ground.json":
            "d7bcf87999a043e3195cf2ac32808f0eea2e69674f270aa34237c146f9f2e45b",
    }),
    "ground-torus2-tableau-00": (0, "", {
        "ground.json":
            "057b3e11b7d4537f241c7c5c7ccbecc46b61e955d3960dba1d304d64c00ba7d7",
    }),
    "ground-torus2-tableau-01": (0, "", {
        "ground.json":
            "2232021b3719070ca0b65564674f390cb5794078d92ef24d5ba572ecebc285c6",
    }),
    "ground-torus2-tableau-10": (0, "", {
        "ground.json":
            "eadf4e7df3f94b96577eb103f86fb07215aedcb42da40696bbeb24638139ec17",
    }),
    "ground-torus2-tableau-11": (0, "", {
        "ground.json":
            "556b0d9681e3b5aa0c99cdd3f24b28be6aae747309a4814e520de723bd40f36d",
    }),
    "ground-torus4-describe": (0, "", {
        "ground.json":
            "e943eabca29442c51b8f298e7f8f082db8b1d5e4b22436b6c42d5c2a5f5443d9",
    }),
    "spectrum-psi-e": (0, "", {
        "spectrum.csv":
            "0f00178f251d7869377149ab1419cd1199c7a6d12b54aed360fe975dff37377f",
        "spectrum.json":
            "b576bae054a3f7e30b6584a3354c23c423c6e77748fa000e7fb56d7872f69aa0",
        "spectrum.lineshape.csv":
            "8c56da8891c41588f7369e55da1a24291fb75c075044aedcdd58cae0b3edc43d",
    }),
    "spectrum-thermal": (0, "", {
        "spectrum.csv":
            "e2bb4e09bf2e7c57b514d2e7aa4b93469719fb8264b15437051b09a7de7fcfa8",
        "spectrum.json":
            "b4df83aa031d80d129427303dbda56c58731431847b77b82da18a0d4d45dc446",
    }),
    "spectrum-two-partners": (0, "", {
        "spectrum.csv":
            "8f0adb3117952bf46000c64b2af8be6eed09bb2481f78cc5d6e75190140ae043",
        "spectrum.json":
            "6a58a6a7930cd16a5ac72a614b9d4ea8dd6122fe859fca4a56d7340af7ed126b",
        "spectrum.lineshape.csv":
            "01981f20b0cabfccedfa01d5b01d03cc3058a2be7918240ff468781613082145",
    }),
    "sweep-grid": (0, "", {
        "sweep.csv":
            "4c832e6a07e3af5d4e6ffd5aec663e16316e93b572239893f52dc79e03a8c4ef",
    }),
    "toric-k3-rand": (0, "", {
        "syndromes.json":
            "7a2d7579c7f7583c975fad8d6427357d21c4dc270e702f1f0ef2112ea5d96add",
    }),
    "toric-k4-repeated": (0, "", {
        "syndromes.json":
            "ee4236940a8981a3fc56e4ad5108a7b2e0a328b302f4a9bd04ba508920cd41f2",
    }),
}


def make_inputs(directory) -> dict[str, str]:
    """Input files for the cases: a braid-demo psi_e dump, a two-partner system."""
    directory.mkdir()
    demo = directory / "demo.json"
    assert cli.main(["braid-demo", "--out", str(demo)]) == 0
    psi_e = json.loads(demo.read_text())["braided"]["states"]["psi_e"]
    files = {
        "psi_e": psi_e,
        "state2": [["10", 0.6, 0.0], ["01", 0.0, 0.8]],
        "spins2": {"observed": "O", "partners": ["a", "b"],
                   "j_hz": {"a": 100.0, "b": 6.0}, "offset_hz": 3.5,
                   "t2_s": 0.2, "placeholder": ["b"]},
    }
    paths = {}
    for name, content in files.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(content))
        paths[name] = str(path)
    return paths


def output_hashes(directory) -> dict[str, str]:
    """sha256 of every output file, manifests left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if not p.name.endswith(".manifest.json")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden") / "inputs")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, inputs, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv(OUT_DIR_ENV, str(out_dir))
    capsys.readouterr()
    code = cli.main([arg.format(**inputs) for arg in CASES[case]])
    err = capsys.readouterr().err
    assert (code, err, output_hashes(out_dir)) == EXPECTED[case]
