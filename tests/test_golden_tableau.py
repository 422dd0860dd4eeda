"""Golden tableau ground reports on tori of more than one 64-row word.

``tests/test_golden.py`` pins torus:2 and torus:4, whose 8 and 32 rows fit
in one word per half of the tableau.  torus:8 (128 qubits) and torus:16
(512 qubits) span two and eight words, so these hashes pin the word-at-a-time
row read-out and the sweep's shared transposes.  torus:24 and torus:32 (1152
and 2048 qubits) pin the ground tableau at the largest size the error study
runs at.  torus:3 and torus:5 (18 and 50 qubits) pin odd k, where the
wrapped bonds of the last row and column sit at both ends of the masks.
"""

import hashlib

import pytest

from anyonlab import cli
from anyonlab.report import OUT_DIR_ENV

EXPECTED = {
    (3, "01"): "2e06365f75a71952071c72b1859003566c35cbe4717f3b1ef11d5cc4dc221276",
    (5, "10"): "b5f48594031054b69f68f71d08bd90a63e8d11fb3b59831006752cee2703b76a",
    (8, "00"): "604b4ac1e653f64ec15b4e4838ce60c4b394521f0e8ccf979e221b1679cd990c",
    (8, "11"): "518aa5484dce0e128beca1cfd5b1b3b110a7437b84d5fa5ec59c0e1aa32fc72a",
    (16, "00"): "36db5f787719584453d5dac9012a2fa673b62b6555a730bf323c0d590ad1938e",
    (16, "11"): "2aecd793cd4e5fc4accb2413a93978a72d0e595ecb444e9a33f3d3a1391b599b",
    (24, "01"): "a492929f0898ca7a3c8f88df2984290d8075b6eea89f927e77c917230ef22998",
    (32, "00"): "443b1dd23ab0de141a6e10a51ce916fdd0f5d0f031552dd7605cbfd89dae61a7",
}


@pytest.mark.parametrize("k, logical", sorted(EXPECTED))
def test_multiword_ground_report(k, logical, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code = cli.main(["ground", "--model", f"torus:{k}", "--backend", "tableau",
                     "--logical", logical])
    assert (code, capsys.readouterr().err) == (0, "")
    report = (tmp_path / "ground.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == EXPECTED[(k, logical)]
