"""Golden reports that pin the bulk writers on long inputs.

The two toric reports hold 512 and 2048 syndrome rows of one shape, so they
pin the report writer's row template on long uniform lists.  The torus:9
ground has 162 qubits: its tableau half spans three 64-row words with 34 rows
in the last, so it pins the Pauli renderer on a partial last word, and its
``--describe`` text renders every generator from its masks.
"""

import hashlib

import pytest

from anyonlab import cli
from anyonlab.report import OUT_DIR_ENV

EXPECTED = {
    "toric --k 16 --errors rand:20 --seed 3":
        "d1f8f839ea9a4e20568a24729154878a498d34c0fc7f206fb6d015ad9edf2be1",
    "toric --k 32 --errors rand:40 --seed 3":
        "893433b852ce280b493e8c4f1c591af9963e13564676c8beb6b2780660490121",
    "ground --model torus:9 --backend tableau --logical 11 --describe":
        "85cfabf0ed88f591634a2775f71f3a6da14370ce5a891bbd2adfdcdb7e372305",
}


@pytest.mark.parametrize("argv", sorted(EXPECTED))
def test_bulk_report(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code = cli.main([*argv.split(), "--out", "report.json"])
    assert (code, capsys.readouterr().err) == (0, "")
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == EXPECTED[argv]
