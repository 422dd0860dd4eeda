"""Golden reports that pin the bulk writers on long inputs.

The two toric reports hold 512 and 2048 syndrome rows of one shape, so they
pin the report writer's row template on long uniform lists.  The torus:9
ground has 162 qubits: its tableau half spans three 64-row words with 34 rows
in the last, so it pins the Pauli renderer on a partial last word, and its
``--describe`` text renders every generator from its masks.  The torus:16
ground is the benchmark's headline ground report (512 rows, eight words per
half).  The torus:64 ground (8192 rows, 128 words per half, a 2.8 MB report)
pins the packed-row codec at its widest rows: the int columns written into
words, the sweep plan's sign plane and the stabilizer rows read out of them.
The torus:32 ground is pinned in ``tests/test_golden_tableau.py``.
"""

import hashlib

import pytest

from anyonlab import cli
from anyonlab.report import OUT_DIR_ENV

EXPECTED = {
    "toric --k 16 --errors rand:20 --seed 3":
        "76d62ea59abcab19e0bbfea3ff07c3a4813821f20799f5c184a75eca8e6ec29b",
    "toric --k 32 --errors rand:40 --seed 3":
        "280e8ceec7fd3645e1e569fb4340c8f65d097a7bf8c4a4970fc4f914f8b7aa56",
    "ground --model torus:9 --backend tableau --logical 11 --describe":
        "85cfabf0ed88f591634a2775f71f3a6da14370ce5a891bbd2adfdcdb7e372305",
    "ground --model torus:16 --backend tableau --logical 10":
        "0bb1354c0cac16e189007502168981e9f8c1591e3686355fd6274f4e3688a77c",
    "ground --model torus:64 --backend tableau --logical 01":
        "e25fb1f8b419e7533c05ea7c67b7836f02451c166acf2ffe579a56e1bdf64c03",
}


@pytest.mark.parametrize("argv", sorted(EXPECTED))
def test_bulk_report(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code = cli.main([*argv.split(), "--out", "report.json"])
    assert (code, capsys.readouterr().err) == (0, "")
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == EXPECTED[argv]
