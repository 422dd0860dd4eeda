"""Shared pytest hooks: always-visible acceptance-criterion summary, a
test environment free of the caller's output directory, and the Pauli
oracles: a string built from a {qubit: letter} dict, the letter on one
qubit, and the dense matrix of a string."""

import numpy as np
import pytest

from anyonlab.pauli import PauliString
from anyonlab.report import OUT_DIR_ENV

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

CRITERION_RESULTS: list[str] = []


@pytest.fixture(autouse=True)
def _no_out_dir_from_the_caller(monkeypatch):
    """Relative outputs land where each test puts them, whatever $ANYONLAB_OUT_DIR
    the calling shell sets; a test that needs the variable sets it itself."""
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)


def from_ops(n: int, ops: dict[int, str], phase_exp: int = 0) -> PauliString:
    """Build from a mapping {qubit (1-based): 'X'|'Y'|'Z'|'I'}, one letter at a time."""
    x = z = 0
    for q, sym in ops.items():
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} outside 1..{n}")
        bit = 1 << (q - 1)
        if sym == "X":
            x |= bit
        elif sym == "Z":
            z |= bit
        elif sym == "Y":
            x |= bit
            z |= bit
        elif sym != "I":
            raise ValueError(f"unknown Pauli symbol {sym!r}")
    return PauliString(n, x, z, phase_exp % 4)


def symbol(p: PauliString, q: int) -> str:
    """Pauli letter of p on qubit q (1-based)."""
    return "IXZY"[(p.x_mask >> (q - 1) & 1) + 2 * (p.z_mask >> (q - 1) & 1)]


def to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of p; qubit 1 is the most significant bit."""
    mat = np.array([[p.phase]], dtype=complex)
    for q in range(1, p.n + 1):
        mat = np.kron(mat, _PAULI_MATS[symbol(p, q)])
    return mat


def pytest_terminal_summary(terminalreporter):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)
