"""Exact state-vector engine for the Clifford gate set used here.

The gate set is x, z, h, s (sqrt(sigma_z)), sdg, cz and swap: Clifford
gates, each of which the tableau builds from the CHP kernels H, S and CNOT.

Ordering convention: qubit 1 is the most significant bit of the basis
index, so the ket label ``|110111>`` reads left to right as qubits
1..6.  Gates never renormalize; global phases are part of the state and
are kept exactly (the S-gate definition sqrt(sigma_z) = diag(1, i)
follows from e^{i pi/4} e^{-i pi/4 sigma_z}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import DENSE_LIMIT, PauliString

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

TWO_QUBIT_GATES = frozenset({"cz", "swap"})
_INVERSE = {"x": "x", "z": "z", "h": "h", "s": "sdg", "sdg": "s",
            "cz": "cz", "swap": "swap"}

DUMP_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n qubits (targets are 1-based)."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            _validate_gate(self.n, g.kind, g.targets)

    def inverse(self) -> Circuit:
        return Circuit(self.n, tuple(Gate(_INVERSE[g.kind], g.targets)
                                     for g in reversed(self.gates)))


def _validate_gate(n: int, kind: str, targets: tuple[int, ...]):
    """The one gate check, shared by the dense engine and the tableau."""
    if kind in GATE_MATRICES:
        if len(targets) != 1:
            raise ValueError(f"gate {kind!r} takes one target, got {targets}")
    elif kind in TWO_QUBIT_GATES:
        if len(targets) != 2 or targets[0] == targets[1]:
            raise ValueError(f"gate {kind!r} needs two distinct targets, got {targets}")
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    for q in targets:
        if not 1 <= q <= n:
            raise ValueError(f"target qubit {q} outside 1..{n}")


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes over n qubits (qubit 1 = MSB); read-only, so a
    state can be shared without copies."""

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")
        self.amps.setflags(write=False)

    @classmethod
    def zero(cls, n: int) -> StateVector:
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
        return cls(n, amps)

    @classmethod
    def basis(cls, bits: str) -> StateVector:
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    @classmethod
    def from_amplitudes(cls, n: int, terms: dict[str, complex]) -> StateVector:
        amps = np.zeros(2 ** n, dtype=complex)
        for bits, a in terms.items():
            amps[int(bits, 2)] = a
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _index_mask(mask: int, n: int) -> int:
    """Translate a qubit mask (bit q-1 = qubit q) into basis-index bits."""
    out = 0
    for q in range(1, n + 1):
        if mask & (1 << (q - 1)):
            out |= 1 << (n - q)
    return out


def apply_gate(state: StateVector, kind: str,
               targets: tuple[int, ...] | int) -> StateVector:
    """Apply one gate, returning a new StateVector."""
    if isinstance(targets, int):
        targets = (targets,)
    n = state.n
    _validate_gate(n, kind, targets)
    t = state.amps.reshape([2] * n)
    if kind in GATE_MATRICES:
        ax = targets[0] - 1
        t = np.moveaxis(np.moveaxis(t, ax, -1) @ GATE_MATRICES[kind].T, -1, ax)
    elif kind == "cz":
        t = t.copy()
        idx = [slice(None)] * n
        idx[targets[0] - 1] = 1
        idx[targets[1] - 1] = 1
        t[tuple(idx)] *= -1.0
    elif kind == "swap":
        t = np.swapaxes(t, targets[0] - 1, targets[1] - 1)
    out = StateVector(n, np.ascontiguousarray(t.reshape(-1)))
    _check_norm(out)
    return out


def _check_norm(state: StateVector, tol: float = 1e-10):
    if abs(state.norm() - 1.0) > tol:
        raise AssertionError(f"state norm drifted to {state.norm()!r}")


def run(circuit: Circuit, state: StateVector) -> StateVector:
    if circuit.n != state.n:
        raise ValueError(f"circuit is {circuit.n}-qubit, state is {state.n}-qubit")
    for g in circuit.gates:
        state = apply_gate(state, g.kind, g.targets)
    return state


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Apply a PauliString, including its unit phase."""
    if p.n != state.n:
        raise ValueError(f"operator is {p.n}-qubit, state is {state.n}-qubit")
    n = state.n
    xm = _index_mask(p.x_mask, n)
    zm = _index_mask(p.z_mask, n)
    idx = np.arange(2 ** n, dtype=np.uint64)
    # sign from Z-part acting on each source basis state
    zpar = np.bitwise_count(idx & np.uint64(zm)) & 1
    factor = p.phase * (1j) ** (p.x_mask & p.z_mask).bit_count() \
        * np.where(zpar, -1.0, 1.0)
    out = np.empty_like(state.amps)
    out[idx ^ np.uint64(xm)] = state.amps * factor
    return StateVector(n, out)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n} qubits")
    return complex(np.vdot(a.amps, b.amps))


def expect_pauli(state: StateVector, p: PauliString) -> float:
    """Real expectation <s|P|s>; meaningful for Hermitian strings."""
    return overlap(state, apply_pauli(state, p)).real


def dump_amplitudes(state: StateVector) -> list[tuple[str, float, float]]:
    """(bitstring, re, im) rows for amplitudes above DUMP_THRESHOLD, sorted."""
    rows = []
    for i, a in enumerate(state.amps):
        if abs(a) > DUMP_THRESHOLD:
            rows.append((format(i, f"0{state.n}b"), float(a.real), float(a.imag)))
    return rows


def state_from_dump(rows: list) -> StateVector:
    """Rebuild a StateVector from dump rows ([bits, re, im], ...), one row per
    bit string, of norm 1 to within 1e-9."""
    if not isinstance(rows, list) or not rows:
        raise ValueError("state dump must be a non-empty list of [bits, re, im] rows")
    seen: dict[str, int] = {}
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == 3
                and isinstance(row[0], str) and row[0] and set(row[0]) <= {"0", "1"}
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in row[1:])):
            raise ValueError(f"dump row {i} is not [bits, re, im]: {row!r}")
        if len(row[0]) > DENSE_LIMIT:
            raise ValueError(f"dump row {i} has {len(row[0])} bits, above the "
                             f"dense limit of {DENSE_LIMIT}")
        if len(row[0]) != len(rows[0][0]):
            raise ValueError(f"dump row {i} has {len(row[0])} bits, "
                             f"row 0 has {len(rows[0][0])}")
        if row[0] in seen:
            raise ValueError(f"dump rows {seen[row[0]]} and {i} repeat bits {row[0]!r}")
        seen[row[0]] = i
    state = StateVector.from_amplitudes(
        len(rows[0][0]), {bits: complex(re, im) for bits, re, im in rows})
    if abs(state.norm() - 1.0) > 1e-9:
        raise ValueError(f"state dump has norm {state.norm()!r}, not 1")
    return state


__all__ = [
    "Circuit", "Gate", "StateVector", "apply_gate", "apply_pauli",
    "dump_amplitudes", "expect_pauli", "overlap", "run",
    "state_from_dump", "DUMP_THRESHOLD",
]
