"""Exact state-vector engine for the Clifford gate set used here.

Ordering convention: qubit 1 is the most significant bit of the basis
index, so the ket label ``|110111>`` reads left to right as qubits
1..6.  Gates never renormalize; global phases are part of the state and
are kept exactly (the phase-gate definition sqrt(sigma_z) = diag(1, i)
follows from e^{i pi/4} e^{-i pi/4 sigma_z}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import DEFAULT_DENSE_LIMIT, PauliString

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

SINGLE_QUBIT_GATES = frozenset(GATE_MATRICES) | {"phase"}
TWO_QUBIT_GATES = frozenset({"cz", "swap"})
_INVERSE = {"x": "x", "z": "z", "h": "h", "s": "sdg", "sdg": "s",
            "cz": "cz", "swap": "swap", "phase": "phase"}

DUMP_THRESHOLD = 1e-9


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n qubits (targets are 1-based)."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            _validate_gate(self.n, g.kind, g.targets, g.angle)

    def inverse(self) -> Circuit:
        inv = []
        for g in reversed(self.gates):
            angle = -g.angle if g.kind == "phase" else None
            inv.append(Gate(_INVERSE[g.kind], g.targets, angle))
        return Circuit(self.n, tuple(inv))

    def __add__(self, other: Circuit) -> Circuit:
        if self.n != other.n:
            raise ValueError("circuit size mismatch")
        return Circuit(self.n, self.gates + other.gates)


def _validate_gate(n: int, kind: str, targets: tuple[int, ...], angle=None):
    if kind in SINGLE_QUBIT_GATES:
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
    if (angle is not None) != (kind == "phase"):
        raise ValueError(f"angle given for gate {kind!r}" if angle is not None
                         else "phase gate requires an angle")


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes over n qubits (qubit 1 = MSB)."""

    n: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {self.amps.shape}")

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

    def amplitude(self, bits: str) -> complex:
        return complex(self.amps[int(bits, 2)])


def _index_mask(mask: int, n: int) -> int:
    """Translate a qubit mask (bit q-1 = qubit q) into basis-index bits."""
    out = 0
    for q in range(1, n + 1):
        if mask & (1 << (q - 1)):
            out |= 1 << (n - q)
    return out


def apply_gate(state: StateVector, kind: str, targets: tuple[int, ...] | int,
               angle: float | None = None) -> StateVector:
    """Apply one gate, returning a new StateVector."""
    if isinstance(targets, int):
        targets = (targets,)
    n = state.n
    _validate_gate(n, kind, targets, angle)
    t = state.amps.reshape([2] * n)
    if kind in GATE_MATRICES or kind == "phase":
        mat = GATE_MATRICES[kind] if kind != "phase" else \
            np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)
        ax = targets[0] - 1
        t = np.moveaxis(np.moveaxis(t, ax, -1) @ mat.T, -1, ax)
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
        state = apply_gate(state, g.kind, g.targets, g.angle)
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


def dump_amplitudes(state: StateVector,
                    threshold: float = DUMP_THRESHOLD) -> list[tuple[str, float, float]]:
    """(bitstring, re, im) rows for amplitudes above threshold, sorted."""
    rows = []
    for i, a in enumerate(state.amps):
        if abs(a) > threshold:
            rows.append((format(i, f"0{state.n}b"), float(a.real), float(a.imag)))
    return rows


def format_dump(rows: list[tuple[str, float, float]]) -> str:
    return "\n".join(f"{bits} {re:+.12e} {im:+.12e}" for bits, re, im in rows)


def state_from_dump(rows: list) -> StateVector:
    """Rebuild a StateVector from dump rows ([bits, re, im], ...)."""
    if not rows:
        raise ValueError("empty state dump")
    n = len(rows[0][0])
    for i, (bits, _, _) in enumerate(rows):
        if len(bits) != n:
            raise ValueError(f"dump row {i} has {len(bits)} bits, row 0 has {n}")
    return StateVector.from_amplitudes(
        n, {bits: complex(re, im) for bits, re, im in rows})


__all__ = [
    "Circuit", "Gate", "StateVector", "apply_gate", "apply_pauli",
    "dump_amplitudes", "expect_pauli", "format_dump", "overlap", "run",
    "state_from_dump", "DEFAULT_DENSE_LIMIT", "DUMP_THRESHOLD",
]
