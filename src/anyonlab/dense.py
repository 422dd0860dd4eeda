"""Exact state-vector engine for the Clifford gate set used here.

The gate set is x, z, h, s (sqrt(sigma_z)), sdg, cz and swap: Clifford
gates, each of which the tableau builds from the CHP kernels H, S and CNOT.

Ordering convention: qubit 1 is the most significant bit of the basis
index, so the ket label ``|110111>`` reads left to right as qubits
1..6.  Global phases are part of the state and are kept exactly (the
S-gate definition sqrt(sigma_z) = diag(1, i) follows from
e^{i pi/4} e^{-i pi/4 sigma_z}).

One gate kernel acts on a (rows, 2^n) stack of amplitude rows.
``run_stack`` runs a circuit on a whole stack, and ``apply_gate`` and
``run`` call it on a stack of one row, so a state gives the same bits
alone or in a stack.  Gates never renormalize, so drift adds up and one
check at the end sees it: ``run_stack`` (and so ``run``) checks each
row's norm once, after the last gate; a direct ``apply_gate`` call checks
after its gate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import PauliString

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

DENSE_LIMIT = 12     # qubits; larger states and matrices are refused
DUMP_THRESHOLD = 1e-9
NORM_TOLERANCE = 1e-10    # |norm - 1| a gate may leave; gates never renormalize


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
        # each gate keeps the targets its check returns: a tuple of Python ints
        object.__setattr__(self, "gates", tuple(
            Gate(g.kind, _validate_gate(self.n, g.kind, g.targets)) for g in self.gates))

    def inverse(self) -> Circuit:
        return Circuit(self.n, tuple(Gate(_INVERSE[g.kind], g.targets)
                                     for g in reversed(self.gates)))


def _validate_gate(n: int, kind: str, targets: tuple[int, ...] | int) -> tuple[int, ...]:
    """The one gate check, shared by the dense engine and the tableau; returns
    the targets as a tuple of Python ints.  A bare target is one target, and
    each goes through ``operator.index``, so a numpy integer counts as its
    value and anything else that is not an integer is refused by name."""
    if not isinstance(targets, (tuple, list)):
        targets = (targets,)
    qubits = []
    for q in targets:
        try:
            qubits.append(operator.index(q))
        except TypeError:
            raise ValueError(f"target qubit {q!r} is not an integer") from None
    targets = tuple(qubits)
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
    return targets


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


@lru_cache(maxsize=None)
def _axis_transposes(axes: int, ax: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders moving axis ``ax`` of an ``axes``-axis tensor last and back: the
    views of ``np.moveaxis``, without its per-call argument handling."""
    fwd = tuple(a for a in range(axes) if a != ax) + (ax,)
    return fwd, tuple(range(ax)) + (axes - 1,) + tuple(range(ax, axes - 1))


def _gate_kernel(amps: np.ndarray, n: int, kind: str,
                 targets: tuple[int, ...]) -> np.ndarray:
    """The one gate kernel: a validated gate on each row of a (rows, 2^n) stack.

    In the (rows, 1, 2, ..., 2) view, axis q + 1 is qubit q.  Each row's matmul
    slices keep the strides they have for a lone state, so every amplitude sees
    the same operations in the same order whatever the number of rows; the unit
    axis keeps them two-dimensional at n = 1, where a (rows, 2) @ (2, 2) product
    would round differently.
    """
    t = amps.reshape((len(amps), 1) + (2,) * n)
    if kind in GATE_MATRICES:
        fwd, back = _axis_transposes(n + 2, targets[0] + 1)
        t = (t.transpose(fwd) @ GATE_MATRICES[kind].T).transpose(back)
    elif kind == "cz":
        t = t.copy()
        idx = [slice(None)] * (n + 2)
        idx[targets[0] + 1] = idx[targets[1] + 1] = 1
        t[tuple(idx)] *= -1.0
    else:   # swap
        t = np.swapaxes(t, targets[0] + 1, targets[1] + 1)
    return np.ascontiguousarray(t.reshape(len(amps), -1))


def apply_gate(state: StateVector, kind: str, targets: tuple[int, ...] | int) -> StateVector:
    """Apply one gate to one state, returning a new StateVector whose norm is checked."""
    targets = _validate_gate(state.n, kind, targets)
    out = StateVector(state.n, _gate_kernel(state.amps[None], state.n, kind, targets)[0])
    if abs(out.norm() - 1.0) > NORM_TOLERANCE:
        raise AssertionError(
            f"state norm drifted to {out.norm()!r} after gate {kind} on {targets}")
    return out


def run_stack(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Run ``circuit`` on each row of a (rows, 2^n) amplitude stack; a new stack.

    Each row's norm is checked once, after the last gate; the error names the
    circuit and the first row that drifted.
    """
    if amps.ndim != 2 or amps.shape[1] != 2 ** circuit.n:
        raise ValueError(f"circuit is {circuit.n}-qubit, stack has shape {amps.shape}")
    for g in circuit.gates:
        amps = _gate_kernel(amps, circuit.n, g.kind, g.targets)
    norms = np.linalg.norm(amps, axis=1)
    drifted = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOLERANCE)
    if len(drifted):
        row = int(drifted[0])
        raise AssertionError(
            f"state norm drifted to {float(norms[row])!r} after run of a "
            f"{len(circuit.gates)}-gate circuit, in row {row} of {len(amps)}")
    return amps


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Run ``circuit`` on one state: ``run_stack`` on a stack of one row."""
    if circuit.n != state.n:
        raise ValueError(f"circuit is {circuit.n}-qubit, state is {state.n}-qubit")
    return StateVector(state.n, run_stack(circuit, state.amps[None])[0])


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


def _finite_number(v) -> bool:
    """A JSON number that a finite double holds; an integer past the double range
    is not one (``math.isfinite`` raises OverflowError on it)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def state_from_dump(rows: list) -> StateVector:
    """Rebuild a StateVector from dump rows ([bits, re, im], ...), one row per
    bit string, of norm 1 to within 1e-9."""
    if not isinstance(rows, list) or not rows:
        raise ValueError("state dump must be a non-empty list of [bits, re, im] rows")
    seen: dict[str, int] = {}
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == 3
                and isinstance(row[0], str) and row[0] and set(row[0]) <= {"0", "1"}
                and all(_finite_number(v) for v in row[1:])):
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
