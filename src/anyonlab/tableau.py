"""Clifford-only stabilizer tableau for syndrome dynamics at scale.

Standard destabilizer/stabilizer tableau: rows 0..n-1 are destabilizers,
rows n..2n-1 stabilizers, each a Pauli mask pair plus an i-exponent
(stabilizer rows stay Hermitian, exponent 0 or 2).  Row masks are plain
Python ints so conjugation and symplectic products run on machine words.

The tableau does not track global phase: the braiding-phase physics
lives in the dense engine.  This backend serves large-lattice syndrome
studies and sign-exact cross-validation of the dense engine.

Deterministic generator measurements are memoized per tableau structure,
for error studies through this API (apply an error string, sweep, undo,
sweep again): Pauli gates and error strings only flip row signs, which
the cache reads live, so every sweep after the first costs microseconds
per generator.  Any other gate or a random measurement invalidates the
cache.  The ``toric`` command does not use a tableau at all: its
syndromes come from the error's Pauli frame (``lattice.error_syndrome``).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .dense import (Circuit, StateVector, _validate_gate,
                    apply_pauli as dense_apply_pauli)
from .lattice import LatticeModel
from .pauli import DENSE_LIMIT, PauliString, mul_phase_exp


class Tableau:
    """Mutable stabilizer state on n qubits."""

    def __init__(self, n: int, seed: int | None = None):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = n
        self.xs = [0] * (2 * n)
        self.zs = [0] * (2 * n)
        self.phases = [0] * (2 * n)     # i-exponent per row
        for i in range(n):
            self.xs[i] = 1 << i         # destabilizer i = X_{i+1}
            self.zs[n + i] = 1 << i     # stabilizer i = Z_{i+1}
        self._rng = np.random.default_rng(seed)
        # deterministic-measurement memo; cleared wherever row masks change
        self._det_cache: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}

    # -- row helpers ---------------------------------------------------

    def _anticommuting_rows(self, p: PauliString) -> list[int]:
        """Indices of the rows that anticommute with p, ascending (destabilizers first)."""
        xs, zs, px, pz = self.xs, self.zs, p.x_mask, p.z_mask
        return [i for i in range(2 * self.n)
                if ((xs[i] & pz) ^ (zs[i] & px)).bit_count() & 1]

    def _rowmult(self, h: int, i: int):
        """row_h := row_h * row_i with phase tracking."""
        self.phases[h] = (self.phases[h] + self.phases[i]
                          + mul_phase_exp(self.xs[h], self.zs[h],
                                          self.xs[i], self.zs[i])) % 4
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]

    def row_pauli(self, row: int) -> PauliString:
        return PauliString(self.n, self.xs[row], self.zs[row], self.phases[row])

    def stabilizer_paulis(self) -> list[PauliString]:
        return [self.row_pauli(self.n + i) for i in range(self.n)]

    # -- gates -----------------------------------------------------------

    def apply_gate(self, kind: str, targets: tuple[int, ...] | int) -> Tableau:
        """One Clifford gate, built from the CHP kernels H, S and CNOT."""
        if isinstance(targets, int):
            targets = (targets,)
        _validate_gate(self.n, kind, targets)
        a = targets[0]
        if kind == "x":
            return self.apply_pauli(PauliString.x_on(self.n, a))
        if kind == "z":
            return self.apply_pauli(PauliString.z_on(self.n, a))
        if kind == "h":
            self._h(a)
        elif kind == "s":
            self._s(a)
        elif kind == "sdg":
            self._s(a)
            self.apply_pauli(PauliString.z_on(self.n, a))
        elif kind == "cz":
            b = targets[1]
            self._h(b)
            self._cnot(a, b)
            self._h(b)
        else:   # swap
            b = targets[1]
            self._cnot(a, b)
            self._cnot(b, a)
            self._cnot(a, b)
        self._det_cache.clear()     # masks changed; sign-only gates keep it
        return self

    def _h(self, q: int):
        bit = 1 << (q - 1)
        for i in range(2 * self.n):
            x = self.xs[i] & bit
            z = self.zs[i] & bit
            if x and z:
                self.phases[i] = (self.phases[i] + 2) % 4
            if bool(x) != bool(z):
                self.xs[i] ^= bit
                self.zs[i] ^= bit

    def _s(self, q: int):
        bit = 1 << (q - 1)
        for i in range(2 * self.n):
            x = self.xs[i] & bit
            if x:
                if self.zs[i] & bit:
                    self.phases[i] = (self.phases[i] + 2) % 4
                self.zs[i] ^= bit

    def _cnot(self, c: int, t: int):
        bc = 1 << (c - 1)
        bt = 1 << (t - 1)
        for i in range(2 * self.n):
            xc = bool(self.xs[i] & bc)
            zc = bool(self.zs[i] & bc)
            xt = bool(self.xs[i] & bt)
            zt = bool(self.zs[i] & bt)
            if xc and zt and (xt == zc):
                self.phases[i] = (self.phases[i] + 2) % 4
            if xc:
                self.xs[i] ^= bt
            if zt:
                self.zs[i] ^= bc

    def apply_pauli(self, p: PauliString) -> Tableau:
        """Conjugate by a Pauli error string: pure sign flips."""
        if p.n != self.n:
            raise ValueError(f"operator is {p.n}-qubit, tableau is {self.n}-qubit")
        phases = self.phases
        for i in self._anticommuting_rows(p):
            phases[i] = (phases[i] + 2) % 4
        return self

    # -- measurement -----------------------------------------------------

    def measure(self, p: PauliString, force: int | None = None) -> tuple[int, bool]:
        """Measure a Hermitian Pauli; returns (outcome +/-1, deterministic).

        Deterministic when +/-p is in the stabilizer group: the outcome is
        read off without touching the state, and a ``force`` that contradicts
        it is refused.  Otherwise the outcome is sampled from the seeded
        generator (or pinned by ``force``, +1 or -1) and the tableau collapses.
        """
        if force not in (None, 1, -1):
            raise ValueError(f"forced outcome must be +1 or -1, got {force!r}")
        if p.n != self.n:
            raise ValueError(f"operator is {p.n}-qubit, tableau is {self.n}-qubit")
        if not p.is_hermitian:
            raise ValueError(f"cannot measure non-Hermitian operator {p}")
        rows = self._anticommuting_rows(p)
        first = bisect_left(rows, self.n)     # first anticommuting stabilizer
        if first == len(rows):
            outcome = self._deterministic_outcome(p, rows)
            if force not in (None, outcome):
                raise ValueError(f"cannot force {force:+d} on {p}: "
                                 f"its outcome is deterministic, {outcome:+d}")
            return outcome, True

        pivot = rows.pop(first)
        for j in rows:
            self._rowmult(j, pivot)
        d = pivot - self.n
        self.xs[d] = self.xs[pivot]
        self.zs[d] = self.zs[pivot]
        self.phases[d] = self.phases[pivot]
        if force is None:
            outcome = 1 if self._rng.integers(0, 2) == 0 else -1
        else:
            outcome = force
        self.xs[pivot] = p.x_mask
        self.zs[pivot] = p.z_mask
        self.phases[pivot] = (p.phase_exp + (0 if outcome == 1 else 2)) % 4
        self._det_cache.clear()
        return outcome, False

    def _deterministic_outcome(self, p: PauliString, rows: list[int] | None = None) -> int:
        """Outcome of a p in the stabilizer group up to sign; ``rows`` is
        ``_anticommuting_rows(p)`` when the caller has already scanned it.

        The memo maps p's masks to the stabilizer rows whose product is p,
        with that product's phase; the rows' signs are read live."""
        entry = self._det_cache.get((p.x_mask, p.z_mask))
        if entry is None:
            if rows is None:
                rows = self._anticommuting_rows(p)
            if rows and rows[-1] >= self.n:
                raise ValueError("operator is not deterministic on this tableau")
            sel = tuple(self.n + i for i in rows)
            ax = az = acc = 0
            for row in sel:
                acc = (acc + mul_phase_exp(ax, az, self.xs[row], self.zs[row])) % 4
                ax ^= self.xs[row]
                az ^= self.zs[row]
            if ax != p.x_mask or az != p.z_mask:
                raise AssertionError("commuting operator not in stabilizer group")
            entry = self._det_cache[(p.x_mask, p.z_mask)] = (sel, acc)
        sel, acc = entry
        diff = (acc + sum(self.phases[row] for row in sel) - p.phase_exp) % 4
        if diff not in (0, 2):
            raise AssertionError("non-Hermitian accumulation in deterministic outcome")
        return 1 if diff == 0 else -1

    # -- conversion --------------------------------------------------------

    def to_statevector(self) -> StateVector:
        """Dense +1 joint eigenvector of all stabilizer rows (deterministic)."""
        if self.n > DENSE_LIMIT:
            raise ValueError(
                f"{self.n} qubits exceeds the dense limit of {DENSE_LIMIT}")
        rows = self.stabilizer_paulis()
        for start in range(2 ** self.n):
            amps = np.zeros(2 ** self.n, dtype=complex)
            amps[start] = 1.0
            state = StateVector(self.n, amps)
            for r in rows:
                state = StateVector(
                    self.n, 0.5 * (state.amps + dense_apply_pauli(state, r).amps))
            nrm = state.norm()
            if nrm > 1e-9:
                amps = state.amps / nrm
                lead = np.argmax(np.abs(amps) > 1e-12)
                amps = amps * (abs(amps[lead]) / amps[lead])
                return StateVector(self.n, amps)
        raise AssertionError("projector annihilated every basis state")


def run(circuit: Circuit, t: Tableau) -> Tableau:
    """Apply a Clifford circuit to ``t`` in place; the tableau twin of ``dense.run``."""
    if circuit.n != t.n:
        raise ValueError(f"circuit is {circuit.n}-qubit, tableau is {t.n}-qubit")
    for g in circuit.gates:
        t.apply_gate(g.kind, g.targets)
    return t


# -- toric ground state --------------------------------------------------


def logical_z_loops(model: LatticeModel) -> tuple[PauliString, PauliString]:
    """Non-contractible Z loops: horizontal bonds of row 0, vertical of column 0."""
    k = model.torus_k
    if k is None:
        raise ValueError("logical loops are defined for torus models only")
    n = model.n_qubits
    loop_h = PauliString.z_on(n, *(model.qubit_layout[("h", 0, c)] for c in range(k)))
    loop_v = PauliString.z_on(n, *(model.qubit_layout[("v", r, 0)] for r in range(k)))
    return loop_h, loop_v


def logical_x_strings(model: LatticeModel) -> tuple[PauliString, PauliString]:
    """Dual X strings crossing each Z loop exactly once."""
    k = model.torus_k
    if k is None:
        raise ValueError("logical strings are defined for torus models only")
    n = model.n_qubits
    x1 = PauliString.x_on(n, *(model.qubit_layout[("h", r, 0)] for r in range(k)))
    x2 = PauliString.x_on(n, *(model.qubit_layout[("v", 0, c)] for c in range(k)))
    return x1, x2


def init_toric_ground(model: LatticeModel, logical_choice: tuple[int, int] = (0, 0),
                      seed: int | None = None) -> Tableau:
    """Toric ground-state tableau with the Z-loop signs set by logical_choice.

    Built by forcing every vertex operator to +1 starting from |0...0>
    (already a +1 eigenstate of all face operators and both Z loops),
    then flipping loop signs with dual X strings as requested.
    """
    if model.torus_k is None:
        raise ValueError(f"toric ground init needs a torus model, got {model.geometry}")
    if len(logical_choice) != 2 or any(b not in (0, 1) for b in logical_choice):
        raise ValueError(f"logical_choice must be two bits, got {logical_choice}")
    t = Tableau(model.n_qubits, seed=seed)
    for av in model.vertex_ops:
        t.measure(av, force=1)
    for bit, xstr in zip(logical_choice, logical_x_strings(model)):
        if bit:
            t.apply_pauli(xstr)
    return t


def syndrome_sweep(t: Tableau, model: LatticeModel) -> list[tuple[str, int]]:
    """Deterministic eigenvalue of every generator, in generator order."""
    if t.n != model.n_qubits:
        raise ValueError(f"tableau is {t.n}-qubit, model needs {model.n_qubits}")
    out = []
    for gid, g in zip(model.generator_ids, model.generators):
        try:
            out.append((gid, t._deterministic_outcome(g)))
        except ValueError as err:
            raise ValueError(f"generator {gid}: {err}") from None
    return out
