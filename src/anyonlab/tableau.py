"""Clifford-only stabilizer tableau for syndrome dynamics at scale.

Destabilizer/stabilizer tableau (Aaronson & Gottesman 2004) stored by
columns and bit-packed (Gidney 2021).  ``X`` and ``Z`` are uint64 arrays
of shape (words, n): word w, bit b of column q-1 holds the x (or z) bit
on qubit q of the row at position 64*w + b.  Destabilizer i sits at
position i and stabilizer i at 64*ceil(n/64) + i.  Rows commute
pairwise except destabilizer i with stabilizer i, so every row and every
product of two commuting rows is Hermitian: a row's sign is one bit of
the plane ``signs`` (a Python int over the same positions), set when the
row carries -1, and no i-exponent is stored (CHP's one phase bit per
row).  The rows that anticommute with a Pauli are one XOR over its
support columns, a Pauli error is ``signs ^=`` that mask, H, S and CNOT
are column operations, and a measurement multiplies every row that
anticommutes with the measured Pauli by the pivot at once.  Python-int
masks (row sets, columns, the sign plane) become words and back only
through ``pauli._pack`` and ``pauli._unpack``.  One generator,
``_stabilizer_words``, reads the stabilizer half out of the columns one
64-row word of packed x and z rows at a time, each word one bulk transpose:
``stabilizer_text`` hands each word and its signs to ``pauli.render`` (no
``PauliString``), and ``_stabilizer_masks`` unpacks them, once per
``stabilizer_paulis``, deterministic ``measure`` or sweep plan build.

The tableau does not track global phase: the braiding-phase physics
lives in the dense engine.  This backend serves large-lattice syndrome
studies; it holds stabilizer code only and never builds a dense state,
so a dense state built on its own (``dense.run``,
``lattice.toric_ground_state``) is an independent check of its rows.

A deterministic outcome is a GF(2) function of the stabilizer signs: p
is the product of the stabilizer rows whose destabilizers anticommute
with it (its ``_anticommuting`` mask, ``sel``), and its outcome bit is
the parity of those rows' signs XOR the sign bit that the product's
mask algebra adds XOR p's own sign (``base``).  ``sel`` and ``base``
depend on the columns only, so a sweep plan keeps them for every
generator of the model it last swept, packed as a (half, generators)
uint64 matrix in the word layout of ``X``/``Z``; a warm sweep is then
one matrix-vector product over GF(2): an AND-XOR fold over the nonzero
words of the stabilizer sign plane and one popcount parity per
generator.  Pauli gates and errors only flip signs, so they keep the
plan; any other gate or a collapse drops it.  A sweep on a different
model object, or with no plan, builds one: every generator's
anticommuting mask in bulk, a chunk of generators per column gather,
then each generator's ``base`` from its rows.  The ``toric`` command
uses no tableau: its syndromes come from the error's Pauli frame
(``lattice.error_syndrome``).

The tableau holds no randomness: ``measure`` reads a deterministic
outcome, and collapses only onto an outcome the caller forces.  The toric
ground state (``init_toric_ground``) is the forced vertex measures of
|0...0> run as one elimination on Python-int Z columns, with no
``measure`` call: on those X-type operators every row stays pure X or
pure Z, so no sign and no X column needs arithmetic until the end, and
the rows are bit for bit what the forced ``measure`` calls give.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dense import Circuit, _validate_gate
from .lattice import LatticeModel, sector_x_strings
from .pauli import PauliString, _ones, _pack, _unpack, mul_phase_exp, render

# columns (or Paulis) per ``_pack`` or ``_unpack`` call: bounds the temporaries
# of ``_write_columns`` and ``Tableau._anticommuting_masks`` (at n = 2048, 32 KB
# of words per chunk, plus 128 KB of gathered columns for weight-4 Paulis)
_CHUNK = 64


def _int(words: np.ndarray) -> int:
    """A (words,) uint64 bit-plane as a Python int (word 0 lowest)."""
    return _unpack(words[None])[0]


def _word_packed(col: np.ndarray) -> np.ndarray:
    """The 64 rows of one word of a column array (one ``X[w]`` or ``Z[w]``) as a
    (64, ceil(n/8)) uint8 matrix, each row packed little-endian (qubit q at
    bit q-1).  One bulk transpose of the word's (n, 64) bit matrix."""
    n = len(col)
    bits = np.unpackbits(col.view(np.uint8).reshape(n, 8), axis=1, bitorder="little")
    return np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")


def _product_sign(x: np.ndarray, z: np.ndarray, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``mul_phase_exp(row, pivot) // 2`` of every row at once, as a (words,) bit-plane.

    x, z are (words, s): the rows' bits on the pivot's s support qubits;
    a, c are all ones where the pivot has x (z) there.  Every row must
    commute with the pivot, so the exponent is 0 or 2.  Per qubit, an X
    pivot adds +1 on Z and -1 on Y, a Z pivot +1 on Y and -1 on X, a Y
    pivot +1 on X and -1 on Z.  The sum mod 4 is (number of steps) + 2
    (number of -1 steps); the count is even, and its second bit is the
    parity of the step pairs, the XOR over j of step_j & ~prefix_j."""
    step = x & c ^ z & a                    # the factors anticommute: +1 or -1
    minus = step & (x ^ z ^ a ^ c ^ x & c)
    prefix = np.bitwise_xor.accumulate(step, axis=1)
    return np.bitwise_xor.reduce(minus ^ step & ~prefix, axis=1)


class Tableau:
    """Mutable stabilizer state on n qubits."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = n
        self._half = -(-n // 64)            # words per half
        self._stab = 64 * self._half        # position of stabilizer row 0
        self.X = np.zeros((2 * self._half, n), dtype="<u8")
        self.Z = np.zeros_like(self.X)
        q = np.arange(n)
        bits = np.uint64(1) << (q % 64).astype(np.uint64)
        self.X[q // 64, q] = bits                   # destabilizer i = X_{i+1}
        self.Z[self._half + q // 64, q] = bits      # stabilizer i = Z_{i+1}
        self.signs = 0                              # bit r: row r carries -1
        # the last swept model's plan; dropped wherever columns change
        self._plan: _Plan | None = None

    # -- row helpers ---------------------------------------------------

    def _anticommuting(self, p: PauliString) -> int:
        """Position mask of the rows that anticommute with p."""
        return _int(np.bitwise_xor.reduce(self.X[:, _ones(p.z_mask)], axis=1)
                    ^ np.bitwise_xor.reduce(self.Z[:, _ones(p.x_mask)], axis=1))

    def _anticommuting_masks(self, paulis):
        """Yield ``_anticommuting`` of every p in ``paulis``, in order, ``_CHUNK`` at a time.

        Per chunk, one gather of the X columns on every z support and one of
        the Z columns on every x support; ``bitwise_xor.reduceat`` folds
        supports of any weight, and Paulis with an empty support on a side
        are left out of that side's gather.  Only one chunk of masks is held
        at a time, so the columns must not change while the caller iterates."""
        for start in range(0, len(paulis), _CHUNK):
            part = paulis[start:start + _CHUNK]
            acc = np.zeros((len(part), len(self.X)), "<u8")
            for cols, masks in ((self.X, [p.z_mask for p in part]),
                                (self.Z, [p.x_mask for p in part])):
                live = [(i, _ones(m)) for i, m in enumerate(masks) if m]
                if not live:
                    continue
                offsets = np.cumsum([0] + [len(s) for _, s in live[:-1]])
                gathered = cols[:, [q for _, s in live for q in s]]
                acc[[i for i, _ in live]] ^= np.bitwise_xor.reduceat(gathered, offsets, axis=1).T
                del gathered                # not held while the masks are yielded
            yield from _unpack(acc)

    def _set_sign(self, pos: int, bit: int):
        self.signs = self.signs & ~(1 << pos) | bit << pos

    def _rowmult(self, rows: int, pivot: int):
        """row r := row r * row ``pivot`` with sign tracking, for every position r in ``rows``.

        Every row in ``rows`` must commute with the pivot, so each product
        is Hermitian and its sign is one bit."""
        w, b = divmod(pivot, 64)
        px, pz = (cols[w] >> np.uint64(b) & 1 for cols in (self.X, self.Z))
        sup = np.flatnonzero(px | pz)
        m = _pack([rows], 8 * len(self.X)).view("<u8").T
        x, z, a, c = self.X[:, sup], self.Z[:, sup], -px[sup], -pz[sup]
        flips = _int(_product_sign(x & m, z & m, a, c))
        self.signs ^= flips ^ rows if self.signs >> pivot & 1 else flips
        self.X[:, sup] = x ^ m & a
        self.Z[:, sup] = z ^ m & c

    def _stabilizer_words(self):
        """Yield the packed x and z rows (``_word_packed``) of the stabilizer
        half one 64-row word at a time, the last word cut at row n."""
        for w in range(self._half, 2 * self._half):
            count = min(64, self._stab + self.n - 64 * w)
            yield _word_packed(self.X[w])[:count], _word_packed(self.Z[w])[:count]

    def _stabilizer_masks(self) -> tuple[list[int], list[int]]:
        """The x and z masks of stabilizer rows 0..n-1 (``_stabilizer_words``)."""
        xs, zs = [], []
        for x, z in self._stabilizer_words():
            xs += _unpack(x)
            zs += _unpack(z)
        return xs, zs

    def stabilizer_paulis(self) -> list[PauliString]:
        signs = self.signs >> self._stab
        return [PauliString(self.n, x, z, 2 * (signs >> i & 1))
                for i, (x, z) in enumerate(zip(*self._stabilizer_masks()))]

    def stabilizer_text(self) -> list[str]:
        """``str`` of every stabilizer row, rendered straight from the columns:
        one ``pauli.render`` call fed one word of ``_stabilizer_words`` at a time."""
        signs = self.signs >> self._stab
        return render(((x, z, [2 * (signs >> (64 * w + b) & 1) for b in range(len(x))])
                       for w, (x, z) in enumerate(self._stabilizer_words())), self.n)

    # -- gates -----------------------------------------------------------

    def apply_gate(self, kind: str, targets: tuple[int, ...] | int) -> Tableau:
        """One Clifford gate, built from the CHP kernels H, S and CNOT."""
        targets = _validate_gate(self.n, kind, targets)
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
        self._plan = None           # columns changed; sign-only gates keep it
        return self

    def _h(self, q: int):
        x, z = self.X[:, q - 1], self.Z[:, q - 1]
        self.signs ^= _int(x & z)
        x[:], z[:] = z, x.copy()

    def _s(self, q: int):
        x, z = self.X[:, q - 1], self.Z[:, q - 1]
        self.signs ^= _int(x & z)
        z ^= x

    def _cnot(self, c: int, t: int):
        xc, zc = self.X[:, c - 1], self.Z[:, c - 1]
        xt, zt = self.X[:, t - 1], self.Z[:, t - 1]
        self.signs ^= _int(xc & zt & ~(xt ^ zc))
        xt ^= xc
        zc ^= zt

    def apply_pauli(self, p: PauliString) -> Tableau:
        """Conjugate by a Pauli error string: pure sign flips."""
        if p.n != self.n:
            raise ValueError(f"operator is {p.n}-qubit, tableau is {self.n}-qubit")
        self.signs ^= self._anticommuting(p)
        return self

    # -- measurement -----------------------------------------------------

    def measure(self, p: PauliString, force: int | None = None) -> tuple[int, bool]:
        """Measure a Hermitian Pauli; returns (outcome +/-1, deterministic).

        Deterministic when +/-p is in the stabilizer group: the outcome is
        read off without touching the state, and a ``force`` that contradicts
        it is refused.  Otherwise the outcome is random, and the tableau
        collapses onto ``force`` (+1 or -1); with no ``force`` it refuses p
        and leaves the state as it is, since it draws no random outcome.
        """
        if force not in (None, 1, -1):
            raise ValueError(f"forced outcome must be +1 or -1, got {force!r}")
        if p.n != self.n:
            raise ValueError(f"operator is {p.n}-qubit, tableau is {self.n}-qubit")
        if not p.is_hermitian:
            raise ValueError(f"cannot measure non-Hermitian operator {p}")
        rows = self._anticommuting(p)
        stabs = rows >> self._stab
        if not stabs:
            odd = (self._base(p, rows, *self._stabilizer_masks())
                   ^ (self.signs >> self._stab & rows).bit_count() & 1)
            outcome = -1 if odd else 1
            if force not in (None, outcome):
                raise ValueError(f"cannot force {force:+d} on {p}: "
                                 f"its outcome is deterministic, {outcome:+d}")
            return outcome, True

        if force is None:
            raise ValueError(f"the outcome of {p} is random on this tableau: "
                             f"pass force=+1 or -1")
        d = (stabs & -stabs).bit_length() - 1     # first anticommuting stabilizer
        pivot = self._stab + d
        # stabilizer d anticommutes with no row but destabilizer d, which is
        # overwritten below
        self._rowmult(rows & ~(1 << pivot | 1 << d), pivot)
        w, b = divmod(d, 64)
        bit = np.uint64(1 << b)
        for cols, mask in ((self.X, p.x_mask), (self.Z, p.z_mask)):
            row = cols[w + self._half]
            cols[w] = cols[w] & ~bit | row & bit        # destabilizer d := pivot
            row &= ~bit                                 # pivot := p
            row[_ones(mask)] |= bit
        self._set_sign(d, self.signs >> pivot & 1)
        self._set_sign(pivot, p.phase_exp >> 1 ^ (force == -1))
        self._plan = None
        return force, False

    def _base(self, p: PauliString, rows: int, xs: list[int], zs: list[int]) -> int:
        """Outcome bit of a Hermitian p in the stabilizer group up to sign when
        every stabilizer sign is +1.  ``rows`` is p's ``_anticommuting`` mask,
        and ``xs``, ``zs`` are the stabilizer masks (``_stabilizer_masks``).
        The stabilizers at the indices of ``rows`` multiply to +/-p: the bit is
        the sign their product's mask algebra adds XOR p's own sign bit."""
        if rows >> self._stab:
            raise ValueError("operator is not deterministic on this tableau")
        ax = az = acc = 0     # stabilizer i pairs with anticommuting destabilizer i
        for i in _ones(rows):
            acc = (acc + mul_phase_exp(ax, az, xs[i], zs[i])) % 4
            ax ^= xs[i]
            az ^= zs[i]
        if ax != p.x_mask or az != p.z_mask:
            raise AssertionError("commuting operator not in stabilizer group")
        if acc & 1:
            raise AssertionError("non-Hermitian accumulation in deterministic outcome")
        return acc >> 1 ^ p.phase_exp >> 1


class _Plan(NamedTuple):
    """A tableau's sweep plan for one model: column g of ``sel`` is generator
    g's ``_anticommuting`` mask (its stabilizer rows) in the word layout of
    ``X``/``Z``, and ``base[g]`` its ``Tableau._base`` bit."""
    model: LatticeModel
    sel: np.ndarray     # (half, generators) uint64
    base: np.ndarray    # (generators,) uint8


_OUTCOME = np.array([1, -1])     # outcome of an outcome bit


def run(circuit: Circuit, t: Tableau) -> Tableau:
    """Apply a Clifford circuit to ``t`` in place; the tableau twin of ``dense.run``."""
    if circuit.n != t.n:
        raise ValueError(f"circuit is {circuit.n}-qubit, tableau is {t.n}-qubit")
    for g in circuit.gates:
        t.apply_gate(g.kind, g.targets)
    return t


# -- toric ground state --------------------------------------------------


def init_toric_ground(model: LatticeModel, logical_choice: tuple[int, int] = (0, 0),
                      seed: int | None = None) -> Tableau:
    """Toric ground-state tableau with the Z-loop signs set by logical_choice.

    The state is |0...0> (already a +1 eigenstate of all face operators and
    both Z loops) with every vertex operator forced to +1, then the sector's
    dual X strings; ``lattice.toric_ground_state`` is the dense twin.

    The forced measures run as one elimination on Python-int Z columns,
    with the same pivots and the same bits as ``measure(av, force=1)``.
    Every vertex operator is X-type and every row starts as a single X or
    Z, so every row stays pure X or pure Z: the rows that anticommute with
    a vertex operator are Z-type, the pivot has no X part, and a product
    of two Z-type rows is Z-type with sign +1.  The signs stay 0 and the X
    columns change only where a pivot becomes its vertex operator (set
    once at the end).  A vertex operator that is a product of earlier ones
    (on a torus, the last vertex) has no pivot: it is a product of X-type,
    sign +1 stabilizers, so its outcome is +1 and it leaves the state as it
    is.  No ``measure`` is called; the tableau has no sweep plan until the
    first ``syndrome_sweep`` builds one.  ``seed`` is unused: no outcome is
    drawn.
    """
    flips = sector_x_strings(model, logical_choice)
    for gid, av in zip(model.vertex_ids, model.vertex_ops):
        if av.z_mask or av.phase_exp:
            raise ValueError(f"generator {gid}: the toric ground needs X-type vertex "
                             f"operators with sign +1, got {av}")
    n = model.n_qubits
    stab = 64 * -(-n // 64)                         # Tableau(n)._stab
    cols = [1 << (stab + q) for q in range(n)]      # Z column q as a position mask
    zrows = [1 << i for i in range(n)]              # stabilizer i's Z part, qubit mask
    pivots = []                                     # (d, x_mask) of every pivoting vertex
    for av in model.vertex_ops:
        rows = 0
        for q in _ones(av.x_mask):
            rows ^= cols[q]
        stabs = rows >> stab
        if not stabs:
            continue
        d = (stabs & -stabs).bit_length() - 1     # measure's pivot: lowest stabilizer
        zd = zrows[d]
        # rows * pivot, pivot -> destabilizer d, pivot := av: all on zd's columns
        moved = rows ^ 1 << d
        for q in _ones(zd):
            cols[q] ^= moved
        for j in _ones(stabs ^ 1 << d):
            zrows[j] ^= zd
        zrows[d] = 0
        pivots.append((d, av.x_mask))
    del zrows
    t = Tableau(n)                      # allocated after the loop: one copy of Z at a time
    _write_columns(t.Z, cols)
    del cols
    if pivots:
        ds = np.array([d for d, _ in pivots])
        bits = np.uint64(1) << (ds % 64).astype(np.uint64)
        t.X[ds // 64, ds] &= ~bits          # destabilizer d := the old pivot, no X part
        supports = [_ones(x) for _, x in pivots]
        weights = [len(s) for s in supports]
        # stabilizer d := av; two pivots of one word may share a qubit, hence .at
        np.bitwise_or.at(t.X, (np.repeat(t._half + ds // 64, weights),
                               [q for s in supports for q in s]),
                         np.repeat(bits, weights))
    for xstr in flips:
        t.apply_pauli(xstr)
    return t


def _write_columns(out: np.ndarray, cols: list[int]):
    """Write Python-int position masks into the (words, n) column array ``out``,
    ``_CHUNK`` columns at a time (the inverse of ``_int`` per column)."""
    for start in range(0, len(cols), _CHUNK):
        part = cols[start:start + _CHUNK]
        out[:, start:start + len(part)] = _pack(part, 8 * len(out)).view("<u8").T


def _build_plan(t: Tableau, model: LatticeModel) -> _Plan:
    """Every generator's stabilizer rows and base bit, naming a generator that
    is not deterministic.  The anticommuting masks come in bulk
    (``Tableau._anticommuting_masks``), and the stabilizer masks are read
    once for all the generators."""
    xs, zs = t._stabilizer_masks()
    gens = model.generators
    sels, base = [], np.empty(len(gens), np.uint8)
    for i, (gid, g, rows) in enumerate(zip(model.generator_ids, gens,
                                           t._anticommuting_masks(gens))):
        try:
            base[i] = t._base(g, rows, xs, zs)
        except ValueError as err:
            raise ValueError(f"generator {gid}: {err}") from None
        sels.append(rows)
    del xs, zs                  # the row masks are not held while the plan is packed
    sel = np.empty((t._half, len(gens)), "<u8")
    _write_columns(sel, sels)
    return _Plan(model, sel, base)


def syndrome_sweep(t: Tableau, model: LatticeModel) -> list[tuple[str, int]]:
    """Deterministic eigenvalue of every generator, in generator order.

    With no plan, or a plan for another model object, the tableau's plan is
    built first (``_build_plan``).  The sweep itself is the plan's GF(2)
    fold: XOR of ``sel[w] & s[w]`` over the nonzero words s[w] of the
    stabilizer sign plane, one (generators,) word vector at a time, then
    each generator's popcount parity XOR its base bit."""
    if t.n != model.n_qubits:
        raise ValueError(f"tableau is {t.n}-qubit, model needs {model.n_qubits}")
    plan = t._plan
    if plan is None or plan.model is not model:
        plan = t._plan = _build_plan(t, model)
    s = _pack([t.signs >> t._stab], 8 * t._half).view("<u8")[0]
    acc = np.zeros(len(plan.base), "<u8")
    for w in np.flatnonzero(s):
        acc ^= plan.sel[w] & s[w]
    odd = np.bitwise_count(acc) & 1 ^ plan.base
    return list(zip(model.generator_ids, _OUTCOME[odd].tolist()))
