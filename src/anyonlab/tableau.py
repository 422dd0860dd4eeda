"""Clifford-only stabilizer tableau for syndrome dynamics at scale.

Destabilizer/stabilizer tableau (Aaronson & Gottesman 2004) stored by
columns and bit-packed (Gidney 2021).  ``XZ`` is one uint64 bit matrix
of shape (words, 2n): word w, bit b of column q-1 holds the x bit on
qubit q of the row at position 64*w + b, and column n+q-1 its z bit.
Destabilizer i sits at position i and stabilizer i at 64*ceil(n/64) + i.
Rows commute pairwise except destabilizer i with stabilizer i, so every
row and every product of two commuting rows is Hermitian: a row's sign is
one bit, set when the row carries -1, and no i-exponent is stored (CHP's
one phase bit per row).  The signs are one more column, the (words,)
plane ``signs`` in the layout of ``XZ[:, q]``, and so is every row set.
A row anticommutes with p when its bits on p's dual mask, ``p.z_mask |
p.x_mask << n`` (x on p's z support, z on its x support), have odd
parity: that plane is one ``XZ`` gather and one XOR, a Pauli error is
``signs ^=`` that plane, H, S and CNOT are column operations that XOR
their sign terms into ``signs``, and a measurement multiplies every row
that anticommutes with the measured Pauli by the pivot at once.
Python-int masks (Pauli supports, the rows that ``_base`` walks, the
toric elimination's columns) become words and back only through
``pauli._pack`` and ``pauli._unpack``.  One reader, ``_stabilizer_word``,
reads a 64-row word of the stabilizer half as packed x and z rows (one
bulk transpose each) and sign bits: ``stabilizer_text`` hands every word
to ``pauli.render`` (no ``PauliString``), and ``_stabilizer_masks``
unpacks every word per sweep plan build, but in a deterministic
``measure`` only the words that hold a row of its product.

The tableau does not track global phase: the braiding-phase physics
lives in the dense engine.  This backend serves large-lattice syndrome
studies; it holds stabilizer code only and never builds a dense state,
so a dense state built on its own (``dense.run``,
``lattice.toric_ground_state``) is an independent check of its rows.

A deterministic outcome is a GF(2) function of the stabilizer signs: p
is the product of the stabilizer rows whose destabilizers anticommute
with it (its ``_anticommuting`` plane, ``sel``), and its outcome bit is
the parity of those rows' signs XOR the sign bit that the product's
mask algebra adds XOR p's own sign (``base``).  ``sel`` and ``base``
depend on the columns only, so a sweep plan keeps them for every
generator of the model it last swept, packed as a (half, generators)
uint64 matrix in the word layout of ``XZ``; a warm sweep is then
one matrix-vector product over GF(2): an AND-XOR fold over the nonzero
words of the stabilizer sign plane and one popcount parity per
generator.  Pauli gates and errors only flip signs, so they keep the
plan; any other gate or a collapse drops it.  A sweep on a different
model object, or with no plan, builds one, a chunk of generators at a time:
the chunk's anticommuting planes (one ``XZ`` gather) give its ``sel``
columns (their destabilizer halves) and, through one ``_unpack``, its
``base`` bits.  The ``toric`` command uses no tableau: its syndromes come
from the error's Pauli frame (``lattice.error_syndrome``).

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

# columns per ``_write_columns`` pack, and Paulis per chunk of
# ``Tableau._anticommuting_planes`` (one ``_unpack`` each in a plan build):
# bounds their temporaries (at n = 2048, 32 KB of words per chunk, plus 128 KB
# of gathered ``XZ`` columns for dual masks of weight 4)
_CHUNK = 64


def _word_packed(col: np.ndarray) -> np.ndarray:
    """The 64 rows of one word of one half of ``XZ`` (``XZ[w, :n]``, the x
    bits, or ``XZ[w, n:]``, the z bits) as a (64, ceil(n/8)) uint8 matrix,
    each row packed little-endian (qubit q at bit q-1).  One bulk transpose
    of the word's (n, 64) bit matrix."""
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
        self.XZ = np.zeros((2 * self._half, 2 * n), dtype="<u8")
        q = np.arange(n)
        bits = np.uint64(1) << (q % 64).astype(np.uint64)
        self.XZ[q // 64, q] = bits                      # destabilizer i = X_{i+1}
        self.XZ[self._half + q // 64, n + q] = bits     # stabilizer i = Z_{i+1}
        self.signs = np.zeros(2 * self._half, "<u8")    # bit r: row r carries -1
        # the last swept model's plan; dropped wherever columns change
        self._plan: _Plan | None = None

    # -- row helpers ---------------------------------------------------

    def _anticommuting(self, p: PauliString) -> np.ndarray:
        """Plane of the rows that anticommute with p: each row's parity on the
        ``XZ`` columns of p's dual mask."""
        return np.bitwise_xor.reduce(self.XZ[:, _ones(p.z_mask | p.x_mask << self.n)], axis=1)

    def _anticommuting_planes(self, paulis):
        """Yield ``_anticommuting`` of every p in ``paulis``, in order: one
        (len(chunk), 2 * half) ``<u8`` array of planes per ``_CHUNK`` Paulis.

        Per chunk, one gather of the ``XZ`` columns on every dual mask, folded
        by one ``bitwise_xor.reduceat``; the identity, with no columns, is left
        out of the gather.  Only one chunk of planes is held at a time, so the
        columns must not change while the caller iterates."""
        for start in range(0, len(paulis), _CHUNK):
            part = paulis[start:start + _CHUNK]
            planes = np.zeros((len(part), len(self.XZ)), "<u8")
            supports = [_ones(p.z_mask | p.x_mask << self.n) for p in part]
            live = [i for i, s in enumerate(supports) if s]     # the identity gathers nothing
            offsets = np.cumsum([0] + [len(supports[i]) for i in live])[:-1]
            gathered = self.XZ[:, [q for i in live for q in supports[i]]]
            planes[live] = np.bitwise_xor.reduceat(gathered, offsets, axis=1).T
            del gathered                    # not held while the planes are yielded
            yield planes

    def _rowmult(self, rows: np.ndarray, pivot: int):
        """row r := row r * row ``pivot`` with sign tracking, for every position r
        in the plane ``rows``.

        Every row in ``rows`` must commute with the pivot, so each product
        is Hermitian and its sign is one bit."""
        w, b = divmod(pivot, 64)
        pxz, ps = (cols[w] >> np.uint64(b) & 1 for cols in (self.XZ, self.signs))
        sup = np.flatnonzero(pxz[:self.n] | pxz[self.n:])
        cols = np.concatenate([sup, self.n + sup])      # the pivot's x, then z columns
        m = rows[:, None]
        xz, ac = self.XZ[:, cols], -pxz[cols]
        flips = _product_sign(*np.split(xz & m, 2, axis=1), *np.split(ac, 2))
        self.signs ^= flips ^ rows if ps else flips
        self.XZ[:, cols] = xz ^ m & ac

    def _stabilizer_word(self, w: int):
        """Stabilizer rows 64w.. as one word, cut at row n, as ``pauli.render``
        takes it: the packed x and z rows (``_word_packed``) and each row's
        phase exponent (2 for a -1 sign)."""
        count = min(64, self.n - 64 * w)
        w += self._half
        signs = np.unpackbits(self.signs[w:w + 1].view(np.uint8), bitorder="little")
        x, z = (_word_packed(half)[:count] for half in np.split(self.XZ[w], 2))
        return x, z, (2 * signs[:count]).tolist()

    def _stabilizer_masks(self, words) -> tuple[list[int], list[int]]:
        """The x and z masks of stabilizer rows 0..n-1, read from the stabilizer
        words ``words`` only (``_stabilizer_word``): a row of another word reads 0."""
        xs, zs = [0] * self.n, [0] * self.n
        for w in words:
            x, z, _ = self._stabilizer_word(w)
            xs[64 * w:64 * w + len(x)] = _unpack(x)
            zs[64 * w:64 * w + len(z)] = _unpack(z)
        return xs, zs

    def stabilizer_paulis(self) -> list[PauliString]:
        return [PauliString(self.n, x, z, e)
                for xw, zw, es in map(self._stabilizer_word, range(self._half))
                for x, z, e in zip(_unpack(xw), _unpack(zw), es)]

    def stabilizer_text(self) -> list[str]:
        """``str`` of every stabilizer row, rendered straight from the columns:
        one ``pauli.render`` call fed one ``_stabilizer_word`` at a time."""
        return render(map(self._stabilizer_word, range(self._half)), self.n)

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
        x, z = self.XZ[:, q - 1], self.XZ[:, self.n + q - 1]
        self.signs ^= x & z
        x[:], z[:] = z, x.copy()

    def _s(self, q: int):
        x, z = self.XZ[:, q - 1], self.XZ[:, self.n + q - 1]
        self.signs ^= x & z
        z ^= x

    def _cnot(self, c: int, t: int):
        xc, zc = self.XZ[:, c - 1], self.XZ[:, self.n + c - 1]
        xt, zt = self.XZ[:, t - 1], self.XZ[:, self.n + t - 1]
        self.signs ^= xc & zt & ~(xt ^ zc)
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
        sel = _unpack(rows[None])[0]      # the one-row read: _base walks it
        stabs = sel >> self._stab
        if not stabs:
            product = rows[:self._half]     # the product's stabilizer rows
            odd = (self._base(p, sel, *self._stabilizer_masks(np.flatnonzero(product)))
                   ^ np.bitwise_count(self.signs[self._half:] & product).sum() & 1)
            outcome = -1 if odd else 1
            if force not in (None, outcome):
                raise ValueError(f"cannot force {force:+d} on {p}: "
                                 f"its outcome is deterministic, {outcome:+d}")
            return outcome, True

        if force is None:
            raise ValueError(f"the outcome of {p} is random on this tableau: "
                             f"pass force=+1 or -1")
        d = (stabs & -stabs).bit_length() - 1     # first anticommuting stabilizer
        w, b = divmod(d, 64)
        bit = np.uint64(1 << b)
        # stabilizer d anticommutes with no row but destabilizer d, which is
        # overwritten below
        rows[[w, w + self._half]] &= ~bit
        self._rowmult(rows, self._stab + d)
        # the sign plane is one more column, with p's sign bit as its mask
        for cols, mask in ((self.XZ, p.x_mask | p.z_mask << self.n),
                           (self.signs[:, None], p.phase_exp >> 1 ^ (force == -1))):
            row = cols[w + self._half]
            cols[w] = cols[w] & ~bit | row & bit        # destabilizer d := pivot
            row &= ~bit                                 # pivot := p
            row[_ones(mask)] |= bit
        self._plan = None
        return force, False

    def _base(self, p: PauliString, rows: int, xs: list[int], zs: list[int]) -> int:
        """Outcome bit of a Hermitian p in the stabilizer group up to sign when
        every stabilizer sign is +1.  ``rows`` is p's ``_anticommuting`` plane as
        an int, and ``xs``, ``zs`` the stabilizer masks, read at least from its
        words (``_stabilizer_masks``).  The stabilizers at the indices of ``rows``
        multiply to +/-p: the bit is the sign their product's mask algebra adds
        XOR p's own sign bit."""
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
    """A tableau's sweep plan for one model: column g of ``sel`` is the
    destabilizer half of generator g's ``_anticommuting`` plane (its stabilizer
    rows), and ``base[g]`` its ``Tableau._base`` bit."""
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
    _write_columns(t.XZ[:, n:], cols)
    del cols
    if pivots:
        ds = np.array([d for d, _ in pivots])
        bits = np.uint64(1) << (ds % 64).astype(np.uint64)
        t.XZ[ds // 64, ds] &= ~bits         # destabilizer d := the old pivot, no X part
        supports = [_ones(x) for _, x in pivots]
        weights = [len(s) for s in supports]
        # stabilizer d := av; two pivots of one word may share a qubit, hence .at
        np.bitwise_or.at(t.XZ, (np.repeat(t._half + ds // 64, weights),
                                [q for s in supports for q in s]),
                         np.repeat(bits, weights))
    for xstr in flips:
        t.apply_pauli(xstr)
    return t


def _write_columns(out: np.ndarray, cols: list[int]):
    """Write Python-int position masks into the (words, n) column array ``out``,
    ``_CHUNK`` columns at a time (column j of ``out`` is ``cols[j]``'s plane)."""
    for start in range(0, len(cols), _CHUNK):
        part = cols[start:start + _CHUNK]
        out[:, start:start + len(part)] = _pack(part, 8 * len(out)).view("<u8").T


def _build_plan(t: Tableau, model: LatticeModel) -> _Plan:
    """Every generator's stabilizer rows and base bit, naming a generator that
    is not deterministic.  Each chunk of ``Tableau._anticommuting_planes`` goes
    straight into its ``sel`` columns (its destabilizer half) and through one
    ``_unpack`` for ``_base``; the stabilizer masks are read once for all."""
    xs, zs = t._stabilizer_masks(range(t._half))
    gens, ids = model.generators, model.generator_ids
    sel, base = np.empty((t._half, len(gens)), "<u8"), np.empty(len(gens), np.uint8)
    start = 0
    for planes in t._anticommuting_planes(gens):
        sel[:, start:start + len(planes)] = planes[:, :t._half].T
        for i, rows in enumerate(_unpack(planes), start):
            try:
                base[i] = t._base(gens[i], rows, xs, zs)
            except ValueError as err:
                raise ValueError(f"generator {ids[i]}: {err}") from None
        start += len(planes)
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
    s = t.signs[t._half:]
    acc = np.zeros(len(plan.base), "<u8")
    for w in np.flatnonzero(s):
        acc ^= plan.sel[w] & s[w]
    odd = np.bitwise_count(acc) & 1 ^ plan.base
    return list(zip(model.generator_ids, _OUTCOME[odd].tolist()))
