"""Tableau backend: conjugation exactness, measurement, toric ground states."""

import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_ops, to_dense
from test_pauli import per_qubit_str

from anyonlab import tableau
from anyonlab.dense import Circuit, Gate, StateVector, expect_pauli
from anyonlab.dense import apply_pauli as apply_dense_pauli
from anyonlab.dense import run as dense_run
from anyonlab.lattice import (LatticeModel, build_planar6, build_toric,
                              ground_state_circuit, planar6_graph_spec, sector_x_strings,
                              toric_ground_state)
from anyonlab.pauli import PauliString, _pack, _unpack, mul_phase_exp
from anyonlab.tableau import Tableau, init_toric_ground, run, syndrome_sweep

GATES_1Q = ("h", "s", "sdg", "x", "z")
GATES_2Q = ("cz", "swap")


def plane_int(words: np.ndarray) -> int:
    """A (words,) uint64 plane in the layout of one column (``t.signs``, an
    ``_anticommuting`` plane, a plan column) as a Python int, bit r at position r."""
    return _unpack(words[None])[0]


def all_rows(t: Tableau) -> list[PauliString]:
    """Destabilizers 0..n-1, then stabilizers 0..n-1, read out of the columns."""
    rows, signs = [], plane_int(t.signs)
    for half in (0, t._half):
        xs, zs = ([m for w in range(half, half + t._half)
                   for m in _unpack(tableau._word_packed(cols[w]))]
                  for cols in (t.XZ[:, :t.n], t.XZ[:, t.n:]))
        rows += [PauliString(t.n, xs[i], zs[i], 2 * (signs >> (64 * half + i) & 1))
                 for i in range(t.n)]
    return rows


def random_circuit(n: int, depth: int, rng) -> Circuit:
    gates = []
    for _ in range(depth):
        if rng.random() < 0.35 and n >= 2:
            kind = GATES_2Q[rng.integers(0, 2)]
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
        else:
            kind = GATES_1Q[rng.integers(0, 5)]
            gates.append(Gate(kind, (int(rng.integers(1, n + 1)),)))
    return Circuit(n, tuple(gates))


@st.composite
def small_circuits(draw) -> Circuit:
    """Circuits on 1..4 qubits over all seven tableau gates."""
    n = draw(st.integers(1, 4))
    kinds = GATES_1Q + (GATES_2Q if n >= 2 else ())
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        if kind in GATES_2Q:
            a = draw(st.integers(1, n))
            b = draw(st.integers(1, n).filter(lambda q: q != a))
            gates.append(Gate(kind, (a, b)))
        else:
            gates.append(Gate(kind, (draw(st.integers(1, n)),)))
    return Circuit(n, tuple(gates))


def logical_z_loops(model):
    """Non-contractible Z loops: horizontal bonds of row 0, vertical of column 0."""
    k, n = model.torus_k, model.n_qubits
    return (PauliString.z_on(n, *(model.qubit_layout[("h", 0, c)] for c in range(k))),
            PauliString.z_on(n, *(model.qubit_layout[("v", r, 0)] for r in range(k))))


class RowTableau:
    """Row-major CHP reference: one (x, z, i-exponent) triple per row, no memo."""

    def __init__(self, n: int):
        self.n = n
        self.xs = [1 << i for i in range(n)] + [0] * n
        self.zs = [0] * n + [1 << i for i in range(n)]
        self.phases = [0] * (2 * n)

    def _anticommuting_rows(self, p: PauliString) -> list[int]:
        return [i for i in range(2 * self.n)
                if ((self.xs[i] & p.z_mask) ^ (self.zs[i] & p.x_mask)).bit_count() & 1]

    def _rowmult(self, h: int, i: int):
        self.phases[h] = (self.phases[h] + self.phases[i]
                          + mul_phase_exp(self.xs[h], self.zs[h], self.xs[i], self.zs[i])) % 4
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]

    def row_pauli(self, row: int) -> PauliString:
        return PauliString(self.n, self.xs[row], self.zs[row], self.phases[row])

    def _h(self, q: int):
        for i in range(2 * self.n):
            x, z = self.xs[i] >> (q - 1) & 1, self.zs[i] >> (q - 1) & 1
            self.phases[i] = (self.phases[i] + 2 * (x & z)) % 4
            self.xs[i] ^= (x ^ z) << (q - 1)
            self.zs[i] ^= (x ^ z) << (q - 1)

    def _s(self, q: int):
        for i in range(2 * self.n):
            x, z = self.xs[i] >> (q - 1) & 1, self.zs[i] >> (q - 1) & 1
            self.phases[i] = (self.phases[i] + 2 * (x & z)) % 4
            self.zs[i] ^= x << (q - 1)

    def _cnot(self, c: int, t: int):
        for i in range(2 * self.n):
            xc, zc = self.xs[i] >> (c - 1) & 1, self.zs[i] >> (c - 1) & 1
            xt, zt = self.xs[i] >> (t - 1) & 1, self.zs[i] >> (t - 1) & 1
            self.phases[i] = (self.phases[i] + 2 * (xc & zt & (1 ^ xt ^ zc))) % 4
            self.xs[i] ^= xc << (t - 1)
            self.zs[i] ^= zt << (c - 1)

    def apply_gate(self, kind: str, targets: tuple[int, ...]):
        a, b = targets[0], targets[-1]
        if kind in ("x", "z", "sdg"):     # Sdg = S Z
            self.apply_pauli(from_ops(self.n, {a: "X" if kind == "x" else "Z"}))
        if kind in ("s", "sdg"):
            self._s(a)
        elif kind == "h":
            self._h(a)
        elif kind == "cz":
            self._h(b)
            self._cnot(a, b)
            self._h(b)
        elif kind == "swap":
            self._cnot(a, b)
            self._cnot(b, a)
            self._cnot(a, b)

    def apply_pauli(self, p: PauliString):
        for i in self._anticommuting_rows(p):
            self.phases[i] = (self.phases[i] + 2) % 4

    def measure(self, p: PauliString, force: int | None = None) -> tuple[int, bool]:
        if force not in (None, 1, -1):
            raise ValueError(f"forced outcome must be +1 or -1, got {force!r}")
        if not p.is_hermitian:
            raise ValueError(f"cannot measure non-Hermitian operator {p}")
        rows = self._anticommuting_rows(p)
        stabs = [i for i in rows if i >= self.n]
        if not stabs:
            acc = PauliString.identity(self.n)
            for i in rows:
                acc = acc * self.row_pauli(self.n + i)
            outcome = 1 if acc.phase_exp == p.phase_exp else -1
            if force not in (None, outcome):
                raise ValueError(f"cannot force {force:+d} on {p}: "
                                 f"its outcome is deterministic, {outcome:+d}")
            return outcome, True
        if force is None:
            raise ValueError(f"the outcome of {p} is random on this tableau: "
                             f"pass force=+1 or -1")
        pivot = stabs[0]
        for j in rows:
            if j != pivot:
                self._rowmult(j, pivot)
        d = pivot - self.n
        self.xs[d], self.zs[d], self.phases[d] = (self.xs[pivot], self.zs[pivot],
                                                  self.phases[pivot])
        self.xs[pivot], self.zs[pivot] = p.x_mask, p.z_mask
        self.phases[pivot] = (p.phase_exp + (0 if force == 1 else 2)) % 4
        return force, False


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Columns are the circuit applied to each basis state."""
    n = circuit.n
    return np.array([dense_run(circuit, StateVector.basis(format(i, f"0{n}b"))).amps
                     for i in range(2 ** n)]).T


class TestGateConjugation:
    def test_x_twice_restores(self):
        t = Tableau(3)
        before = all_rows(t)
        t.apply_gate("x", 2).apply_gate("x", 2)
        assert all_rows(t) == before

    def test_hundred_random_circuits_match_dense_signs(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            circ = random_circuit(n, depth=int(rng.integers(10, 40)), rng=rng)
            dense = dense_run(circ, StateVector.zero(n))
            t = run(circ, Tableau(n))
            for row in t.stabilizer_paulis():
                val = expect_pauli(dense, row)
                assert abs(val - 1.0) < 1e-9, (trial, row, val)

    def test_cz_builds_graph_state_stabilizers(self):
        # |++> through CZ must be stabilized by X1 Z2 and Z1 X2
        t = Tableau(2)
        t.apply_gate("h", 1).apply_gate("h", 2).apply_gate("cz", (1, 2))
        stabs = {(p.x_mask, p.z_mask, p.phase_exp) for p in t.stabilizer_paulis()}
        want_a = from_ops(2, {1: "X", 2: "Z"})
        want_b = from_ops(2, {1: "Z", 2: "X"})
        gates = (Gate("h", (1,)), Gate("h", (2,)), Gate("cz", (1, 2)))
        dense = dense_run(Circuit(2, gates), StateVector.zero(2))
        assert abs(expect_pauli(dense, want_a) - 1.0) < 1e-12
        assert abs(expect_pauli(dense, want_b) - 1.0) < 1e-12
        assert stabs == {(want_a.x_mask, want_a.z_mask, 0),
                         (want_b.x_mask, want_b.z_mask, 0)}

    def test_rows_stay_commuting_and_independent(self):
        rng = np.random.default_rng(5)
        t = run(random_circuit(6, depth=80, rng=rng), Tableau(6))
        rows = t.stabilizer_paulis()
        for i in range(6):
            for j in range(i + 1, 6):
                assert rows[i].commutes(rows[j])
        bitrows = [(p.x_mask << 6) | p.z_mask for p in rows]
        rank = 0
        while bitrows:
            pivot = bitrows.pop()
            rank += 1
            low = pivot & -pivot
            bitrows = [r ^ pivot if r & low else r for r in bitrows if r]
            bitrows = [r for r in bitrows if r]
        assert rank == 6

    def test_unsupported_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Tableau(2).apply_gate("t", 1)
        with pytest.raises(ValueError, match="outside"):
            Tableau(2).apply_gate("x", 5)
        with pytest.raises(ValueError, match="2-qubit"):
            run(Circuit(2), Tableau(3))

    @pytest.mark.parametrize("kind, target", [("x", np.int64(3)), ("h", np.int64(3)),
                                              ("x", 3), ("cz", [np.int64(1), 3])])
    def test_bare_or_numpy_target_acts_like_a_tuple_of_ints(self, kind, target):
        want = Tableau(4).apply_gate("h", (1,)).apply_gate(kind, (1, 3) if kind == "cz" else (3,))
        got = Tableau(4).apply_gate("h", (1,)).apply_gate(kind, target)
        assert plane_int(got.signs) == plane_int(want.signs)
        assert np.array_equal(got.XZ, want.XZ)

    @pytest.mark.parametrize("kind, targets, name", [("h", (2.0,), "2.0"), ("h", 2.0, "2.0"),
                                                     ("x", ("1",), "'1'"),
                                                     ("cz", (1, None), "None")])
    def test_non_integer_target_is_named(self, kind, targets, name):
        t = Tableau(4)
        with pytest.raises(ValueError, match=rf"^target qubit {re.escape(name)} is not an "
                                             rf"integer$"):
            t.apply_gate(kind, targets)
        assert plane_int(t.signs) == 0 and np.array_equal(t.XZ, Tableau(4).XZ)

    @pytest.mark.parametrize("q", [1, 63, 64, 70, 200])
    @pytest.mark.parametrize("kind", ["x", "z", "sdg"])
    def test_numpy_integer_target_acts_like_an_int(self, kind, q):
        # after h on q the rows on q are X_q and Z_q, so each gate flips one sign
        want, got = (Tableau(200).apply_gate("h", (q,)).apply_gate(kind, (target,))
                     for target in (q, np.int64(q)))
        assert plane_int(want.signs).bit_count() == 1
        assert plane_int(got.signs) == plane_int(want.signs)
        assert np.array_equal(got.XZ, want.XZ)

    @settings(max_examples=200, deadline=None)
    @given(small_circuits())
    def test_every_row_is_the_conjugated_initial_row(self, circuit):
        # row r starts as X_r (destabilizer) or Z_r (stabilizer), phase +1,
        # and after the circuit U must read U P U^dagger exactly
        n = circuit.n
        u = dense_unitary(circuit)
        rows = all_rows(run(circuit, Tableau(n)))
        for r in range(2 * n):
            q = r % n + 1
            p0 = PauliString.x_on(n, q) if r < n else PauliString.z_on(n, q)
            want = u @ to_dense(p0) @ u.conj().T
            assert np.allclose(to_dense(rows[r]), want, atol=1e-12), r


def count_codec(monkeypatch) -> list[str]:
    """Record every ``_pack`` and ``_unpack`` call the tableau makes, by name."""
    calls = []
    for name in ("_pack", "_unpack"):
        real = getattr(tableau, name)
        monkeypatch.setattr(tableau, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


class TestCodecFreeHotPath:
    """Gates, Pauli errors, row products and warm sweeps XOR planes of words:
    none of them converts a row set or the sign plane through the codec, and a
    plan build only unpacks."""

    @pytest.mark.parametrize("kind, targets", [("h", (3,)), ("s", (3,)), ("sdg", (3,)),
                                               ("x", (3,)), ("z", (70,)), ("cz", (3, 70)),
                                               ("swap", (3, 70))])
    def test_gate(self, kind, targets, monkeypatch):
        t = Tableau(130).apply_gate("h", (3,)).apply_gate("s", (70,))
        calls = count_codec(monkeypatch)
        t.apply_gate(kind, targets)
        assert calls == []

    def test_apply_pauli(self, monkeypatch):
        t = Tableau(130).apply_gate("h", (64,))
        calls = count_codec(monkeypatch)
        t.apply_pauli(from_ops(130, {1: "Y", 64: "X", 130: "Z"}))
        assert calls == []
        # Y1 flips destabilizer and stabilizer 0, X64 destabilizer 63 (Z64), Z130
        # destabilizer 129 (X130)
        assert plane_int(t.signs).bit_count() == 4

    def test_rowmult(self, monkeypatch):
        # destabilizer 1 (X2) and 65 (X66) times stabilizer 0 (Z1)
        t = Tableau(130)
        rows = np.zeros(len(t.XZ), "<u8")
        rows[[0, 1]] = 2
        calls = count_codec(monkeypatch)
        t._rowmult(rows, t._stab)
        assert calls == []
        assert all_rows(t)[1] == from_ops(130, {1: "Z", 2: "X"})

    def test_warm_sweep(self, monkeypatch):
        model = build_toric(8)
        t = init_toric_ground(model)
        syndrome_sweep(t, model)                    # the plan build unpacks in bulk
        calls = count_codec(monkeypatch)
        t.apply_pauli(PauliString.z_on(model.n_qubits, 1, 50))
        sweep = syndrome_sweep(t, model)
        assert calls == []
        assert sum(v == -1 for _, v in sweep) == 4

    def test_plan_build_packs_nothing(self, monkeypatch):
        # torus:8 has 128 qubits (two words per half) and 128 generators (two
        # chunks): two unpacks per stabilizer word, one per chunk of planes
        model = build_toric(8)
        t = init_toric_ground(model)
        calls = count_codec(monkeypatch)
        syndrome_sweep(t, model)
        assert calls == ["_unpack"] * 6


class TestMeasurement:
    def test_z_on_zero_state_deterministic(self):
        t = Tableau(3)
        for q in range(1, 4):
            outcome, deterministic = t.measure(PauliString.z_on(3, q))
            assert outcome == 1 and deterministic

    def test_random_outcome_without_force_is_refused(self):
        # the tableau draws no outcome: it names p and leaves the state as it is
        t = Tableau(2)
        for p, name in ((PauliString.x_on(2, 1), "+X1"),
                        (from_ops(2, {1: "Y", 2: "Z"}, 2), "-Y1 Z2")):
            with pytest.raises(ValueError, match=re.escape(
                    f"the outcome of {name} is random on this tableau: "
                    "pass force=+1 or -1")):
                t.measure(p)
        assert t.stabilizer_paulis() == [PauliString.z_on(2, 1), PauliString.z_on(2, 2)]
        assert plane_int(t.signs) == 0 and t._plan is None

    def test_forced_outcome(self):
        t = Tableau(1)
        outcome, det = t.measure(PauliString.x_on(1, 1), force=-1)
        assert outcome == -1 and not det
        outcome, det = t.measure(PauliString.x_on(1, 1))
        assert outcome == -1 and det

    def test_forced_outcome_must_be_plus_or_minus_one(self):
        t = Tableau(1)
        x = PauliString.x_on(1, 1)
        for bad in (0, 2, -2):
            with pytest.raises(ValueError, match="forced outcome"):
                t.measure(x, force=bad)
        # the rejected calls left |0> untouched
        assert t.measure(PauliString.z_on(1, 1)) == (1, True)

    def test_forcing_a_deterministic_outcome_is_checked(self):
        t = Tableau(2)
        z1 = PauliString.z_on(2, 1)
        with pytest.raises(ValueError,
                           match=r"cannot force -1 on \+Z1: .*deterministic, \+1"):
            t.measure(z1, force=-1)
        assert t.measure(z1, force=1) == (1, True)
        # on the toric ground state every vertex operator is pinned to +1
        model = build_toric(3)
        t = init_toric_ground(model)
        with pytest.raises(ValueError, match="deterministic, \\+1"):
            t.measure(model.vertex_ops[0], force=-1)
        assert all(v == 1 for _, v in syndrome_sweep(t, model))

    def test_measurement_collapse_matches_dense(self):
        # measure X1 X2 on |00>, forced +1: state becomes a Bell pair
        t = Tableau(2)
        xx, zz = PauliString.x_on(2, 1, 2), PauliString.z_on(2, 1, 2)
        t.measure(xx, force=1)
        bell = dense_run(Circuit(2, (Gate("h", (1,)), Gate("h", (2,)), Gate("cz", (1, 2)),
                                     Gate("h", (2,)))), StateVector.zero(2))
        for row in t.stabilizer_paulis():
            assert abs(expect_pauli(bell, row) - 1.0) < 1e-10
        assert t.measure(xx) == (1, True)
        assert t.measure(zz) == (1, True)

    def test_non_hermitian_rejected(self):
        t = Tableau(2)
        with pytest.raises(ValueError, match="Hermitian"):
            t.measure(PauliString(2, 1, 0, 1))

    def test_vertex_op_on_toric_ground_is_plus_one(self):
        model = build_toric(2)
        t = init_toric_ground(model)
        for av in model.vertex_ops:
            outcome, det = t.measure(av)
            assert det and outcome == 1

    def test_deterministic_measure_reads_only_the_product_words(self, monkeypatch):
        # on torus:32 (32 stabilizer words) a pivoted vertex's product is its own
        # stabilizer row: measure unpacks that word's x and z rows, not all 64
        model = build_toric(32)
        t = init_toric_ground(model)
        av = model.vertex_ops[len(model.vertex_ops) // 2]
        touched = np.count_nonzero(t._anticommuting(av)[:t._half])
        calls = []
        packed = tableau._word_packed
        monkeypatch.setattr(tableau, "_word_packed",
                            lambda col: calls.append(1) or packed(col))
        assert t.measure(av) == (1, True)
        assert 0 < touched < t._half
        assert len(calls) <= 2 * touched

    def test_x_error_flips_adjacent_faces_only(self):
        model = build_toric(3)
        t = init_toric_ground(model)
        bond = ("h", 1, 1)
        q = model.qubit_layout[bond]
        t.apply_pauli(PauliString.x_on(model.n_qubits, q))
        x_err = PauliString.x_on(model.n_qubits, q)
        for gid, bf in zip(model.face_ids, model.face_ops):
            outcome, det = t.measure(bf)
            expected = -1 if not bf.commutes(x_err) else 1
            assert det and outcome == expected
        flipped = [gid for gid, bf in zip(model.face_ids, model.face_ops)
                   if not bf.commutes(x_err)]
        assert len(flipped) == 2

    def test_open_x_string_creates_endpoint_defects(self):
        # transport an m defect along a row: X on the shared vertical bonds
        k = 8
        model = build_toric(k)
        t = init_toric_ground(model)
        c1, c2, r = 1, 5, 2
        qubits = [model.qubit_layout[("v", r, c)] for c in range(c1 + 1, c2 + 1)]
        t.apply_pauli(PauliString.x_on(model.n_qubits, *qubits))
        sweep = dict(syndrome_sweep(t, model))
        defects = {gid for gid, v in sweep.items() if v == -1}
        assert defects == {f"B({r},{c1})", f"B({r},{c2})"}


SIZES = (1, 2, 63, 64, 65, 127, 128, 130)     # around the 64-bit word edges


def random_pauli(n: int, rng) -> PauliString:
    """A Hermitian Pauli on 1..5 random qubits with a random sign."""
    support = rng.choice(np.arange(1, n + 1), size=min(n, int(rng.integers(1, 6))),
                         replace=False)
    return from_ops(n, {int(q): "XYZ"[rng.integers(0, 3)] for q in support},
                    2 * int(rng.integers(0, 2)))


def outcome_or_error(measure, p, force):
    try:
        return measure(p, force)
    except ValueError as err:
        return str(err)


class TestRowOracle:
    """The column tableau against the row-major reference, row for row."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1))
    def test_same_outcomes_errors_and_rows(self, n, seed):
        rng = np.random.default_rng(seed)
        fast, ref = Tableau(n), RowTableau(n)
        kinds = GATES_1Q + (GATES_2Q if n >= 2 else ())
        seen = []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.35:
                kind = kinds[rng.integers(0, len(kinds))]
                size = 2 if kind in GATES_2Q else 1
                targets = tuple(int(q) for q in rng.choice(np.arange(1, n + 1), size=size,
                                                           replace=False))
                fast.apply_gate(kind, targets)
                ref.apply_gate(kind, targets)
            elif roll < 0.5:
                err = random_pauli(n, rng)
                fast.apply_pauli(err)
                ref.apply_pauli(err)
            else:
                if roll < 0.7:
                    p = random_pauli(n, rng)
                elif roll < 0.85 or not seen:     # a product of stabilizers: deterministic
                    p = PauliString.identity(n)
                    for i in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                        replace=False):
                        p = p * ref.row_pauli(n + int(i))
                    p = PauliString(n, p.x_mask, p.z_mask, (p.phase_exp + 2 * (roll < 0.8)) % 4)
                else:                             # again, after errors and gates
                    p = seen[rng.integers(0, len(seen))]
                if rng.random() < 0.05:
                    p = PauliString(n, p.x_mask, p.z_mask, 1)
                seen.append(p)
                force = (None, None, 1, -1, 2)[rng.integers(0, 5)]
                if force is None and any(i >= n for i in ref._anticommuting_rows(p)):
                    force = (1, -1)[rng.integers(0, 2)]     # random: the test draws it
                assert (outcome_or_error(fast.measure, p, force)
                        == outcome_or_error(ref.measure, p, force)), (p, force)
            # the one-sign-bit tableau rests on this: every row, destabilizers
            # included, stays Hermitian
            assert all(e in (0, 2) for e in ref.phases), ref.phases
        assert all_rows(fast) == [ref.row_pauli(r) for r in range(2 * n)]
        assert fast.stabilizer_paulis() == [ref.row_pauli(n + i) for i in range(n)]
        # XZ column n - 1 (qubit n's x) sits next to column n (qubit 1's z):
        # X, Y and Z on qubits 1 and n, X_n Z_1 and the identity against the rows
        pos = [r if r < n else fast._stab + r - n for r in range(2 * n)]
        first, last = 1, 1 << n - 1
        for x, z in ((first, 0), (first, first), (0, first), (last, 0), (last, last),
                     (0, last), (last, first), (0, 0)):
            p = PauliString(n, x, z)
            assert (plane_int(fast._anticommuting(p))
                    == sum(1 << pos[r] for r in ref._anticommuting_rows(p))), (x, z)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1))
    def test_bulk_rowmult_sign_matches_mul_phase_exp(self, n, seed):
        # rounds of row_r := row_r * row_pivot on random sets of rows that
        # commute with the pivot (the kernel's contract), so every product
        # is Hermitian; earlier rounds change which rows commute
        rng = np.random.default_rng(seed)
        t = run(random_circuit(n, depth=2 * n, rng=rng), Tableau(n))
        pos = [r if r < n else t._stab + r - n for r in range(2 * n)]
        for _ in range(3):
            before = all_rows(t)
            pivot = int(rng.integers(0, 2 * n))
            rows = {r for r in range(2 * n) if r != pivot and rng.random() < 0.5
                    and before[r].commutes(before[pivot])}
            mask = sum(1 << pos[r] for r in rows)
            t._rowmult(_pack([mask], 8 * len(t.XZ)).view("<u8")[0], pos[pivot])
            after = all_rows(t)
            for r in range(2 * n):
                want = before[r]
                if r in rows:
                    want = PauliString(n, want.x_mask ^ before[pivot].x_mask,
                                       want.z_mask ^ before[pivot].z_mask,
                                       (want.phase_exp + before[pivot].phase_exp
                                        + mul_phase_exp(want.x_mask, want.z_mask,
                                                        before[pivot].x_mask,
                                                        before[pivot].z_mask)) % 4)
                assert after[r] == want, r


class TestStabilizerText:
    """Rows rendered in bulk from the columns against ``per_qubit_str`` of each row."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SIZES), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_rows_after_gates_and_errors(self, n, seed):
        rng = np.random.default_rng(seed)
        t = run(random_circuit(n, depth=3 * n, rng=rng), Tableau(n))
        for _ in range(int(rng.integers(1, 6))):
            t.apply_pauli(random_pauli(n, rng))     # sets stabilizer signs
        assert t.stabilizer_text() == [per_qubit_str(p) for p in t.stabilizer_paulis()]

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_toric_ground_with_errors(self, k):
        # torus:9 has 162 qubits: three words per half, 34 rows in the last
        model = build_toric(k)
        t = init_toric_ground(model, (1, 1))
        t.apply_pauli(PauliString.z_on(model.n_qubits, 1, model.n_qubits))
        text = t.stabilizer_text()
        assert text == [per_qubit_str(p) for p in t.stabilizer_paulis()]
        assert any(row.startswith("-") for row in text)


def stabilizer_bits(t: Tableau) -> tuple[list[int], list[int]]:
    """The x and z masks of stabilizer rows 0..n-1, read one bit at a time from
    the x and z halves of ``t.XZ`` at the rows' positions, with no transpose."""
    masks = ([], [])
    for i in range(t.n):
        w, b = divmod(t._stab + i, 64)
        for cols, out in zip((t.XZ[:, :t.n], t.XZ[:, t.n:]), masks):
            out.append(sum((int(cols[w, q]) >> b & 1) << q for q in range(t.n)))
    return masks


class TestReadOutOracle:
    """``_stabilizer_masks`` and ``stabilizer_text`` against ``stabilizer_bits``."""

    @staticmethod
    def check(t: Tableau):
        xs, zs = stabilizer_bits(t)
        assert t._stabilizer_masks(range(t._half)) == (xs, zs)
        signs = plane_int(t.signs) >> t._stab
        assert t.stabilizer_text() == [per_qubit_str(PauliString(t.n, x, z, 2 * (signs >> i & 1)))
                                       for i, (x, z) in enumerate(zip(xs, zs))]

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 2 ** 32 - 1))
    def test_random_clifford_circuits(self, n, seed):
        rng = np.random.default_rng(seed)
        t = run(random_circuit(n, depth=3 * n, rng=rng), Tableau(n))
        for _ in range(int(rng.integers(1, 6))):
            t.apply_pauli(random_pauli(n, rng))     # sets stabilizer signs
        self.check(t)

    def test_toric_ground(self):
        # torus:9 has 162 qubits: three words per half, 34 rows in the last
        model = build_toric(9)
        t = init_toric_ground(model, (1, 0))
        t.apply_pauli(PauliString.z_on(model.n_qubits, 1, 100, model.n_qubits))
        self.check(t)


class TestToricGround:
    def test_k2_all_generators_plus_one(self):
        model = build_toric(2)
        t = init_toric_ground(model)
        assert all(v == 1 for _, v in syndrome_sweep(t, model))

    def test_k2_dense_matches_projector_construction(self):
        # the dense state comes from the vertex projectors, not from the tableau
        model = build_toric(2)
        state = toric_ground_state(model)
        for g in model.generators:
            assert abs(expect_pauli(state, g) - 1.0) < 1e-10
        for loop in logical_z_loops(model):
            assert abs(expect_pauli(state, loop) - 1.0) < 1e-10

    def test_logical_choices_give_orthogonal_states(self):
        # a sector's rows hold on its own dense state (tests/test_lattice.py)
        # and some row reads -1 on every other sector's state
        model = build_toric(2)
        choices = ((0, 0), (0, 1), (1, 0), (1, 1))
        for a in choices:
            rows = init_toric_ground(model, a).stabilizer_paulis()
            for b in choices:
                if b != a:
                    state = toric_ground_state(model, b)
                    assert min(expect_pauli(state, row) for row in rows) < -1 + 1e-10

    def test_logical_choice_sets_loop_signs(self):
        model = build_toric(2)
        loops = logical_z_loops(model)
        for choice in ((0, 0), (0, 1), (1, 0), (1, 1)):
            t = init_toric_ground(model, choice)
            for bit, loop in zip(choice, loops):
                outcome, det = t.measure(loop)
                assert det and outcome == (-1 if bit else 1)

    def test_logical_operators_commute_with_generators(self):
        model = build_toric(3)
        for op in (*logical_z_loops(model), *sector_x_strings(model, (1, 1))):
            for g in model.generators:
                assert op.commutes(g)

    def test_non_toric_rejected(self):
        with pytest.raises(ValueError, match="torus"):
            init_toric_ground(build_planar6())

    def test_planar6_circuit_on_tableau_matches_dense(self):
        circ = ground_state_circuit(planar6_graph_spec())
        state = dense_run(circ, StateVector.zero(6))
        for gen in build_planar6().generators:
            assert abs(expect_pauli(state, gen) - 1.0) < 1e-10
        for row in run(circ, Tableau(6)).stabilizer_paulis():
            assert abs(expect_pauli(state, row) - 1.0) < 1e-10

    def test_measurement_circuit_on_tableau_matches_dense(self):
        # the repository's other fixed 6-qubit Clifford network
        from anyonlab.anyon import MEASUREMENT
        prep, readout = ground_state_circuit(planar6_graph_spec()), MEASUREMENT
        dense = dense_run(readout, dense_run(prep, StateVector.zero(6)))
        for row in run(readout, run(prep, Tableau(6))).stabilizer_paulis():
            assert abs(expect_pauli(dense, row) - 1.0) < 1e-9


class TestSweeps:
    def test_pair_parity_1000_trials_k16(self):
        model = build_toric(16)
        t = init_toric_ground(model, seed=99)
        syndrome_sweep(t, model)  # build the cache once
        rng = np.random.default_rng(99)
        n_vertex = len(model.vertex_ops)
        for _ in range(1000):
            size = int(rng.integers(1, 30))
            qubits = set(int(q) for q in rng.integers(1, model.n_qubits + 1, size=size))
            err = PauliString.x_on(model.n_qubits, *qubits)
            t.apply_pauli(err)
            sweep = syndrome_sweep(t, model)
            face_defects = sum(1 for _, v in sweep[n_vertex:] if v == -1)
            vertex_defects = sum(1 for _, v in sweep[:n_vertex] if v == -1)
            assert face_defects % 2 == 0
            assert vertex_defects == 0
            t.apply_pauli(err)

    def test_z_error_pair_parity(self):
        model = build_toric(8)
        t = init_toric_ground(model, seed=4)
        rng = np.random.default_rng(4)
        n_vertex = len(model.vertex_ops)
        for _ in range(200):
            qubits = set(int(q) for q in rng.integers(1, model.n_qubits + 1, size=9))
            err = PauliString.z_on(model.n_qubits, *qubits)
            t.apply_pauli(err)
            sweep = syndrome_sweep(t, model)
            vertex_defects = sum(1 for _, v in sweep[:n_vertex] if v == -1)
            assert vertex_defects % 2 == 0
            t.apply_pauli(err)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("logical", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_first_sweep_matches_generator_by_generator(self, k, logical, monkeypatch):
        # the plan reads the stabilizer masks once for all generators; the
        # oracle reads every generator alone, through measure.  The 8 to 128
        # generators are planned at every chunk size: one short chunk, many
        # chunks, exact multiples, so a slice starts at every generator
        model = build_toric(k)
        rng = np.random.default_rng(k)
        errors = [from_ops(model.n_qubits, {int(q): kind}) for kind in "XZ"
                  for q in rng.integers(1, model.n_qubits + 1, size=2)]
        alone = init_toric_ground(model, logical)
        for err in errors:
            alone.apply_pauli(err)
        want, sels, base = [], [], []
        for gid, g in zip(model.generator_ids, model.generators):
            want.append((gid, alone.measure(g)[0]))
            sels.append(plane_int(alone._anticommuting(g)))
            base.append(alone._base(g, sels[-1], *alone._stabilizer_masks(range(alone._half))))
        for chunk in (1, 4, 64):
            monkeypatch.setattr(tableau, "_CHUNK", chunk)
            swept = init_toric_ground(model, logical)
            for err in errors:
                swept.apply_pauli(err)
            assert syndrome_sweep(swept, model) == want
            assert plan_columns(swept._plan) == sels
            assert swept._plan.base.tolist() == base

    def test_k16_sweep_under_one_second(self):
        model = build_toric(16)
        t = init_toric_ground(model, seed=1)
        start = time.perf_counter()
        sweep = syndrome_sweep(t, model)
        elapsed = time.perf_counter() - start
        assert len(sweep) == 512
        assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"

    def test_sweep_rejects_scrambled_tableau(self, monkeypatch):
        model = build_toric(2)
        t = init_toric_ground(model)
        # a warm memo must not survive a gate that changes row masks
        assert all(v == 1 for _, v in syndrome_sweep(t, model))
        t.apply_gate("h", 1)
        with pytest.raises(ValueError) as err:
            syndrome_sweep(t, model)
        assert str(err.value) == first_random_refusal(t, model)
        # on torus:4 at four generators per chunk, H13 makes A(1,2), generator
        # 6, the first random one: two past the start of the second chunk
        monkeypatch.setattr(tableau, "_CHUNK", 4)
        model = build_toric(4)
        t = init_toric_ground(model).apply_gate("h", 13)
        with pytest.raises(ValueError) as err:
            syndrome_sweep(t, model)
        assert str(err.value) == first_random_refusal(t, model)
        assert str(err.value).startswith(f"generator {model.generator_ids[6]}: ")


def first_random_refusal(t: Tableau, model) -> str:
    """The refusal of a plan build on ``t``: it names the first generator, in
    generator order, whose ``_anticommuting`` plane has a stabilizer bit."""
    gid = next(gid for gid, g in zip(model.generator_ids, model.generators)
               if plane_int(t._anticommuting(g)) >> t._stab)
    return f"generator {gid}: operator is not deterministic on this tableau"


def plan_columns(plan) -> list[int]:
    """The plan's ``sel`` columns as Python-int masks, in generator order."""
    return [plane_int(plan.sel[:, g]) for g in range(plan.sel.shape[1])]


def forced_measure_ground(model, logical_choice=(0, 0)) -> Tableau:
    """The forced-measure construction that ``init_toric_ground`` replaced:
    force every vertex operator to +1 through ``measure``, then the sector's
    dual X strings."""
    flips = sector_x_strings(model, logical_choice)
    t = Tableau(model.n_qubits)
    for av in model.vertex_ops:
        t.measure(av, force=1)
    for xstr in flips:
        t.apply_pauli(xstr)
    return t


def assert_same_tableau(fast: Tableau, ref: Tableau, model):
    """Same columns and signs; after one sweep on each, the same sweep and plan."""
    assert fast.XZ.dtype == ref.XZ.dtype
    assert np.array_equal(fast.XZ, ref.XZ)
    assert plane_int(fast.signs) == plane_int(ref.signs)
    assert syndrome_sweep(fast, model) == syndrome_sweep(ref, model)
    assert fast._plan.model is ref._plan.model is model
    assert np.array_equal(fast._plan.sel, ref._plan.sel)
    assert np.array_equal(fast._plan.base, ref._plan.base)


def with_vertex_ops(model, order):
    """``model`` with its vertex operators (and their ids) in the given index order."""
    return dataclasses.replace(model, vertex_ops=tuple(model.vertex_ops[i] for i in order),
                               vertex_ids=tuple(model.vertex_ids[i] for i in order))


class TestToricGroundOracle:
    """The int-column elimination against the forced-measure loop, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("logical", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_same_tableau_as_forced_measures(self, k, logical):
        model = build_toric(k)
        assert_same_tableau(init_toric_ground(model, logical),
                            forced_measure_ground(model, logical), model)

    def test_same_tableau_k16(self):
        model = build_toric(16)
        assert_same_tableau(init_toric_ground(model), forced_measure_ground(model), model)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 6), st.randoms(use_true_random=False),
           st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
    def test_same_tableau_in_any_vertex_order(self, k, rng, logical):
        model = build_toric(k)
        order = list(range(len(model.vertex_ops)))
        rng.shuffle(order)
        model = with_vertex_ops(model, order)
        assert_same_tableau(init_toric_ground(model, logical),
                            forced_measure_ground(model, logical), model)

    def test_dependent_vertex_in_the_middle_and_none_at_the_end(self):
        # a repeated vertex is a product of earlier ones wherever it sits;
        # without the last vertex every vertex pivots; either way there is no
        # sweep plan until the first sweep
        model = build_toric(3)
        last = len(model.vertex_ops) - 1
        for order in ([0, 1, 0, *range(2, last + 1)], list(range(last))):
            hand = with_vertex_ops(model, order)
            fast = init_toric_ground(hand, (1, 1))
            assert fast._plan is None
            assert_same_tableau(fast, forced_measure_ground(hand, (1, 1)), hand)

    @pytest.mark.parametrize("at", ["middle", "last"])
    def test_dependent_vertex_that_is_a_product(self, at):
        # A(0,0) A(0,1), a weight-6 X operator that no single vertex repeats,
        # after both of its factors
        model = build_toric(3)
        ops, ids = list(model.vertex_ops), list(model.vertex_ids)
        product = ops[0] * ops[1]
        assert product.x_mask not in {av.x_mask for av in ops} and not product.z_mask
        place = 2 if at == "middle" else len(ops)
        ops.insert(place, product)
        ids.insert(place, f"{ids[0]}*{ids[1]}")
        hand = dataclasses.replace(model, vertex_ops=tuple(ops), vertex_ids=tuple(ids))
        fast = init_toric_ground(hand, (1, 0))
        assert_same_tableau(fast, forced_measure_ground(hand, (1, 0)), hand)
        assert all(v == 1 for _, v in syndrome_sweep(fast, hand))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_no_measure_call_on_a_torus(self, k, monkeypatch):
        # the dependent last vertex is read off the elimination, not measured
        calls = []
        measure = Tableau.measure
        monkeypatch.setattr(Tableau, "measure",
                            lambda self, p, force=None: calls.append(p) or measure(self, p, force))
        model = build_toric(k)
        t = init_toric_ground(model, (0, 1))
        assert calls == []
        assert t._plan is None
        assert all(v == 1 for _, v in syndrome_sweep(t, model))

    @pytest.mark.parametrize("bad", [
        lambda av: PauliString(av.n, av.x_mask, 1 << (av.n - 1)),
        lambda av: PauliString(av.n, av.x_mask, 0, 2),
        lambda av: PauliString(av.n, av.x_mask, 0, 1),
    ], ids=["z-bit", "sign-minus", "phase-i"])
    def test_vertex_op_that_is_not_plus_x_type_is_named(self, bad):
        model = build_toric(3)
        ops = list(model.vertex_ops)
        ops[4] = bad(ops[4])
        hand = dataclasses.replace(model, vertex_ops=tuple(ops))
        with pytest.raises(ValueError, match=re.escape(f"generator {model.vertex_ids[4]}: ")):
            init_toric_ground(hand)


def planes_one_by_one(t: Tableau, paulis) -> np.ndarray:
    """``_anticommuting`` of every p alone, stacked as a (len(paulis), 2 * half) array."""
    return np.array([t._anticommuting(p) for p in paulis])


def bulk_planes(t: Tableau, paulis) -> np.ndarray:
    """The chunks of ``_anticommuting_planes`` stacked, each checked to be a
    (len(chunk), 2 * half) ``<u8`` array of ``_CHUNK`` Paulis, the last one short."""
    chunks = list(t._anticommuting_planes(paulis))
    sizes = [min(tableau._CHUNK, len(paulis) - s) for s in range(0, len(paulis), tableau._CHUNK)]
    assert [c.shape for c in chunks] == [(m, len(t.XZ)) for m in sizes]
    assert all(c.dtype == np.dtype("<u8") for c in chunks)
    return np.concatenate(chunks)


class TestBulkMasks:
    """``_anticommuting_planes`` against ``_anticommuting``, Pauli by Pauli."""

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_toric_after_random_errors(self, k):
        model = build_toric(k)
        rng = np.random.default_rng(k)
        t = init_toric_ground(model, (0, 1))
        for kind in "XZY":
            qubits = rng.integers(1, model.n_qubits + 1, size=3)
            t.apply_pauli(from_ops(model.n_qubits, {int(q): kind for q in qubits}))
        gens = model.generators
        assert np.array_equal(bulk_planes(t, gens), planes_one_by_one(t, gens))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_toric_after_an_h_gate(self, k):
        model = build_toric(k)
        t = init_toric_ground(model)
        syndrome_sweep(t, model)
        t.apply_gate("h", 2)
        assert t._plan is None
        assert np.array_equal(bulk_planes(t, model.generators),
                              planes_one_by_one(t, model.generators))

    @pytest.mark.parametrize("chunk", [1, 4, 64, 256])
    def test_planar6_and_mixed_paulis(self, chunk, monkeypatch):
        # generators of weight 2 to 4, X-type and Z-type, plus random X/Y/Z
        # strings (both gathers for one Pauli) and the identity (neither),
        # 150 in all: several chunks, the last one short
        from anyonlab.anyon import PREPARATION
        monkeypatch.setattr(tableau, "_CHUNK", chunk)
        t = run(PREPARATION, Tableau(6))
        rng = np.random.default_rng(6)
        paulis = [*build_planar6().generators, PauliString.identity(6),
                  *(random_pauli(6, rng) for _ in range(143))]
        assert np.array_equal(bulk_planes(t, paulis), planes_one_by_one(t, paulis))

    def test_first_sweep_is_bulk_and_a_warm_one_computes_no_mask(self, monkeypatch):
        model = build_toric(4)
        t = init_toric_ground(model)
        calls = {"one": 0, "bulk": 0}
        one, bulk = Tableau._anticommuting, Tableau._anticommuting_planes

        def count_one(self, p):
            calls["one"] += 1
            return one(self, p)

        def count_bulk(self, paulis):
            calls["bulk"] += 1
            return bulk(self, paulis)

        monkeypatch.setattr(Tableau, "_anticommuting", count_one)
        monkeypatch.setattr(Tableau, "_anticommuting_planes", count_bulk)
        first = syndrome_sweep(t, model)
        assert calls == {"one": 0, "bulk": 1}
        calls.update(one=0, bulk=0)
        assert syndrome_sweep(t, model) == first
        assert calls == {"one": 0, "bulk": 0}

    def test_plan_build_and_deterministic_measure_build_no_pauli(self, monkeypatch):
        # rows are read as masks: neither path constructs a PauliString
        model = build_toric(3)
        t = init_toric_ground(model)
        t.apply_pauli(PauliString.z_on(model.n_qubits, 1))
        built = []
        check = PauliString.__post_init__
        monkeypatch.setattr(PauliString, "__post_init__",
                            lambda self: built.append(self) or check(self))
        sweep = syndrome_sweep(t, model)
        assert built == []
        i = [v for _, v in sweep].index(-1)       # a vertex next to the Z error
        assert t.measure(model.generators[i]) == (-1, True)
        assert built == []


def fresh_copy(t: Tableau) -> Tableau:
    """The same columns and signs, with no sweep plan."""
    copy = Tableau(t.n)
    copy.XZ[:], copy.signs[:] = t.XZ, t.signs
    return copy


def measured_sweep(t: Tableau, model) -> list[tuple[str, int]]:
    """Generator by generator through ``measure``, on a fresh copy of ``t``."""
    alone = fresh_copy(t)
    out = []
    for gid, g in zip(model.generator_ids, model.generators):
        outcome, deterministic = alone.measure(g)
        assert deterministic
        out.append((gid, outcome))
    return out


def count_bulk_planes(monkeypatch) -> list:
    """Record every ``_anticommuting_planes`` call (one list entry per call)."""
    calls = []
    bulk = Tableau._anticommuting_planes
    monkeypatch.setattr(Tableau, "_anticommuting_planes",
                        lambda self, paulis: calls.append(len(paulis)) or bulk(self, paulis))
    return calls


error_strings = st.lists(st.dictionaries(st.integers(0, 10 ** 6), st.sampled_from("XYZ"),
                                         min_size=1, max_size=8), min_size=1, max_size=4)


class TestSweepPlan:
    """The warm sweep's GF(2) fold against ``measure``, and when the plan is kept."""

    @pytest.mark.parametrize("logical", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(2, 8), strings=error_strings)
    def test_warm_sweep_matches_measure_on_a_fresh_copy(self, logical, k, strings):
        # the errors are applied in order, then undone in reverse order; every
        # sweep after the first is warm and must read what measure reads
        model = build_toric(k)
        n = model.n_qubits
        t = init_toric_ground(model, logical)
        syndrome_sweep(t, model)
        plan = t._plan
        errors = [from_ops(n, {q % n + 1: kind for q, kind in ops.items()})
                  for ops in strings]
        for err in errors + errors[::-1]:
            t.apply_pauli(err)
            sweep = syndrome_sweep(t, model)
            assert t._plan is plan
            assert sweep == measured_sweep(t, model)
            assert all(type(v) is int for _, v in sweep)
        assert all(v == 1 for _, v in sweep)

    @pytest.mark.parametrize("seed", range(16))
    def test_fold_matches_dense_on_signed_products_after_gates(self, seed):
        # after Clifford gates the rows mix X and Z, so a product of them takes
        # a sign from its mask algebra, and half the generators carry -1: both
        # base bits occur, unlike on the toric ground.  The dense state is an
        # oracle that shares no code with the plan or with measure.
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        circuit = random_circuit(n, 30, rng)
        t = run(circuit, Tableau(n))
        state = dense_run(circuit, StateVector.zero(n))
        rows = t.stabilizer_paulis()
        gens = []
        for _ in range(8):
            p = PauliString.identity(n)
            for row in rows:
                if rng.random() < 0.5:
                    p = p * row
            gens.append(PauliString(n, p.x_mask, p.z_mask,
                                    (p.phase_exp + 2 * int(rng.integers(0, 2))) % 4))
        model = LatticeModel(n, tuple(gens), (), tuple(f"g{i}" for i in range(8)), (),
                             "products", {})
        plans = []
        for _ in range(4):
            sweep = syndrome_sweep(t, model)
            plans.append(t._plan)
            assert sweep == measured_sweep(t, model)
            assert [v for _, v in sweep] == [round(expect_pauli(state, g)) for g in gens]
            err = random_pauli(n, rng)
            t.apply_pauli(err)
            state = apply_dense_pauli(state, err)
        assert all(plan is plans[0] for plan in plans)

    @pytest.mark.parametrize("kind, targets", [("h", 2), ("s", 2), ("sdg", 2),
                                               ("cz", (2, 5)), ("swap", (2, 5))])
    def test_column_gate_drops_the_plan(self, kind, targets):
        model = build_toric(3)
        t = init_toric_ground(model)
        syndrome_sweep(t, model)
        assert t._plan is not None
        t.apply_gate(kind, targets)
        assert t._plan is None

    def test_forced_collapse_drops_the_plan(self):
        model = build_toric(3)
        t = init_toric_ground(model)
        syndrome_sweep(t, model)
        x1 = PauliString.x_on(model.n_qubits, 1)     # anticommutes with two faces
        assert t.measure(x1, force=-1) == (-1, False)
        assert t._plan is None
        # a kept plan would still read the two faces; they are random now
        with pytest.raises(ValueError, match="not deterministic"):
            syndrome_sweep(t, model)

    @pytest.mark.parametrize("change", [
        lambda t: t.apply_gate("x", 3),
        lambda t: t.apply_gate("z", 4),
        lambda t: t.apply_pauli(from_ops(t.n, {1: "Y", 7: "X", 12: "Z"})),
    ], ids=["x", "z", "apply_pauli"])
    def test_sign_only_change_keeps_the_plan(self, change, monkeypatch):
        model = build_toric(3)
        t = init_toric_ground(model, (1, 0))
        syndrome_sweep(t, model)
        plan = t._plan
        calls = count_bulk_planes(monkeypatch)
        change(t)
        assert t._plan is plan
        assert syndrome_sweep(t, model) == measured_sweep(t, model)
        assert calls == []

    def test_other_model_object_rebuilds_the_plan(self, monkeypatch):
        model = build_toric(3)
        order = list(range(len(model.vertex_ops)))[::-1]
        reordered = with_vertex_ops(model, order)
        t = init_toric_ground(model)
        t.apply_pauli(PauliString.z_on(model.n_qubits, 1))
        calls = count_bulk_planes(monkeypatch)
        sweep = syndrome_sweep(t, model)
        other = syndrome_sweep(t, reordered)
        g = len(model.generators)
        assert t._plan.model is reordered and calls == [g, g]
        assert [gid for gid, _ in other] == list(reordered.generator_ids)
        assert other == measured_sweep(t, reordered)
        assert sorted(other) == sorted(sweep)
        # an equal but distinct model object is another plan too
        same = dataclasses.replace(model)
        assert same == model and same is not model
        assert syndrome_sweep(t, same) == sweep
        assert t._plan.model is same and calls == [g, g, g]
