"""Tableau backend: conjugation exactness, measurement, toric ground states."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonlab.dense import Circuit, Gate, StateVector, expect_pauli, overlap
from anyonlab.dense import run as dense_run
from anyonlab.lattice import (build_planar6, build_toric, ground_state_circuit,
                              planar6_graph_spec)
from anyonlab.pauli import PauliString
from anyonlab.tableau import (Tableau, init_toric_ground, logical_x_strings,
                              logical_z_loops, run, syndrome_sweep)

GATES_1Q = ("h", "s", "sdg", "x", "z")
GATES_2Q = ("cz", "swap")


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


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Columns are the circuit applied to each basis state."""
    n = circuit.n
    return np.array([dense_run(circuit, StateVector.basis(format(i, f"0{n}b"))).amps
                     for i in range(2 ** n)]).T


class TestGateConjugation:
    def test_x_twice_restores(self):
        t = Tableau(3)
        before = (list(t.xs), list(t.zs), list(t.phases))
        t.apply_gate("x", 2).apply_gate("x", 2)
        assert (t.xs, t.zs, t.phases) == before

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
        want_a = PauliString.from_ops(2, {1: "X", 2: "Z"})
        want_b = PauliString.from_ops(2, {1: "Z", 2: "X"})
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

    @settings(max_examples=200, deadline=None)
    @given(small_circuits())
    def test_every_row_is_the_conjugated_initial_row(self, circuit):
        # row r starts as X_r (destabilizer) or Z_r (stabilizer), phase +1,
        # and after the circuit U must read U P U^dagger exactly
        n = circuit.n
        u = dense_unitary(circuit)
        t = run(circuit, Tableau(n))
        for r in range(2 * n):
            q = r % n + 1
            p0 = PauliString.x_on(n, q) if r < n else PauliString.z_on(n, q)
            want = u @ p0.to_dense() @ u.conj().T
            assert np.allclose(t.row_pauli(r).to_dense(), want, atol=1e-12), r


class TestMeasurement:
    def test_z_on_zero_state_deterministic(self):
        t = Tableau(3)
        for q in range(1, 4):
            outcome, deterministic = t.measure(PauliString.z_on(3, q))
            assert outcome == 1 and deterministic

    def test_random_outcome_is_seeded_and_repeats(self):
        t1 = Tableau(1, seed=12)
        t2 = Tableau(1, seed=12)
        x = PauliString.x_on(1, 1)
        o1, det1 = t1.measure(x)
        o2, det2 = t2.measure(x)
        assert not det1 and not det2 and o1 == o2
        # collapsed: repeated measurement is deterministic with same value
        o3, det3 = t1.measure(x)
        assert det3 and o3 == o1

    def test_forced_outcome(self):
        t = Tableau(1, seed=0)
        outcome, det = t.measure(PauliString.x_on(1, 1), force=-1)
        assert outcome == -1 and not det
        outcome, det = t.measure(PauliString.x_on(1, 1))
        assert outcome == -1 and det

    def test_forced_outcome_must_be_plus_or_minus_one(self):
        t = Tableau(1, seed=0)
        x = PauliString.x_on(1, 1)
        for bad in (0, 2, -2):
            with pytest.raises(ValueError, match="forced outcome"):
                t.measure(x, force=bad)
        # the rejected calls left |0> untouched
        assert t.measure(PauliString.z_on(1, 1)) == (1, True)

    def test_measurement_collapse_matches_dense(self):
        # measure X1 X2 on |00>, forced +1: state becomes a Bell pair
        t = Tableau(2, seed=3)
        xx = PauliString.x_on(2, 1, 2)
        t.measure(xx, force=1)
        state = t.to_statevector()
        assert abs(expect_pauli(state, xx) - 1.0) < 1e-10
        assert abs(expect_pauli(state, PauliString.z_on(2, 1, 2)) - 1.0) < 1e-10

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


class TestToricGround:
    def test_k2_all_generators_plus_one(self):
        model = build_toric(2)
        t = init_toric_ground(model)
        assert all(v == 1 for _, v in syndrome_sweep(t, model))

    def test_k2_dense_matches_projector_construction(self):
        model = build_toric(2)
        state = init_toric_ground(model).to_statevector()
        for g in model.generators:
            assert abs(expect_pauli(state, g) - 1.0) < 1e-10
        for loop in logical_z_loops(model):
            assert abs(expect_pauli(state, loop) - 1.0) < 1e-10

    def test_logical_choices_give_orthogonal_states(self):
        model = build_toric(2)
        states = {}
        for choice in ((0, 0), (0, 1), (1, 0), (1, 1)):
            states[choice] = init_toric_ground(model, choice).to_statevector()
        choices = list(states)
        for i, a in enumerate(choices):
            for b in choices[i + 1:]:
                assert abs(overlap(states[a], states[b])) < 1e-10

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
        for op in (*logical_z_loops(model), *logical_x_strings(model)):
            for g in model.generators:
                assert op.commutes(g)

    def test_non_toric_rejected(self):
        with pytest.raises(ValueError, match="torus"):
            init_toric_ground(build_planar6())

    def test_planar6_circuit_on_tableau_matches_dense(self):
        circ = ground_state_circuit(planar6_graph_spec())
        state = run(circ, Tableau(6)).to_statevector()
        for gen in build_planar6().generators:
            assert abs(expect_pauli(state, gen) - 1.0) < 1e-10

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

    def test_k16_sweep_under_one_second(self):
        model = build_toric(16)
        t = init_toric_ground(model, seed=1)
        start = time.perf_counter()
        sweep = syndrome_sweep(t, model)
        elapsed = time.perf_counter() - start
        assert len(sweep) == 512
        assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"

    def test_sweep_rejects_scrambled_tableau(self):
        model = build_toric(2)
        t = init_toric_ground(model)
        # a warm memo must not survive a gate that changes row masks
        assert all(v == 1 for _, v in syndrome_sweep(t, model))
        t.apply_gate("h", 1)
        with pytest.raises(ValueError, match="not deterministic"):
            syndrome_sweep(t, model)
