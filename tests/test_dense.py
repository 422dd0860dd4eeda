"""State-vector engine tests: gate exactness, Pauli action, inversion."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_dense

from anyonlab import anyon, dense
from anyonlab.dense import (DENSE_LIMIT, GATE_MATRICES, Circuit, Gate, StateVector,
                            apply_gate, apply_pauli, dump_amplitudes, expect_pauli,
                            overlap, run, state_from_dump)
from anyonlab.lattice import (build_planar6, ground_state_circuit,
                              planar6_graph_spec)
from anyonlab.pauli import PauliString

SQ2 = 1 / np.sqrt(2)


def random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


def planar6_ground() -> StateVector:
    return run(ground_state_circuit(planar6_graph_spec()), StateVector.zero(6))


def random_circuit(n: int, seed: int, depth: int = 30) -> Circuit:
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(depth):
        kind = rng.choice(["x", "z", "h", "s", "sdg", "cz", "swap"])
        if kind in ("cz", "swap"):
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
        else:
            gates.append(Gate(kind, (int(rng.integers(1, n + 1)),)))
    return Circuit(n, tuple(gates))


class TestGates:
    def test_hadamard_on_zero(self):
        out = apply_gate(StateVector.zero(1), "h", 1)
        np.testing.assert_allclose(out.amps, [SQ2, SQ2], atol=1e-15)

    def test_s_then_sdg_is_identity(self):
        s0 = random_state(4, seed=11)
        out = apply_gate(apply_gate(s0, "s", 2), "sdg", 2)
        assert np.max(np.abs(out.amps - s0.amps)) < 1e-12

    def test_s_matches_half_z_rotation_definition(self):
        # e^{i pi/4} e^{-i pi/4 sigma_z} squared must equal sigma_z exactly
        s_mat = np.exp(1j * np.pi / 4) * np.diag(np.exp(-1j * np.pi / 4 * np.array([1, -1])))
        np.testing.assert_allclose(s_mat, np.diag([1, 1j]), atol=1e-15)
        np.testing.assert_allclose(s_mat @ s_mat, np.diag([1, -1]), atol=1e-15)
        one = StateVector.basis("1")
        out = apply_gate(one, "s", 1)
        np.testing.assert_allclose(out.amps, [0, 1j], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_s_squared_acts_as_z(self, seed):
        s0 = random_state(3, seed=seed)
        via_s = apply_gate(apply_gate(s0, "s", 2), "s", 2)
        via_z = apply_gate(s0, "z", 2)
        assert np.max(np.abs(via_s.amps - via_z.amps)) < 1e-12

    def test_norm_preserved_along_random_circuit(self):
        state = StateVector.zero(5)
        for g in random_circuit(5, seed=3, depth=60).gates:
            state = apply_gate(state, g.kind, g.targets)
            assert abs(state.norm() - 1.0) < 1e-10

    def test_bad_target_raises(self):
        with pytest.raises(ValueError, match="outside"):
            apply_gate(StateVector.zero(2), "x", 3)
        with pytest.raises(ValueError, match="distinct"):
            apply_gate(StateVector.zero(2), "cz", (1, 1))
        with pytest.raises(ValueError, match="unknown gate"):
            apply_gate(StateVector.zero(2), "t", 1)

    @pytest.mark.parametrize("kind, target", [("x", np.int64(3)), ("h", np.int64(3)),
                                              ("x", (np.int64(3),)), ("cz", [np.int64(1), 3])])
    def test_bare_or_numpy_target_acts_like_a_tuple_of_ints(self, kind, target):
        state = random_state(4, seed=2)
        want = apply_gate(state, kind, (1, 3) if kind == "cz" else (3,))
        assert apply_gate(state, kind, target).amps.tobytes() == want.amps.tobytes()

    @pytest.mark.parametrize("kind, targets, name", [("h", (2.0,), "2.0"), ("h", 2.0, "2.0"),
                                                     ("x", ("1",), "'1'"),
                                                     ("cz", (1, None), "None")])
    def test_non_integer_target_is_named(self, kind, targets, name):
        pattern = rf"^target qubit {re.escape(name)} is not an integer$"
        with pytest.raises(ValueError, match=pattern):
            apply_gate(StateVector.zero(4), kind, targets)
        with pytest.raises(ValueError, match=pattern):
            Circuit(4, (Gate(kind, targets),))

    def test_circuit_keeps_python_int_targets(self):
        circuit = Circuit(4, (Gate("x", np.int64(3)), Gate("cz", [np.int64(1), 2])))
        assert circuit.gates == (Gate("x", (3,)), Gate("cz", (1, 2)))
        assert all(type(q) is int for g in circuit.gates for q in g.targets)


def count_kernel(monkeypatch) -> list:
    """Route the gate kernel through a wrapper that logs each call's arguments."""
    calls = []
    original = dense._gate_kernel

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(dense, "_gate_kernel", counting)
    return calls


def all_gates(n: int):
    """Every gate kind on every qubit, and on every ordered pair for cz and swap."""
    for kind in sorted(GATE_MATRICES):
        for q in range(1, n + 1):
            yield kind, (q,)
    for kind in sorted(dense.TWO_QUBIT_GATES):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    yield kind, (a, b)


class TestOneQubitKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.sampled_from(sorted(GATE_MATRICES)),
           st.data(), st.integers(min_value=0, max_value=10 ** 6))
    def test_same_bytes_as_moveaxis_oracle(self, n, kind, data, seed):
        ax = data.draw(st.integers(min_value=0, max_value=n - 1))
        s = random_state(n, seed)
        t = s.amps.reshape([2] * n)
        oracle = np.moveaxis(np.moveaxis(t, ax, -1) @ GATE_MATRICES[kind].T, -1, ax)
        got = apply_gate(s, kind, ax + 1).amps
        assert got.tobytes() == np.ascontiguousarray(oracle.reshape(-1)).tobytes()

    def test_run_goes_through_the_kernel_once_per_gate(self, monkeypatch):
        ground = planar6_ground()
        calls = count_kernel(monkeypatch)
        run(anyon.MEASUREMENT, ground)
        assert len(calls) == len(anyon.MEASUREMENT.gates)


class TestStackKernel:
    """A stack of rows goes through the kernel with each row's bits unchanged."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_apply_gate(self, n):
        for rows in (1, 2, 7):
            stack = np.array([random_state(n, seed=100 * n + r).amps for r in range(rows)])
            for kind, targets in all_gates(n):
                got = dense._gate_kernel(stack, n, kind, targets)
                assert got.shape == stack.shape and got.flags.c_contiguous
                for r in range(rows):
                    one = apply_gate(StateVector(n, stack[r].copy()), kind, targets).amps
                    assert got[r].tobytes() == one.tobytes(), (kind, targets, rows, r)
                if kind in GATE_MATRICES:    # and the moveaxis oracle, row by row
                    ax = targets[0] - 1
                    for r in range(rows):
                        t = stack[r].reshape([2] * n)
                        oracle = np.moveaxis(
                            np.moveaxis(t, ax, -1) @ GATE_MATRICES[kind].T, -1, ax)
                        assert got[r].tobytes() == \
                            np.ascontiguousarray(oracle.reshape(-1)).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_run_stack_rows_match_run(self, rows):
        circuit = random_circuit(5, seed=rows, depth=40)
        stack = np.array([random_state(5, seed=r).amps for r in range(rows)])
        got = dense.run_stack(circuit, stack)
        for r in range(rows):
            assert got[r].tobytes() == run(circuit, StateVector(5, stack[r].copy())).amps.tobytes()
        assert np.array_equal(stack, [random_state(5, seed=r).amps for r in range(rows)])

    def test_run_stack_refuses_a_wrong_shape(self):
        with pytest.raises(ValueError, match="3-qubit"):
            dense.run_stack(Circuit(3), np.zeros((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="3-qubit"):
            dense.run_stack(Circuit(3), np.zeros(8, dtype=complex))


class TestNormCheck:
    def test_direct_gate_checks_its_result(self):
        drifted = StateVector(3, random_state(3, seed=7).amps * (1 + 1e-9))
        with pytest.raises(AssertionError, match=r"after gate h on \(2,\)"):
            apply_gate(drifted, "h", 2)

    def test_run_checks_once_after_its_last_gate(self, monkeypatch):
        drifted = StateVector(6, planar6_ground().amps * (1 + 1e-9))
        calls = count_kernel(monkeypatch)
        n_gates = len(anyon.MEASUREMENT.gates)
        with pytest.raises(AssertionError,
                           match=f"after run of a {n_gates}-gate circuit"):
            run(anyon.MEASUREMENT, drifted)
        assert len(calls) == n_gates


    def test_stack_check_names_the_first_drifted_row(self, monkeypatch):
        ground = planar6_ground().amps
        stack = np.array([ground, ground, ground * (1 + 1e-9), ground * (1 - 1e-9)])
        calls = count_kernel(monkeypatch)
        n_gates = len(anyon.MEASUREMENT.gates)
        with pytest.raises(AssertionError,
                           match=f"after run of a {n_gates}-gate circuit, in row 2 of 4$"):
            dense.run_stack(anyon.MEASUREMENT, stack)
        assert len(calls) == n_gates


class TestApplyPauli:
    def test_x1_moves_amplitude(self):
        out = apply_pauli(StateVector.basis("000000"), PauliString.x_on(6, 1))
        np.testing.assert_allclose(out.amps, StateVector.basis("100000").amps)

    def test_braiding_loop_fixes_ground_state(self):
        g = planar6_ground()
        looped = apply_pauli(g, PauliString.x_on(6, 3, 4, 5, 6))
        assert abs(overlap(g, looped) - 1.0) < 1e-12

    def test_braiding_loop_negates_e_pair_state(self):
        g = planar6_ground()
        z3g = apply_pauli(g, PauliString.z_on(6, 3))
        looped = apply_pauli(z3g, PauliString.x_on(6, 3, 4, 5, 6))
        assert abs(overlap(z3g, looped) + 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 12 - 1),
           st.integers(min_value=0, max_value=2 ** 12 - 1),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_to_dense(self, xm, zm, pe, seed):
        p = PauliString(6, xm & 63, zm & 63, pe)
        s = random_state(6, seed=seed)
        via_masks = apply_pauli(s, p).amps
        via_dense = to_dense(p) @ s.amps
        assert np.max(np.abs(via_masks - via_dense)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            apply_pauli(StateVector.zero(2), PauliString.x_on(3, 1))


class TestRun:
    def test_empty_circuit(self):
        s0 = random_state(3, seed=5)
        out = run(Circuit(3), s0)
        np.testing.assert_array_equal(out.amps, s0.amps)

    def test_graph_circuit_yields_paper_ground_state(self):
        out = planar6_ground()
        expected = np.zeros(64, dtype=complex)
        for bits in ("000000", "111000", "110111", "001111"):
            expected[int(bits, 2)] = 0.5
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_run_then_inverse_is_identity(self, seed):
        c = random_circuit(5, seed=seed, depth=40)
        s0 = random_state(5, seed=seed + 100)
        back = run(c.inverse(), run(c, s0))
        assert np.max(np.abs(back.amps - s0.amps)) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="qubit"):
            run(Circuit(3), StateVector.zero(2))


class TestOverlapAndExpectation:
    def test_self_overlap(self):
        s = random_state(4, seed=2)
        assert abs(overlap(s, s) - 1.0) < 1e-12

    def test_creation_and_braided_states_are_orthogonal(self):
        # psi_b and psi_c from the creation/braiding algebra
        g = planar6_ground()
        psi_b = apply_gate(apply_gate(g, "x", 4), "s", 3)
        psi_c = psi_b
        for q in (6, 5, 3, 4):
            psi_c = apply_gate(psi_c, "x", q)
        assert abs(overlap(psi_b, psi_c)) < 1e-12

    def test_unbraided_fusion_returns_ground(self):
        g = planar6_ground()
        state = apply_gate(apply_gate(g, "x", 4), "s", 3)
        state = apply_gate(apply_gate(state, "sdg", 3), "x", 4)
        assert abs(overlap(g, state) - 1.0) < 1e-12

    def test_generator_expectations_on_ground(self):
        g = planar6_ground()
        for gen in build_planar6().generators:
            assert abs(expect_pauli(g, gen) - 1.0) < 1e-10

    def test_x4_flips_b1_b3_only(self):
        model = build_planar6()
        excited = apply_pauli(planar6_ground(), PauliString.x_on(6, 4))
        expected = {"A1": 1, "A2": 1, "B1": -1, "B2": 1, "B3": -1, "B4": 1}
        for gid, gen in zip(model.generator_ids, model.generators):
            assert abs(expect_pauli(excited, gen) - expected[gid]) < 1e-10

    def test_z3_flips_a1_a2(self):
        model = build_planar6()
        excited = apply_pauli(planar6_ground(), PauliString.z_on(6, 3))
        expected = {"A1": -1, "A2": -1, "B1": 1, "B2": 1, "B3": 1, "B4": 1}
        for gid, gen in zip(model.generator_ids, model.generators):
            assert abs(expect_pauli(excited, gen) - expected[gid]) < 1e-10


class TestDump:
    def test_round_trip(self):
        s = planar6_ground()
        rows = dump_amplitudes(s)
        assert [r[0] for r in rows] == ["000000", "001111", "110111", "111000"]
        rebuilt = state_from_dump(rows)
        assert np.max(np.abs(rebuilt.amps - s.amps)) < 1e-12

    def test_rows_of_different_lengths_rejected(self):
        for rows in ([["10", 1.0, 0.0], ["1111", 0.0, 0.0]],
                     [["10", 1.0, 0.0], ["1", 0.0, 0.0]]):
            with pytest.raises(ValueError, match="dump row 1 has"):
                state_from_dump(rows)

    def test_malformed_dump_named(self):
        for rows in ({"a": 1}, []):
            with pytest.raises(ValueError, match="non-empty list of \\[bits, re, im\\]"):
                state_from_dump(rows)
        for rows, bad in (([[10, 1.0, 0.0]], 0),
                          ([["10", 1.0]], 0),
                          ([["", 1.0, 0.0]], 0),
                          ([["10", 1.0, 0.0], ["1x", 0.0, 0.0]], 1),
                          ([["10", 1.0, 0.0], ["01", "0", 0.0]], 1),
                          ([["10", 1.0, 0.0], ["01", 0.0, float("nan")]], 1),
                          ([["10", 1.0, 0.0], "01"], 1)):
            with pytest.raises(ValueError, match=f"dump row {bad} is not"):
                state_from_dump(rows)
        for rows, message in (([["000000", 5.0, 0.0]], "norm 5.0"),
                              ([["10", 0.6, 0.0]], "norm 0.6"),
                              ([["10", 1.0, 0.0], ["01", 0.0, 0.0], ["10", 0.0, 1.0]],
                               "dump rows 0 and 2 repeat bits '10'"),
                              # checked before 2^bits amplitudes are allocated
                              # (40 bits would ask numpy for 16 TiB)
                              ([["1" * (DENSE_LIMIT + 1), 1.0, 0.0]],
                               f"dump row 0 has {DENSE_LIMIT + 1} bits, above the "
                               f"dense limit of {DENSE_LIMIT}"),
                              ([["1" * 40, 1.0, 0.0]], "dump row 0 has 40 bits")):
            with pytest.raises(ValueError, match=message):
                state_from_dump(rows)

    def test_threshold(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.sqrt(1 - 1e-22)
        amps[3] = 1e-11
        rows = dump_amplitudes(StateVector(2, amps))
        assert [r[0] for r in rows] == ["00"]
