"""Lattice builders: toric algebra, planar model, graph-state preparation."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_ops, symbol

from anyonlab.dense import (DENSE_LIMIT, Circuit, Gate, StateVector, apply_pauli,
                            expect_pauli, overlap, run)
from anyonlab.lattice import (TORIC_K_LIMIT, GraphSpec, LatticeModel,
                              build_planar6, build_toric, error_syndrome, ground_state_circuit,
                              planar6_graph_spec, syndrome, toric_ground_state)
from anyonlab.pauli import PauliString, paulis_text
from anyonlab.tableau import Tableau, init_toric_ground, syndrome_sweep


def gf2_rank(rows: list[int]) -> int:
    """Gaussian elimination over GF(2) on int bitmask rows."""
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [(r ^ pivot) if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def symplectic_rows(model) -> list[int]:
    n = model.n_qubits
    return [(g.x_mask << n) | g.z_mask for g in model.generators]


def dense_generator(model, idx) -> np.ndarray:
    """Independent kron build of generator idx from its letters."""
    mats = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
            "Z": np.array([[1, 0], [0, -1]])}
    g = model.generators[idx]
    out = np.array([[1.0]])
    for q in range(1, model.n_qubits + 1):
        out = np.kron(out, mats[symbol(g, q)])
    return out


def energy(model, state: StateVector) -> float:
    """Oracle: -sum<A_v> - sum<B_f> of the model Hamiltonian."""
    return -sum(expect_pauli(state, g) for g in model.generators)


def graph_state_circuit(spec: GraphSpec) -> Circuit:
    """Oracle: |+>^V then controlled-Z per edge (no local layer)."""
    gates = [Gate("h", (q,)) for q in range(1, spec.n + 1)]
    gates += [Gate("cz", edge) for edge in spec.edges]
    return Circuit(spec.n, tuple(gates))


def graph_state_stabilizers(spec: GraphSpec) -> list[PauliString]:
    """Oracle: X_i Z_{N(i)} for each vertex i."""
    out = []
    for i in range(1, spec.n + 1):
        ops = {i: "X"}
        for a, b in spec.edges:
            if i in (a, b):
                ops[b if a == i else a] = "Z"
        out.append(from_ops(spec.n, ops))
    return out


def toric_oracle(k: int) -> LatticeModel:
    """Oracle: the toric model built qubit by qubit from the layout, through
    the dict builder ``from_ops`` (one symbol dict per generator)."""
    n = 2 * k * k
    layout: dict[tuple, int] = {}
    for r in range(k):
        for c in range(k):
            layout[("h", r, c)] = 2 * (r * k + c) + 1
            layout[("v", r, c)] = 2 * (r * k + c) + 2
    vertex_ops, vertex_ids = [], []
    for r in range(k):
        for c in range(k):
            qubits = [layout[("h", r, c)], layout[("h", r, (c - 1) % k)],
                      layout[("v", r, c)], layout[("v", (r - 1) % k, c)]]
            vertex_ops.append(from_ops(n, {q: "X" for q in qubits}))
            vertex_ids.append(f"A({r},{c})")
    face_ops, face_ids = [], []
    for r in range(k):
        for c in range(k):
            qubits = [layout[("h", r, c)], layout[("h", (r + 1) % k, c)],
                      layout[("v", r, c)], layout[("v", r, (c + 1) % k)]]
            face_ops.append(from_ops(n, {q: "Z" for q in qubits}))
            face_ids.append(f"B({r},{c})")
    return LatticeModel(n, tuple(vertex_ops), tuple(face_ops),
                        tuple(vertex_ids), tuple(face_ids), f"torus:{k}", layout)


def ground_via_circuit() -> StateVector:
    return run(ground_state_circuit(planar6_graph_spec()), StateVector.zero(6))


class TestToric:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 32, TORIC_K_LIMIT])
    def test_mask_builder_matches_per_qubit_oracle(self, k):
        model, oracle = build_toric(k), toric_oracle(k)
        assert model == oracle
        # dict equality ignores order; random error draws read the layout in
        # insertion order, so that order is pinned too
        assert list(model.qubit_layout) == list(oracle.qubit_layout)

    def test_k2_counts_and_products(self):
        m = build_toric(2)
        assert m.n_qubits == 8
        assert len(m.vertex_ops) == 4 and len(m.face_ops) == 4
        prod_a = PauliString.identity(8)
        for a in m.vertex_ops:
            prod_a = prod_a * a
        prod_b = PauliString.identity(8)
        for b in m.face_ops:
            prod_b = prod_b * b
        assert prod_a == PauliString.identity(8)
        assert prod_b == PauliString.identity(8)

    @pytest.mark.parametrize("k", [2, 3])
    def test_weights_and_coverage(self, k):
        m = build_toric(k)
        for g in m.generators:
            assert (g.x_mask | g.z_mask).bit_count() == 4
        for q in range(1, m.n_qubits + 1):
            in_vertex = sum((a.x_mask | a.z_mask) >> (q - 1) & 1 for a in m.vertex_ops)
            in_face = sum((b.x_mask | b.z_mask) >> (q - 1) & 1 for b in m.face_ops)
            assert in_vertex == 2 and in_face == 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_all_generators_commute(self, k):
        m = build_toric(k)
        gens = m.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert gens[i].commutes(gens[j])

    def test_k3_gf2_rank_is_16(self):
        m = build_toric(3)
        assert m.n_qubits == 18
        assert len(m.generators) == 18
        assert gf2_rank(symplectic_rows(m)) == 16

    def test_k2_gf2_rank_is_6(self):
        assert gf2_rank(symplectic_rows(build_toric(2))) == 6

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            build_toric(1)

    def test_k_above_the_cap_rejected(self):
        assert TORIC_K_LIMIT >= 32    # the largest k the benchmark runs
        k = TORIC_K_LIMIT + 1
        with pytest.raises(ValueError, match=f"k = {k} is above the cap of {TORIC_K_LIMIT}"):
            build_toric(k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_single_x_flips_exactly_two_faces(self, k):
        m = build_toric(k)
        for q in range(1, m.n_qubits + 1):
            x = PauliString.x_on(m.n_qubits, q)
            flipped_faces = sum(1 for b in m.face_ops if not x.commutes(b))
            flipped_vertices = sum(1 for a in m.vertex_ops if not x.commutes(a))
            assert flipped_faces == 2 and flipped_vertices == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_single_z_flips_exactly_two_vertices(self, k):
        m = build_toric(k)
        for q in range(1, m.n_qubits + 1):
            z = PauliString.z_on(m.n_qubits, q)
            flipped_vertices = sum(1 for a in m.vertex_ops if not z.commutes(a))
            flipped_faces = sum(1 for b in m.face_ops if not z.commutes(b))
            assert flipped_vertices == 2 and flipped_faces == 0


class TestPlanar6:
    def test_exact_generator_list(self):
        m = build_planar6()
        assert m.generators == (
            PauliString.x_on(6, 1, 2, 3),
            PauliString.x_on(6, 3, 4, 5, 6),
            PauliString.z_on(6, 1, 3, 4),
            PauliString.z_on(6, 2, 3, 5),
            PauliString.z_on(6, 4, 6),
            PauliString.z_on(6, 5, 6),
        )
        assert m.generator_ids == ("A1", "A2", "B1", "B2", "B3", "B4")

    def test_boundary_faces_are_weight_two(self):
        m = build_planar6()
        assert [(g.x_mask | g.z_mask).bit_count() for g in m.face_ops] == [3, 3, 2, 2]

    def test_all_pairs_commute(self):
        gens = build_planar6().generators
        for i in range(6):
            for j in range(i + 1, 6):
                assert gens[i].commutes(gens[j])

    def test_joint_eigenspace_is_one_dimensional(self):
        m = build_planar6()
        proj = np.eye(64)
        for i in range(6):
            proj = proj @ (np.eye(64) + dense_generator(m, i)) / 2
        rank = np.linalg.matrix_rank(proj, tol=1e-9)
        assert rank == 1

    def test_braiding_loop_equals_a2(self):
        m = build_planar6()
        assert PauliString.x_on(6, 3, 4, 5, 6) == m.vertex_ops[1]


class TestGroundStateCircuit:
    def test_amplitudes_match_closed_form(self):
        out = ground_via_circuit()
        expected = {"000000": 0.5, "111000": 0.5, "110111": 0.5, "001111": 0.5}
        for i, amp in enumerate(out.amps):
            bits = format(i, "06b")
            np.testing.assert_allclose(amp, expected.get(bits, 0.0), atol=1e-12)

    def test_every_generator_expectation_is_plus_one(self):
        out = ground_via_circuit()
        for g in build_planar6().generators:
            assert abs(expect_pauli(out, g) - 1.0) < 1e-10

    def test_matches_dense_projector_eigenvector(self):
        m = build_planar6()
        proj = np.eye(64)
        for i in range(6):
            proj = proj @ (np.eye(64) + dense_generator(m, i)) / 2
        vals, vecs = np.linalg.eigh(proj)
        ground = vecs[:, np.argmax(vals)]
        ov = np.vdot(ground, ground_via_circuit().amps)
        assert abs(abs(ov) - 1.0) < 1e-10

    def test_graph_state_satisfies_graph_stabilizers(self):
        spec = planar6_graph_spec()
        g6 = run(graph_state_circuit(spec), StateVector.zero(6))
        for stab in graph_state_stabilizers(spec):
            assert abs(expect_pauli(g6, stab) - 1.0) < 1e-10

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphSpec(4, ((1, 1),), "IIII")
        with pytest.raises(ValueError, match="outside"):
            GraphSpec(4, ((1, 9),), "IIII")
        with pytest.raises(ValueError, match="entries"):
            GraphSpec(4, ((1, 2),), "IH")
        with pytest.raises(ValueError, match="I/H"):
            GraphSpec(4, ((1, 2),), "IHXZ")


class TestEnergyAndSyndrome:
    def test_ground_energy(self):
        m = build_planar6()
        assert abs(energy(m, ground_via_circuit()) + 6.0) < 1e-10

    def test_m_pair_energy(self):
        m = build_planar6()
        state = apply_pauli(ground_via_circuit(), PauliString.x_on(6, 4))
        # X4 anticommutes with B1 and B3 only: -6 + 2*2
        violated = sum(1 for g in m.generators
                       if not g.commutes(PauliString.x_on(6, 4)))
        assert violated == 2
        assert abs(energy(m, state) + 2.0) < 1e-10

    def test_double_pair_energy(self):
        m = build_planar6()
        err = PauliString.z_on(6, 3) * PauliString.x_on(6, 4)
        violated = sum(1 for g in m.generators if not g.commutes(err))
        assert violated == 4
        state = apply_pauli(ground_via_circuit(), err)
        assert abs(energy(m, state) - 2.0) < 1e-10

    def test_syndrome_ground(self):
        pairs = syndrome(build_planar6(), ground_via_circuit())
        assert all(value == 1.0 for _, value in pairs)

    def test_syndrome_x4(self):
        state = apply_pauli(ground_via_circuit(), PauliString.x_on(6, 4))
        values = dict(syndrome(build_planar6(), state))
        assert values == {"A1": 1.0, "A2": 1.0, "B1": -1.0,
                          "B2": 1.0, "B3": -1.0, "B4": 1.0}

    def test_syndrome_flags_superposed_creation_state(self):
        from anyonlab.anyon import create_anyons
        psi_b = create_anyons(ground_via_circuit())
        values = dict(syndrome(build_planar6(), psi_b))
        for gid in ("A1", "A2"):
            assert abs(values[gid]) < 1e-10
        for gid, expected in (("B1", -1.0), ("B2", 1.0), ("B3", -1.0), ("B4", 1.0)):
            assert values[gid] == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="model needs"):
            syndrome(build_planar6(), StateVector.zero(3))
        with pytest.raises(ValueError, match="model needs"):
            error_syndrome(build_toric(2), PauliString.x_on(3, 1))


SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


@cache
def toric_ground_dense(logical):
    return toric_ground_state(build_toric(2), logical)


class TestToricGroundState:
    """The dense toric ground from the vertex projectors, against the tableau."""

    @pytest.mark.parametrize("logical", SECTORS)
    def test_tableau_rows_are_plus_one_on_dense_sector(self, logical):
        state = toric_ground_dense(logical)
        assert abs(state.norm() - 1.0) < 1e-12
        for row in init_toric_ground(build_toric(2), logical).stabilizer_paulis():
            assert abs(expect_pauli(state, row) - 1.0) < 1e-10

    def test_sectors_are_orthogonal(self):
        for i, a in enumerate(SECTORS):
            for b in SECTORS[i + 1:]:
                assert abs(overlap(toric_ground_dense(a), toric_ground_dense(b))) < 1e-10

    def test_refusals(self, monkeypatch):
        with pytest.raises(ValueError, match="torus model, got planar6"):
            toric_ground_state(build_planar6())
        assert build_toric(3).n_qubits == 18 > DENSE_LIMIT
        with pytest.raises(ValueError,
                           match=f"18 qubits is above the dense limit of {DENSE_LIMIT}"):
            toric_ground_state(build_toric(3))
        # the sector check runs before the tableau's first measurement
        monkeypatch.setattr(Tableau, "measure", lambda *a, **kw: pytest.fail("measured"))
        for build in (toric_ground_state, init_toric_ground):
            for bad in ((0, 2), (1,), (0, 0, 1)):
                with pytest.raises(ValueError, match="must be two bits"):
                    build(build_toric(2), bad)


class TestErrorSyndromeOracles:
    """The Pauli-frame syndrome against the tableau and, at k=2, the dense
    ground built from the vertex projectors."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_frame_matches_tableau_and_dense(self, data):
        k = data.draw(st.sampled_from((2, 3, 5, 8)), label="k")
        logical = data.draw(st.sampled_from(SECTORS), label="logical")
        model = build_toric(k)
        t = init_toric_ground(model, logical)
        n = model.n_qubits
        # a small pool of qubits makes repeated hits, which must cancel, likely
        pool = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6), label="pool")
        hits = data.draw(st.lists(st.tuples(st.sampled_from("xz"), st.sampled_from(pool)),
                                  max_size=16), label="hits")
        error = PauliString.identity(n)
        for kind, q in hits:
            p = PauliString.x_on(n, q) if kind == "x" else PauliString.z_on(n, q)
            t.apply_pauli(p)
            error = error * p
        frame = error_syndrome(model, error)
        assert frame == syndrome_sweep(t, model)
        if k == 2:
            state = apply_pauli(toric_ground_dense(logical), error)
            assert syndrome(model, state) == frame


class TestDescribe:
    def test_planar6_description_lists_generators_and_layout(self):
        from anyonlab.lattice import describe_model
        model = build_planar6()
        text = describe_model(model, paulis_text(model.generators))
        assert "A1 = +X1 X2 X3" in text
        assert "B3 = +Z4 Z6" in text
        assert "geometry: planar6" in text

    def test_toric_layout_table(self):
        from anyonlab.lattice import describe_model
        model = build_toric(2)
        text = describe_model(model, paulis_text(model.generators))
        assert "h:0:0 -> q1" in text
        assert "v:1:1 -> q8" in text
