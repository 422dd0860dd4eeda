"""Pauli algebra tests against explicit dense-matrix oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_ops, symbol, to_dense

from anyonlab.lattice import build_planar6, build_toric
from anyonlab.pauli import PHASE_LABELS, PauliString, _ones, _pack, _unpack, paulis_text

# independent single-qubit matrices for the oracle (not via to_dense)
I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_oracle(symbols: str, phase: complex = 1.0) -> np.ndarray:
    """Dense matrix from a letter string, qubit 1 leftmost."""
    mat = np.array([[phase]], dtype=complex)
    for ch in symbols:
        mat = np.kron(mat, MATS[ch])
    return mat


def pauli_strings(n: int):
    return st.builds(
        PauliString,
        n=st.just(n),
        x_mask=st.integers(min_value=0, max_value=2 ** n - 1),
        z_mask=st.integers(min_value=0, max_value=2 ** n - 1),
        phase_exp=st.integers(min_value=0, max_value=3),
    )


def symbols_of(p: PauliString) -> str:
    return "".join(symbol(p, q) for q in range(1, p.n + 1))


class TestMultiply:
    def test_involution(self):
        xi = PauliString.x_on(2, 1)
        assert xi * xi == PauliString.identity(2)

    def test_product_of_all_toric_vertex_ops_is_identity(self):
        model = build_toric(2)
        prod = PauliString.identity(8)
        for av in model.vertex_ops:
            prod = prod * av
        assert prod == PauliString.identity(8)
        prod = PauliString.identity(8)
        for bf in model.face_ops:
            prod = prod * bf
        assert prod == PauliString.identity(8)

    def test_single_qubit_xz_phase_matches_dense_oracle(self):
        x = PauliString.x_on(1, 1)
        z = PauliString.z_on(1, 1)
        prod = x * z
        assert prod.x_mask == 1 and prod.z_mask == 1
        np.testing.assert_allclose(to_dense(prod), X2 @ Z2, atol=1e-15)
        # and the reversed order
        np.testing.assert_allclose(to_dense(z * x), Z2 @ X2, atol=1e-15)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            PauliString.identity(2) * PauliString.identity(3)

    @settings(max_examples=150, deadline=None)
    @given(pauli_strings(4), pauli_strings(4), pauli_strings(4))
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(pauli_strings(10))
    def test_identity_neutral(self, p):
        e = PauliString.identity(10)
        assert e * p == p
        assert p * e == p

    @settings(max_examples=80, deadline=None)
    @given(pauli_strings(4), pauli_strings(4))
    def test_dense_homomorphism(self, a, b):
        lhs = to_dense(a * b)
        rhs = to_dense(a) @ to_dense(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pauli_strings(6))
    def test_square_is_plus_minus_identity(self, p):
        sq = p * p
        assert sq.x_mask == 0 and sq.z_mask == 0
        assert sq.phase_exp in (0, 2)

    def test_stabilizer_generators_square_to_identity(self):
        for model in (build_planar6(), build_toric(2)):
            for g in model.generators:
                assert g * g == PauliString.identity(model.n_qubits)


class TestCommutes:
    def test_disjoint_supports(self):
        assert PauliString.x_on(2, 1).commutes(PauliString.x_on(2, 2))

    def test_x4_anticommutes_with_b1(self):
        x4 = PauliString.x_on(6, 4)
        b1 = PauliString.z_on(6, 1, 3, 4)
        assert not x4.commutes(b1)
        # dense anticommutator oracle
        a = kron_oracle("IIIXII")
        b = kron_oracle("ZIZZII")
        assert np.linalg.norm(a @ b + b @ a) < 1e-12

    def test_braiding_loop_commutes_with_every_generator(self):
        loop = PauliString.x_on(6, 3, 4, 5, 6)
        model = build_planar6()
        loop_m = kron_oracle("IIXXXX")
        for g in model.generators:
            assert loop.commutes(g)
            gm = kron_oracle(symbols_of(g))
            assert np.linalg.norm(loop_m @ gm - gm @ loop_m) < 1e-12
        assert loop == model.vertex_ops[1]  # the loop is the big vertex operator

    @settings(max_examples=100, deadline=None)
    @given(pauli_strings(4), pauli_strings(4))
    def test_agrees_with_dense_commutator(self, a, b):
        am, bm = to_dense(a), to_dense(b)
        comm = np.linalg.norm(am @ bm - bm @ am)
        if a.commutes(b):
            assert comm < 1e-12
        else:
            assert comm > 1e-3

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            PauliString.identity(2).commutes(PauliString.identity(3))


class TestToDense:
    def test_identity_two_qubits(self):
        np.testing.assert_array_equal(to_dense(PauliString.identity(2)), np.eye(4))

    def test_z_single_qubit(self):
        np.testing.assert_array_equal(
            to_dense(PauliString.z_on(1, 1)), np.diag([1.0, -1.0]))

    def test_a1_squares_to_identity(self):
        a1 = PauliString.x_on(6, 1, 2, 3)
        m = to_dense(a1)
        np.testing.assert_allclose(m @ m, np.eye(64), atol=1e-12)

    def test_matches_kron_oracle_with_phase(self):
        p = from_ops(5, {1: "X", 3: "Y", 4: "Z"}, phase_exp=3)
        np.testing.assert_allclose(to_dense(p), kron_oracle("XIYZI", -1j), atol=1e-15)


class TestText:
    def test_render_spec_example(self):
        for p, text in ((from_ops(4, {1: "X", 3: "Z", 4: "Z"}), "+X1 Z3 Z4"),
                        (from_ops(3, {2: "Y"}, phase_exp=2), "-Y2"),
                        (PauliString.identity(2), "+I"),
                        (from_ops(2, {1: "X"}, phase_exp=1), "+i X1")):
            assert str(p) == text


def per_qubit_support(p: PauliString) -> tuple[int, ...]:
    """The O(n) oracle: test every qubit's bit."""
    mask = p.x_mask | p.z_mask
    return tuple(q for q in range(1, p.n + 1) if mask & (1 << (q - 1)))


def walk_support(p: PauliString) -> tuple[int, ...]:
    """The support as ``str`` walks it: the set bits of x | z, by ``_ones``."""
    return tuple(i + 1 for i in _ones(p.x_mask | p.z_mask))


def per_qubit_str(p: PauliString) -> str:
    """The O(n) oracle: one letter per support qubit, read bit by bit."""
    factors = []
    for q in per_qubit_support(p):
        bit = 1 << (q - 1)
        factors.append(f"{'IXZY'[bool(p.x_mask & bit) + 2 * bool(p.z_mask & bit)]}{q}")
    body = " ".join(factors) if factors else "I"
    label = PHASE_LABELS[p.phase_exp]
    return f"{label}{body}" if p.phase_exp in (0, 2) else f"{label} {body}"


@st.composite
def wide_pauli_strings(draw):
    n = draw(st.one_of(st.sampled_from((1, 63, 64, 65, 2048)), st.integers(1, 2100)))

    def mask():
        sparse = st.sets(st.integers(0, n - 1), max_size=60).map(
            lambda qs: sum(1 << q for q in qs))
        return draw(st.one_of(st.integers(0, 2 ** n - 1), sparse))

    return PauliString(n, mask(), mask(), draw(st.integers(0, 3)))


class TestWalkOracle:
    @settings(max_examples=200, deadline=None)
    @given(wide_pauli_strings())
    def test_support_and_str_match_per_qubit_formulas(self, p):
        assert walk_support(p) == per_qubit_support(p)
        assert str(p) == per_qubit_str(p)

    def test_word_edges(self):
        for n in (63, 64, 65, 2048):
            p = from_ops(n, {1: "X", 63: "Y", n: "Z"}, phase_exp=3)
            assert walk_support(p) == per_qubit_support(p) == tuple(sorted({1, 63, n}))
            assert str(p) == per_qubit_str(p)


@st.composite
def pauli_stacks(draw):
    """1..3 or 62..70 Paulis (one or two 64-row chunks) on one n in 1..200: each
    mask is empty, the top qubit, a few qubits weighted to the word edges, or
    dense, and every phase occurs.  The masks come from a drawn seed."""
    n = draw(st.one_of(st.sampled_from((1, 63, 64, 65, 128, 200)), st.integers(1, 200)))
    count = draw(st.one_of(st.integers(1, 3), st.integers(62, 70)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [q for q in (1, 63, 64, 65, n) if q <= n]

    def mask():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return 1 << (n - 1)
        if kind == 2:
            qubits = rng.choices(edges, k=2) + [rng.randint(1, n) for _ in range(rng.randrange(5))]
            return sum({1 << (q - 1) for q in qubits})
        return rng.getrandbits(n)

    return [PauliString(n, mask(), mask(), rng.randrange(4)) for _ in range(count)]


class TestRenderOracle:
    """``render``, through ``str`` and ``paulis_text``, against ``per_qubit_str``."""

    @settings(max_examples=150, deadline=None)
    @given(pauli_stacks())
    def test_matches_the_per_qubit_text(self, paulis):
        want = [per_qubit_str(p) for p in paulis]
        assert paulis_text(paulis) == want       # 64 rows per chunk, several chunks
        assert [str(p) for p in paulis[:3]] == want[:3]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 128, 200])
    def test_identity_phases_and_top_qubit(self, n):
        top = 1 << (n - 1)
        paulis = [PauliString(n, x, z, e) for x, z in ((0, 0), (top, 0), (0, top), (top, top))
                  for e in range(4)]
        assert paulis_text(paulis) == [per_qubit_str(p) for p in paulis]
        assert paulis_text(paulis)[:4] == ["+I", "+i I", "-I", "-i I"]
        assert str(paulis[-1]) == f"-i Y{n}"

    def test_empty_sequence(self):
        assert paulis_text([]) == []


@st.composite
def packed_masks(draw, sizes=(1, 7, 8, 9, 64, 65, 1024)):
    """A row size in bytes and masks that fit it, always with 0, the top bit and all ones."""
    size = draw(st.sampled_from(sizes))
    top = 8 * size
    masks = [0, 1 << (top - 1), (1 << top) - 1]
    masks += draw(st.lists(st.integers(0, (1 << top) - 1), max_size=10))
    return size, draw(st.permutations(masks))


class TestCodec:
    """``_pack`` and ``_unpack``, the one layout of masks as packed rows."""

    @settings(max_examples=100, deadline=None)
    @given(packed_masks())
    def test_rows_are_little_endian_bytes_and_round_trip(self, case):
        size, masks = case
        rows = _pack(masks, size)
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), size)
        assert [row.tobytes() for row in rows] == [m.to_bytes(size, "little") for m in masks]
        assert _unpack(rows) == masks

    @settings(max_examples=50, deadline=None)
    @given(packed_masks(sizes=(8, 64, 1024)))
    def test_word_view_unpacks_like_the_bytes(self, case):
        size, masks = case
        rows = _pack(masks, size)
        assert _unpack(rows.view("<u8")) == _unpack(rows) == masks

    @settings(max_examples=50, deadline=None)
    @given(packed_masks(sizes=(8, 64, 1024)))
    def test_strided_words_unpack_like_a_contiguous_copy(self, case):
        # a sweep plan's (words, masks) layout: column g of ``sel`` is mask g
        size, masks = case
        sel = np.ascontiguousarray(_pack(masks, size).view("<u8").T)
        for g, mask in enumerate(masks):
            col = sel[:, g][None]
            assert _unpack(col) == _unpack(col.copy()) == [mask]
        assert _unpack(sel.T) == masks
        assert _unpack(sel[:, ::2]) == _unpack(sel[:, ::2].copy())


class TestValidation:
    @pytest.mark.parametrize("n", [5, 2048])
    def test_top_qubit_accepted(self, n):
        top = 1 << (n - 1)
        assert str(PauliString(n, top, top, 3)) == f"-i Y{n}"

    @pytest.mark.parametrize("n", [5, 2048])
    @pytest.mark.parametrize("x_mask, z_mask", [("above", 0), (0, "above"),
                                                (-1, 0), (0, -1), (-2, 1)])
    def test_mask_outside_range_refused(self, n, x_mask, z_mask):
        x_mask, z_mask = (1 << n if m == "above" else m for m in (x_mask, z_mask))
        with pytest.raises(ValueError, match=rf"^mask has bits outside 1\.\.{n}$"):
            PauliString(n, x_mask, z_mask)

    @pytest.mark.parametrize("n", [5, 2048])
    def test_phase_exp_four_refused(self, n):
        with pytest.raises(ValueError, match=r"^phase exponent must be in 0\.\.3, got 4$"):
            PauliString(n, 1, 0, 4)

    def test_zero_qubits_refused(self):
        with pytest.raises(ValueError, match=r"^qubit count must be >= 1, got 0$"):
            PauliString(0, 0, 0)


class TestQubitRange:
    @pytest.mark.parametrize("n, q", [(3, 0), (3, -1), (3, 4), (3, 200),
                                      (2048, 0), (2048, -1), (2048, 2049)])
    @pytest.mark.parametrize("build", [PauliString.x_on, PauliString.z_on],
                             ids=["x_on", "z_on"])
    def test_qubit_outside_range_is_named(self, build, n, q):
        # the check comes before the shift, so q = -1 is named, not shifted
        with pytest.raises(ValueError, match=rf"^qubit {q} outside 1\.\.{n}$"):
            build(n, q)
        with pytest.raises(ValueError, match=rf"^qubit {q} outside 1\.\.{n}$"):
            build(n, 1, q)


@st.composite
def qubit_lists(draw):
    """n in 1..2100 and qubits in 1..n, weighted to the 64-bit word edges, with repeats."""
    n = draw(st.one_of(st.sampled_from((1, 63, 64, 65, 2048, 2100)), st.integers(1, 2100)))
    edges = sorted({q for q in (1, 63, 64, 65, n) if q <= n})
    qubit = st.one_of(st.sampled_from(edges), st.integers(1, n))
    qubits = draw(st.lists(qubit, max_size=12))
    if qubits and draw(st.booleans()):
        qubits.append(draw(st.sampled_from(qubits)))
    return n, qubits


class TestMaskOracle:
    """``x_on``/``z_on`` build masks; the dict builder ``from_ops`` is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(qubit_lists())
    def test_x_on_and_z_on_match_the_dict_builder(self, case):
        n, qubits = case
        assert PauliString.x_on(n, *qubits) == from_ops(n, {q: "X" for q in qubits})
        assert PauliString.z_on(n, *qubits) == from_ops(n, {q: "Z" for q in qubits})

    @pytest.mark.parametrize("q", [1, 63, 64, 70, 200])
    def test_numpy_integer_qubit_builds_the_same_pauli(self, q):
        for build in (PauliString.x_on, PauliString.z_on):
            got, want = build(200, np.int64(q)), build(200, q)
            assert got == want
            assert type(got.x_mask) is int and type(got.z_mask) is int
