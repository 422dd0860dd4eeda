"""Builders for the k x k toric model and the 6-qubit planar variant.

Toric layout: cells (r, c) scan row-major; each cell owns its horizontal
bond first, then its vertical bond, so bond ("h", r, c) sits on qubit
2*(r*k + c) + 1 and ("v", r, c) on the next index (1-based).  The
horizontal bond of cell (r, c) joins vertices (r, c)-(r, c+1); the
vertical bond joins (r, c)-(r+1, c); all coordinates wrap mod k.
In mask form (bit q-1 is qubit q), ("h", r, c) is bit 2*(r*k + c) and
("v", r, c) the bit above it, so ``build_toric`` ORs each generator's four
bonds straight into one mask: a vertex is the X mask
h(r,c) | h(r,c-1) | (h(r,c) | h(r-1,c)) << 1, and a face is the Z mask
h(r,c) | h(r+1,c) | (h(r,c) | h(r,c+1)) << 1.

Generator order everywhere: vertex operators first, then face
operators, each in scan order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dense import DENSE_LIMIT, Circuit, Gate, StateVector, apply_pauli, expect_pauli
from .pauli import PauliString

EIGENVALUE_TOL = 1e-9
# largest toric k: each of the 2k^2 generators holds one non-zero mask, as
# long as its highest bond, so the masks take about k^4/4 bytes in all
# (sys.getsizeof over both masks of every generator: 0.41 MB at k = 32,
# 5.05 MB at k = 64; about 2 GB at k = 300)
TORIC_K_LIMIT = 64


@dataclass(frozen=True)
class LatticeModel:
    n_qubits: int
    vertex_ops: tuple[PauliString, ...]
    face_ops: tuple[PauliString, ...]
    vertex_ids: tuple[str, ...]
    face_ids: tuple[str, ...]
    geometry: str                      # "torus:k" | "planar6"
    qubit_layout: dict[tuple, int]     # bond id -> qubit (1-based)

    # built on first use and kept; not fields, so ==, replace and repr never see them
    @cached_property
    def generators(self) -> tuple[PauliString, ...]:
        return self.vertex_ops + self.face_ops

    @cached_property
    def generator_ids(self) -> tuple[str, ...]:
        return self.vertex_ids + self.face_ids

    @property
    def torus_k(self) -> int | None:
        if self.geometry.startswith("torus:"):
            return int(self.geometry.split(":")[1])
        return None


def build_toric(k: int) -> LatticeModel:
    """k x k toric model on 2k^2 bond qubits."""
    if k < 2:
        raise ValueError(f"toric lattice needs k >= 2, got {k}")
    if k > TORIC_K_LIMIT:
        raise ValueError(f"toric lattice k = {k} is above the cap of {TORIC_K_LIMIT}")
    n = 2 * k * k
    cells = [(r, c) for r in range(k) for c in range(k)]
    layout: dict[tuple, int] = {}
    for r, c in cells:
        layout[("h", r, c)] = 2 * (r * k + c) + 1
        layout[("v", r, c)] = 2 * (r * k + c) + 2

    def h(r: int, c: int) -> int:      # the mask bit of ("h", r, c), wrapped
        return 1 << 2 * (r % k * k + c % k)

    return LatticeModel(
        n,
        tuple(PauliString(n, h(r, c) | h(r, c - 1) | (h(r, c) | h(r - 1, c)) << 1, 0)
              for r, c in cells),
        tuple(PauliString(n, 0, h(r, c) | h(r + 1, c) | (h(r, c) | h(r, c + 1)) << 1)
              for r, c in cells),
        tuple(f"A({r},{c})" for r, c in cells), tuple(f"B({r},{c})" for r, c in cells),
        f"torus:{k}", layout)


def sector_x_strings(model: LatticeModel,
                     logical_choice: tuple[int, int]) -> list[PauliString]:
    """The dual X strings that take |0...0>'s Z loops (both +1) to ``logical_choice``:
    string j crosses loop j once, so it flips that sign alone, and it commutes
    with every generator."""
    k = model.torus_k
    if k is None:
        raise ValueError(f"toric ground needs a torus model, got {model.geometry}")
    if len(logical_choice) != 2 or any(b not in (0, 1) for b in logical_choice):
        raise ValueError(f"logical_choice must be two bits, got {logical_choice}")
    n = model.n_qubits
    strings = (PauliString.x_on(n, *(model.qubit_layout[("h", r, 0)] for r in range(k))),
               PauliString.x_on(n, *(model.qubit_layout[("v", 0, c)] for c in range(k))))
    return [s for bit, s in zip(logical_choice, strings) if bit]


def toric_ground_state(model: LatticeModel,
                       logical_choice: tuple[int, int] = (0, 0)) -> StateVector:
    """Dense toric ground state in the Z-loop sector ``logical_choice``:
    prod_v (1 + A_v)/2 on |0...0> (a +1 eigenstate of every face and both Z
    loops), normalized, then the sector's dual X strings."""
    flips = sector_x_strings(model, logical_choice)
    n = model.n_qubits
    if n > DENSE_LIMIT:
        raise ValueError(f"dense toric ground of {n} qubits is above the dense "
                         f"limit of {DENSE_LIMIT}; use the tableau backend")
    state = StateVector.zero(n)
    for av in model.vertex_ops:
        state = StateVector(n, 0.5 * (state.amps + apply_pauli(state, av).amps))
    state = StateVector(n, state.amps / state.norm())
    for xstr in flips:
        state = apply_pauli(state, xstr)
    return state


def build_planar6() -> LatticeModel:
    """The 6-qubit planar model with two 3/4-body vertex terms and four faces."""
    n = 6
    vertex_ops = (PauliString.x_on(n, 1, 2, 3),
                  PauliString.x_on(n, 3, 4, 5, 6))
    face_ops = (PauliString.z_on(n, 1, 3, 4),
                PauliString.z_on(n, 2, 3, 5),
                PauliString.z_on(n, 4, 6),        # boundary faces are 2-body
                PauliString.z_on(n, 5, 6))
    layout = {(str(q),): q for q in range(1, 7)}
    return LatticeModel(n, vertex_ops, face_ops,
                        ("A1", "A2"), ("B1", "B2", "B3", "B4"),
                        "planar6", layout)


@dataclass(frozen=True)
class GraphSpec:
    """Graph plus per-qubit local gate ('I' or 'H') for state preparation."""

    n: int
    edges: tuple[tuple[int, int], ...]
    local_map: str

    def __post_init__(self):
        if len(self.local_map) != self.n:
            raise ValueError(f"local_map must have {self.n} entries")
        if any(ch not in "IH" for ch in self.local_map):
            raise ValueError(f"local_map may only contain I/H, got {self.local_map!r}")
        for (a, b) in self.edges:
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) outside 1..{self.n}")


def planar6_graph_spec() -> GraphSpec:
    return GraphSpec(6, ((1, 2), (1, 3), (3, 6), (4, 6), (5, 6)), "IHHHHI")


def ground_state_circuit(spec: GraphSpec) -> Circuit:
    """|+>^V, controlled-Z per edge, then the local I/H layer."""
    gates = [Gate("h", (q,)) for q in range(1, spec.n + 1)]
    gates += [Gate("cz", edge) for edge in spec.edges]
    gates += [Gate("h", (q + 1,)) for q, ch in enumerate(spec.local_map) if ch == "H"]
    return Circuit(spec.n, tuple(gates))


def syndrome(model: LatticeModel, state: StateVector) -> list[tuple[str, float]]:
    """(generator, value) pairs in generator order, from dense expectations.

    A value within EIGENVALUE_TOL of +/-1 is snapped to exactly +/-1.0, so
    ``abs(value) == 1`` marks a generator eigenstate; any other value is the
    raw expectation of a superposition across syndrome sectors (deliberate
    in the creation step here).
    """
    if state.n != model.n_qubits:
        raise ValueError(f"state is {state.n}-qubit, model needs {model.n_qubits}")
    out = []
    for gid, g in zip(model.generator_ids, model.generators):
        val = expect_pauli(state, g)
        if abs(abs(val) - 1.0) <= EIGENVALUE_TOL:
            val = 1.0 if val > 0 else -1.0
        out.append((gid, val))
    return out


def error_syndrome(model: LatticeModel, error: PauliString) -> list[tuple[str, int]]:
    """Generator eigenvalues after a Pauli error on a ground state, in generator order.

    A ground state is a +1 eigenstate of every generator, and E|psi> is a
    -1 eigenstate of exactly the generators that anticommute with E, so the
    syndrome is the parity of the symplectic product of E with each
    generator (Dennis et al., quant-ph/0110143).  It needs no state, and it
    is the same in every logical sector, because the logical X strings that
    select a sector commute with every generator.
    """
    if error.n != model.n_qubits:
        raise ValueError(f"error is {error.n}-qubit, model needs {model.n_qubits}")
    ex, ez = error.x_mask, error.z_mask
    return [(gid, -1 if ((g.x_mask & ez) ^ (g.z_mask & ex)).bit_count() & 1 else 1)
            for gid, g in zip(model.generator_ids, model.generators)]


def describe_model(model: LatticeModel, generator_text: list[str]) -> str:
    """Structured text: generator list plus the bond-to-qubit table.
    ``generator_text`` is the text of each generator (``paulis_text``)."""
    lines = [f"geometry: {model.geometry}", f"qubits: {model.n_qubits}", "generators:"]
    for gid, text in zip(model.generator_ids, generator_text):
        lines.append(f"  {gid} = {text}")
    lines.append("layout:")
    for bond, q in sorted(model.qubit_layout.items(), key=lambda kv: kv[1]):
        lines.append(f"  {':'.join(str(b) for b in bond)} -> q{q}")
    return "\n".join(lines)
