"""Signed multi-qubit Pauli operators in symplectic (bit-mask) form.

Conventions, fixed once for the whole package:

 *  Qubits are numbered 1..n.  Bit ``q-1`` of ``x_mask`` / ``z_mask``
    belongs to qubit ``q``.
 *  The per-qubit symbol encoded by the bit pair (x, z) is
    (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, with no hidden phase: the mask
    pair (1,1) *is* the Hermitian Y.  Equivalently sigma_x sigma_z =
    -i sigma_y, so storing XZ as Y costs a factor -i which lives in
    ``phase_exp``.
 *  ``phase_exp`` is the exponent e of the unit prefactor i**e, e in
    {0,1,2,3}.  Hermitian strings have e in {0,2}.
 *  Products follow the single-qubit algebra XY=iZ, YZ=iX, ZX=iY (and
    the reversed orders pick up -i).

Masks are plain Python ints, so popcounts and XORs run on machine words
regardless of qubit count, and every string is built from them: ``x_on`` and
``z_on`` OR one bit per qubit into a mask.  Text comes from one renderer,
``render``, on stacks of rows given as packed x and z bit matrices: it
unpacks only their nonzero bytes, and the nonzero entries of x + 2z index
one table of ``<letter><qubit>`` tokens, one join per row.  ``paulis_text``
feeds it 64 Paulis at a time, ``str`` one, and the tableau one 64-row word
of its columns at a time.  ``_pack`` and ``_unpack`` are the one layout of
masks as packed rows, read as bytes here and as ``<u8`` words by the tableau.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

PHASE_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
# the label before the support: a space after an imaginary one
_PREFIX = {e: label + " " * (e % 2) for e, label in PHASE_LABELS.items()}
_PHASE_VALUES = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


def _ones(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending; one step per set bit."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _qubit_mask(n: int, qubits: tuple[int, ...]) -> int:
    """The mask with bit ``q-1`` set for each qubit q; a repeated qubit sets it once."""
    mask = 0
    for q in qubits:
        q = operator.index(q)       # a Python int, so the shift below cannot wrap
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} outside 1..{n}")
        mask |= 1 << (q - 1)
    return mask


def render(chunks, n: int) -> list[str]:
    """Text of each row of a stack of n-qubit Paulis: the phase label, then
    ``<letter><qubit>`` per support qubit in ascending order (``I`` for none).

    The stack comes in chunks ``(x, z, phase_exps)``: x and z are (rows,
    ceil(n/8)) uint8 bit matrices, packed little-endian (bit q-1 of a row is
    qubit q), and ``phase_exps`` holds each row's exponent of i.  Only the
    nonzero bytes are unpacked; the nonzero entries of x + 2z then index one
    table of 3n tokens, built for this call."""
    table = np.array([f"{letter}{q}" for letter in "XZY" for q in range(1, n + 1)], object)
    out: list[str] = []
    for x, z, phase_exps in chunks:
        r, byte = np.nonzero(x | z)     # row-major, so each row's tokens are contiguous
        code = (np.unpackbits(x[r, byte, None], axis=1, bitorder="little")
                + 2 * np.unpackbits(z[r, byte, None], axis=1, bitorder="little"))
        i, bit = np.nonzero(code)
        tokens = table[(code[i, bit].astype(np.intp) - 1) * n + 8 * byte[i] + bit].tolist()
        start = 0
        for e, end in zip(phase_exps, np.cumsum(np.bincount(r[i], minlength=len(x))).tolist()):
            out.append(_PREFIX[e] + (" ".join(tokens[start:end]) or "I"))
            start = end
    return out


def _pack(masks, size: int) -> np.ndarray:
    """The (len(masks), size) uint8 rows of non-negative masks below 2**(8 size),
    each little-endian: bit i of a mask is bit i % 8 of byte i // 8."""
    raw = b"".join([m.to_bytes(size, "little") for m in masks])
    return np.frombuffer(raw, np.uint8).reshape(len(masks), size)


def _unpack(rows: np.ndarray) -> list[int]:
    """The masks of the rows of a 2-D array in ``_pack``'s layout: uint8 rows, or
    their ``view("<u8")`` words; any strides."""
    raw = rows.astype(rows.dtype.newbyteorder("<"), copy=False).tobytes()
    size = rows.shape[1] * rows.itemsize
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def paulis_text(paulis) -> list[str]:
    """``str`` of each of a sequence of Paulis on one qubit count, in one
    ``render`` call fed 64 Paulis at a time."""
    n = paulis[0].n if paulis else 1
    size = -(-n // 8)
    parts = (paulis[start:start + 64] for start in range(0, len(paulis), 64))
    return render(((_pack([p.x_mask for p in part], size), _pack([p.z_mask for p in part], size),
                    [p.phase_exp for p in part]) for part in parts), n)


def mul_phase_exp(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i picked up when multiplying mask pairs (x1,z1)*(x2,z2).

    A mask pair (x, z) is i**|x&z| X^x Z^z (Y = iXZ), and moving Z^z1 past
    X^x2 costs (-1)**|z1&x2|; the product's own Y factors take i**|x&z| back.
    """
    return ((x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
            - ((x1 ^ x2) & (z1 ^ z2)).bit_count()) % 4


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i**phase_exp * P_1 (x) ... (x) P_n``."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if (self.x_mask | self.z_mask) >> self.n:     # also nonzero for a negative mask
            raise ValueError(f"mask has bits outside 1..{self.n}")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase_exp}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> PauliString:
        return cls(n, 0, 0, 0)

    @classmethod
    def x_on(cls, n: int, *qubits: int) -> PauliString:
        return cls(n, _qubit_mask(n, qubits), 0)

    @classmethod
    def z_on(cls, n: int, *qubits: int) -> PauliString:
        return cls(n, 0, _qubit_mask(n, qubits))

    # -- basic queries -----------------------------------------------------

    @property
    def phase(self) -> complex:
        """The unit prefactor as a complex number."""
        return _PHASE_VALUES[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: PauliString) -> PauliString:
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n} qubits")
        e = (self.phase_exp + other.phase_exp
             + mul_phase_exp(self.x_mask, self.z_mask, other.x_mask, other.z_mask)) % 4
        return PauliString(self.n, self.x_mask ^ other.x_mask,
                           self.z_mask ^ other.z_mask, e)

    def commutes(self, other: PauliString) -> bool:
        """True iff the symplectic inner product is even."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n} qubits")
        return ((self.x_mask & other.z_mask) ^ (self.z_mask & other.x_mask)).bit_count() % 2 == 0

    def adjoint(self) -> PauliString:
        return PauliString(self.n, self.x_mask, self.z_mask, (-self.phase_exp) % 4)

    # -- conversion --------------------------------------------------------

    def __str__(self) -> str:
        """Phase label, then ``<letter><qubit>`` per support qubit (``render``)."""
        return paulis_text((self,))[0]
