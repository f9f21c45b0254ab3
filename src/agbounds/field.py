"""Arithmetic in the small finite fields GF(4), GF(8), GF(9) and GF(16).

Field elements are plain ints.  The element with coordinates
(c_0, c_1, ..., c_{m-1}) in the polynomial basis 1, t, ..., t^{m-1}
over GF(p) is encoded as the integer c_0 + c_1*p + ... + c_{m-1}*p^(m-1).
Zero and one are therefore the integers 0 and 1 in every field, and the
basis generator t is the integer p.

A Field instance carries dense numpy lookup tables (ADD, MUL, NEG, INV)
so matrix routines can transform whole rows with fancy indexing instead
of Python inner loops.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "FieldSpec",
    "Field",
    "make_field",
    "rank_of",
    "nullspace_of",
]


class FieldSpec(NamedTuple):
    """Characteristic p, degree m, and monic modulus (low to high)."""

    p: int
    m: int
    modulus: tuple[int, ...]


# order -> coefficients c_0..c_m of the defining polynomial, low to high
_FIXED_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),         # t^2 + t + 1
    8: (1, 1, 0, 1),      # t^3 + t + 1
    9: (1, 0, 1),         # t^2 + 1
    16: (1, 1, 0, 0, 1),  # t^4 + t + 1
}

_CHARACTERISTIC = {4: 2, 8: 2, 9: 3, 16: 2}


def _digits(n: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(n % p)
        n //= p
    return out


def _index(coeffs: Sequence[int], p: int) -> int:
    n = 0
    for c in reversed(list(coeffs)):
        n = n * p + (c % p)
    return n


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    work = list(a)
    dm = len(mod) - 1
    for i in range(len(work) - 1, dm - 1, -1):
        c = work[i]
        if c:
            for j in range(dm + 1):
                work[i - dm + j] = (work[i - dm + j] - c * mod[j]) % p
    out = work[:dm]
    out.extend([0] * (dm - len(out)))
    return out


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    m = len(mod) - 1
    for d in range(1, m // 2 + 1):
        for tail in range(p**d):
            cand = _digits(tail, p, d) + [1]
            if not any(_poly_rem(mod, cand, p)):
                return False
    return True


class Field:
    """A finite field GF(p^m) with dense arithmetic tables."""

    def __init__(self, spec: FieldSpec):
        p, m, modulus = spec
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(c != c % p for c in modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")

        self.spec = spec
        self.p = p
        self.m = m
        self.q = p**m
        q = self.q

        add = np.zeros((q, q), dtype=np.uint8)
        mul = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            da = _digits(a, p, m)
            for b in range(a, q):
                db = _digits(b, p, m)
                s = _index([(x + y) % p for x, y in zip(da, db)], p)
                add[a, b] = add[b, a] = s
                pr = _index(_poly_rem(_poly_mul(da, db, p), modulus, p), p)
                mul[a, b] = mul[b, a] = pr

        neg = np.zeros(q, dtype=np.uint8)
        for a in range(q):
            neg[a] = _index([(-x) % p for x in _digits(a, p, m)], p)

        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            inv[a] = int(np.flatnonzero(mul[a] == 1)[0])

        self.ADD = add
        self.MUL = mul
        self.NEG = neg
        self.INV = inv

    # -- scalar operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        return int(self.INV[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = int(self.MUL[r, a])
            a = int(self.MUL[a, a])
            e >>= 1
        return r

    def elements(self) -> range:
        return range(self.q)

    def __len__(self) -> int:
        return self.q

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def make_field(order: int) -> Field:
    """Shared Field instance for one of the supported orders 4, 8, 9, 16."""
    if order not in _FIXED_MODULI:
        raise ValueError(
            f"unsupported field order {order}; supported: {sorted(_FIXED_MODULI)}"
        )
    p = _CHARACTERISTIC[order]
    mod = _FIXED_MODULI[order]
    return Field(FieldSpec(p, len(mod) - 1, mod))


# -- dense linear algebra over a Field ------------------------------------


def _row_reduce(field: Field, mat: np.ndarray, full: bool) -> tuple[int, list[int]]:
    """In-place Gaussian elimination; returns (rank, pivot columns).

    With full=True the result is the reduced row echelon form, otherwise
    only entries below the pivots are cleared.
    """
    MUL, ADD, NEG, INV = field.MUL, field.ADD, field.NEG, field.INV
    rows, cols = mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(mat[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            mat[[r, i]] = mat[[i, r]]
        pv = int(mat[r, c])
        if pv != 1:
            mat[r] = MUL[INV[pv], mat[r]]
        if full:
            others = np.flatnonzero(mat[:, c])
            others = others[others != r]
        else:
            others = r + 1 + np.flatnonzero(mat[r + 1 :, c])
        if others.size:
            factors = NEG[mat[others, c]]
            mat[others] = ADD[mat[others], MUL[factors[:, None], mat[r][None, :]]]
        pivots.append(c)
        r += 1
    return r, pivots


def rank_of(field: Field, mat: np.ndarray) -> int:
    """Rank of a matrix of field indices (not modified)."""
    if mat.size == 0:
        return 0
    m = np.array(mat, dtype=np.uint8)
    if m.shape[0] > m.shape[1]:
        m = np.ascontiguousarray(m.T)
    rank, _ = _row_reduce(field, m, full=False)
    return rank


def nullspace_of(field: Field, mat: np.ndarray) -> list[np.ndarray]:
    """Basis of the right kernel {v : mat v = 0}, as uint8 vectors."""
    if mat.ndim != 2:
        raise ValueError("expected a 2d matrix")
    rows, cols = mat.shape
    if rows == 0:
        return [np.eye(cols, dtype=np.uint8)[i] for i in range(cols)]
    m = np.array(mat, dtype=np.uint8)
    _, pivots = _row_reduce(field, m, full=True)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = field.NEG[m[r, f]]
        basis.append(v)
    return basis
