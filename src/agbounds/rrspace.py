"""Riemann-Roch spaces for two-point divisors on the supported curves.

A Divisor here is a*Pinf + b*P0 minus an optional set of further affine
points, each subtracted with multiplicity one.  dim() computes
l(D) = dim L(D) by exact linear algebra:

    f in L(a*Pinf + b*P0 - sum Q_i)
        <=>  f = s^(-k) * g  with  k = ceil(b/m),
             g in L((a + m*k) * Pinf),
             ord_0(g) >= m*k - b  and  g(Q_i) = 0,

where s is the shift function with divisor m*(P0 - Pinf) (y for
Hermitian curves, w for the Suzuki curve).  This holds for any integer
k, as s has no zero or pole off P0 and Pinf; k = ceil(b/m) keeps the
order m*k - b below m, so the cost follows deg D, not its coefficients.
The vanishing conditions are rows of power-series coefficients at the
origin plus one evaluation column per extra point, and l(D) is the
dimension of the kernel.

No Riemann-Roch formula shortcut is used anywhere in dim(): exactness,
duality and shift invariance are theorems this module is tested
against, not inputs.

Every bound search, `ell`, `floor`, is_gap() and semigroup() read one
table per curve instead, since l(a*Pinf + b*P0) = l~(a + b, b mod m):
dim() fills degrees 0..2g-1 once, and lt_window() pads it by Riemann-Roch
to degrees -6g+2..6g-4 (all that af and kp read for deg G >= 0).  lt_at()
reads one entry in Python ints, so a coefficient past 2^63 costs no
array; the floor search and floor_divisor() read it.  Otherwise dim()
only fills the table, re-checks witnesses and sizes codes, the last
through the two-point equivalent of the evaluation divisor
(codes.dimension).  Nothing in the package builds a constrained
divisor; they stay as the independent oracle for that equivalence.

function_basis() returns a basis of L(D) as a coefficient matrix C over
the registry monomials plus the shift exponent k: row i is the function
s^(-k) * sum_j C[i, j] * mono_j.  Codes evaluate it from the value table
of the registry monomials at each point (_Context.value_col), a column
of field gathers per monomial, then scale each point's column by s(P)^(-k).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .curve import Curve, INFINITY, Monomial
from .field import rank_of, nullspace_of

__all__ = [
    "P_INF",
    "P_ORIGIN",
    "Divisor",
    "dim",
    "function_basis",
    "floor_divisor",
    "shift_divisor",
    "is_gap",
    "semigroup",
]

P_INF = "Pinf"
P_ORIGIN = "P0"


@dataclass(frozen=True, slots=True)
class Divisor:
    """a*Pinf + b*P0 - (one point each from `constraints`)."""

    inf: int = 0
    origin: int = 0
    constraints: frozenset = frozenset()

    @property
    def degree(self) -> int:
        return self.inf + self.origin - len(self.constraints)

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.constraints or other.constraints:
            raise ValueError("arithmetic on constrained divisors is not supported")
        return Divisor(self.inf + other.inf, self.origin + other.origin)

    def __sub__(self, other: "Divisor") -> "Divisor":
        if self.constraints or other.constraints:
            raise ValueError("arithmetic on constrained divisors is not supported")
        return Divisor(self.inf - other.inf, self.origin - other.origin)

    def __repr__(self) -> str:
        parts = []
        if self.origin:
            parts.append(f"{self.origin}*P0")
        if self.inf:
            parts.append(f"{self.inf}*Pinf")
        if not parts:
            parts.append("0")
        if self.constraints:
            parts.append(f"- {len(self.constraints)} pts")
        return " + ".join(parts[:2]) + (" " + parts[2] if len(parts) > 2 else "")


def shift_divisor(curve: Curve, divisor: Divisor, k: int) -> Divisor:
    """Add k times the principal divisor m*(P0 - Pinf)."""
    m = curve.shift_order
    return Divisor(divisor.inf - k * m, divisor.origin + k * m, divisor.constraints)


class _Context:
    """Per-curve caches: monomial registry, expansion rows, dim results, l~."""

    def __init__(self, curve: Curve):
        self.curve = curve
        self.W = 0
        self.maxpole = -1
        self.registry: list[Monomial] = []
        self.poles: list[int] = []
        self.COEFF = np.zeros((0, 0), dtype=np.uint8)
        self.value_cols: dict[tuple[int, int], np.ndarray] = {}
        self.dim_memo: dict[tuple, int] = {}
        self.lt: tuple[np.ndarray, int] | None = None  # (l~ table, its lowest degree)

    def ensure(self, maxpole: int, prec: int) -> None:
        need_W = max(prec + 1, 8)
        if maxpole <= self.maxpole and need_W <= self.W:
            return
        if maxpole > self.maxpole:  # grow geometrically, as W does
            self.maxpole = max(2 * self.maxpole, maxpole, 32)
        self.W = max(self.W, 2 * need_W, 64)
        self.registry = self.curve.monomials(self.maxpole)
        self.poles = [mo.pole for mo in self.registry]
        curve, W = self.curve, self.W
        rows = np.zeros((len(self.registry), W), dtype=np.uint8)
        for i, mo in enumerate(self.registry):
            combo = curve.combo_series(tuple(mo.exps[1:]), W)
            a = mo.exps[0]
            if a < W:
                rows[i, a:] = combo[: W - a]
        self.COEFF = rows
        self.value_cols = {}

    def value_col(self, pt: tuple[int, int]) -> np.ndarray:
        col = self.value_cols.get(pt)
        if col is None or len(col) != len(self.registry):
            col = np.array(
                [self.curve.evaluate_monomial(mo, pt) for mo in self.registry],
                dtype=np.uint8,
            )
            self.value_cols[pt] = col
        return col


def _context(curve: Curve) -> _Context:
    ctx = getattr(curve, "_rr_context", None)
    if ctx is None:
        ctx = _Context(curve)
        curve._rr_context = ctx
    return ctx


def _validate(curve: Curve, divisor: Divisor) -> None:
    for pt in divisor.constraints:
        if pt is INFINITY or pt == curve.origin:
            raise ValueError("constraints must be affine points other than the origin")
        if pt not in curve._value_cache and pt not in curve.affine_points:
            raise ValueError(f"{pt} is not a rational point of {curve.name}")


def _conditions(curve: Curve, divisor: Divisor) -> tuple[int, int, np.ndarray | None]:
    """(k, nb, mat) for the reduction f = s^(-k) g, k = ceil(b/m): g ranges
    over the first nb registry monomials, and the kernel of mat (one column
    per vanishing condition on g) is L(divisor); mat is None when no
    condition applies."""
    _validate(curve, divisor)
    m = curve.shift_order
    k = -((-divisor.origin) // m)
    N, nzero = divisor.inf + m * k, m * k - divisor.origin  # 0 <= nzero < m
    if N < 0:
        return k, 0, None
    ctx = _context(curve)
    ctx.ensure(N, nzero)
    nb = bisect.bisect_right(ctx.poles, N)
    if nb == 0 or (nzero == 0 and not divisor.constraints):
        return k, nb, None
    pts = sorted(divisor.constraints)
    mat = np.zeros((nb, nzero + len(pts)), dtype=np.uint8)
    mat[:, :nzero] = ctx.COEFF[:nb, :nzero]
    for j, pt in enumerate(pts):
        mat[:, nzero + j] = ctx.value_col(pt)[:nb]
    return k, nb, mat


def dim(curve: Curve, divisor: Divisor) -> int:
    """dim L(divisor), by exact linear algebra over the curve's field."""
    ctx = _context(curve)
    key = (divisor.inf, divisor.origin, divisor.constraints)
    got = ctx.dim_memo.get(key)
    if got is not None:
        return got
    _, nb, mat = _conditions(curve, divisor)
    ell = nb if mat is None else nb - rank_of(curve.field, mat)
    ctx.dim_memo[key] = ell
    return ell


def lt_window(curve: Curve, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """l~ for degrees lo..hi as (array, offset), array[d - offset, r] = l~(d, r)."""
    ctx = _context(curve)
    g, m = curve.genus, curve.shift_order
    if ctx.lt is None:  # dim() fills degrees 0..2g-1, padded once to the stored window
        fill = [[dim(curve, Divisor(d - r, r)) for r in range(m)] for d in range(2 * g)]
        ctx.lt = np.array(fill, dtype=np.int64), 0
        ctx.lt = lt_window(curve, 2 - 6 * g, 6 * g - 4)
    LT, off = ctx.lt
    if off <= lo and hi < off + len(LT):
        return ctx.lt
    d = np.arange(lo, hi + 1, dtype=np.int64)[:, None]  # Riemann-Roch outside 0..2g-1
    inside = LT[np.clip(d[:, 0], 0, 2 * g - 1) - off]
    return np.where((d >= 0) & (d < 2 * g), inside, np.maximum(d + 1 - g, 0)), lo


def lt_at(curve: Curve, d: int, r: int) -> int:
    """l~(d, r) for one degree: Riemann-Roch in Python ints outside 0..2g-1."""
    g = curve.genus
    if not 0 <= d < 2 * g:
        return max(d + 1 - g, 0)
    LT, off = lt_window(curve, 0, 2 * g - 1)
    return int(LT[d - off, r % curve.shift_order])


def function_basis(curve: Curve, divisor: Divisor) -> tuple[np.ndarray, int]:
    """A basis of L(divisor) as (C, k): row i is s^(-k) * sum_j C[i, j] * mono_j
    over the first C.shape[1] registry monomials, those of pole order at most
    divisor.inf + m*k; C has dim(curve, divisor) rows."""
    k, nb, mat = _conditions(curve, divisor)
    if mat is None:
        return np.eye(nb, dtype=np.uint8), k
    return np.array(nullspace_of(curve.field, mat.T.copy()), dtype=np.uint8).reshape(-1, nb), k


def floor_divisor(curve: Curve, divisor: Divisor) -> Divisor:
    """Smallest D' <= D supported at Pinf and P0 with L(D') = L(D).

    Only the two distinguished points are decremented, so this is the
    two-point floor.  Once a point refuses to decrement it never becomes
    removable again (the space stays equal to L(D) while the divisor
    shrinks), so one pass per point suffices.  Each pass reads l~ and
    stops within 2g + 1 steps: l = 0 below degree 0, and from degree 2g
    on every step drops l.
    """
    if divisor.constraints:
        raise ValueError("floor is defined for two-point divisors only")
    inf, origin = divisor.inf, divisor.origin
    ell = lt_at(curve, inf + origin, origin)
    if ell == 0:
        raise ValueError("floor is undefined for a divisor with l(D) = 0")
    while lt_at(curve, inf + origin - 1, origin) == ell:
        inf -= 1
    while lt_at(curve, inf + origin - 1, origin - 1) == ell:
        origin -= 1
    return Divisor(inf, origin)


def is_gap(curve: Curve, n: int) -> bool:
    """True when no function has pole order exactly n at Pinf."""
    return lt_at(curve, n, 0) == lt_at(curve, n - 1, 0)


def semigroup(curve: Curve, limit: int) -> list[int]:
    """Weierstrass non-gaps at Pinf up to and including limit."""
    return [n for n in range(limit + 1) if not is_gap(curve, n)]
