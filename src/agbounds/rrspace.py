"""Riemann-Roch spaces for two-point divisors on the supported curves.

A Divisor here is a*Pinf + b*P0 minus an optional set of further affine
points, each subtracted with multiplicity one.  dim() computes
l(D) = dim L(D) by exact linear algebra:

    f in L(a*Pinf + b*P0 - sum Q_i)
        <=>  f = s^(-k) * g  with  k = max(0, ceil(b/m)),
             g in L((a + m*k) * Pinf),
             ord_0(g) >= m*k - b  and  g(Q_i) = 0,

where s is the shift function with divisor m*(P0 - Pinf) (y for
Hermitian curves, w for the Suzuki curve).  The vanishing conditions are
rows of local-expansion coefficients at the origin plus one evaluation
column per extra point, and l(D) is the dimension of the kernel.

No Riemann-Roch formula shortcut is used anywhere in dim(): exactness,
duality and shift invariance are theorems this module is tested
against, not inputs.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass

import numpy as np

from .curve import Curve, INFINITY, LocalExpansion, Monomial
from .field import rank_of, nullspace_of

__all__ = [
    "P_INF",
    "P_ORIGIN",
    "Divisor",
    "dim",
    "function_basis",
    "RationalFunction",
    "index_of_specialty",
    "divisor_gcd",
    "floor_divisor",
    "shift_divisor",
    "subtract_points",
    "is_gap",
    "semigroup",
    "save_dim_cache",
    "load_dim_cache",
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

    @property
    def is_two_point(self) -> bool:
        return not self.constraints

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


def subtract_points(curve: Curve, divisor: Divisor, points) -> Divisor:
    """Subtract each listed rational point once."""
    inf, origin = divisor.inf, divisor.origin
    cons = set(divisor.constraints)
    for pt in points:
        if pt is INFINITY:
            inf -= 1
        elif pt == curve.origin:
            origin -= 1
        else:
            if pt in cons:
                raise ValueError(f"point {pt} already subtracted")
            cons.add(pt)
    return Divisor(inf, origin, frozenset(cons))


class _Context:
    """Per-curve caches: monomial registry, expansion rows, dim results."""

    def __init__(self, curve: Curve):
        self.curve = curve
        self.field = curve.field
        self.W = 0
        self.maxpole = -1
        self.registry: list[Monomial] = []
        self.poles: list[int] = []
        self.COEFF = np.zeros((0, 0), dtype=np.uint8)
        self.value_cols: dict[tuple[int, int], np.ndarray] = {}
        self.dim_memo: dict[tuple, int] = {}

    def ensure(self, maxpole: int, prec: int) -> None:
        need_W = max(prec + 1, 8)
        if maxpole <= self.maxpole and need_W <= self.W:
            return
        self.maxpole = max(self.maxpole, maxpole, 32)
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


def _shift_data(curve: Curve, divisor: Divisor) -> tuple[int, int, int]:
    """(k, N, nzero) for the reduction f = s^(-k) g."""
    m = curve.shift_order
    b = divisor.origin
    k = max(0, -((-b) // m))
    return k, divisor.inf + m * k, m * k - b


def _constraint_matrix(ctx: _Context, divisor: Divisor, nb: int, nzero: int):
    pts = sorted(divisor.constraints)
    cols = nzero + len(pts)
    mat = np.zeros((nb, cols), dtype=np.uint8)
    mat[:, :nzero] = ctx.COEFF[:nb, :nzero]
    for j, pt in enumerate(pts):
        mat[:, nzero + j] = ctx.value_col(pt)[:nb]
    return mat


def _validate(curve: Curve, divisor: Divisor) -> None:
    for pt in divisor.constraints:
        if pt is INFINITY or pt == curve.origin:
            raise ValueError("constraints must be affine points other than the origin")
        if pt not in curve._value_cache and pt not in curve.affine_points:
            raise ValueError(f"{pt} is not a rational point of {curve.name}")


def dim(curve: Curve, divisor: Divisor) -> int:
    """dim L(divisor), by exact linear algebra over the curve's field."""
    ctx = _context(curve)
    key = (divisor.inf, divisor.origin, divisor.constraints)
    got = ctx.dim_memo.get(key)
    if got is not None:
        return got
    _validate(curve, divisor)
    k, N, nzero = _shift_data(curve, divisor)
    if N < 0:
        ell = 0
    else:
        ctx.ensure(N, nzero)
        nb = bisect.bisect_right(ctx.poles, N)
        if nb == 0:
            ell = 0
        elif nzero == 0 and not divisor.constraints:
            ell = nb
        else:
            mat = _constraint_matrix(ctx, divisor, nb, nzero)
            ell = nb - rank_of(ctx.field, mat)
    ctx.dim_memo[key] = ell
    return ell


@dataclass(frozen=True)
class RationalFunction:
    """s^(-shift_exp) times a linear combination of basis monomials."""

    curve: Curve
    shift_exp: int
    terms: tuple[tuple[int, Monomial], ...]

    def evaluate(self, pt) -> int:
        if pt is INFINITY:
            raise ValueError("cannot evaluate at infinity")
        f = self.curve.field
        if pt == self.curve.origin and self.shift_exp > 0:
            exp = self.expansion(1)
            v = exp.valuation()
            if v is not None and v < 0:
                raise ValueError("function has a pole at the origin")
            return exp.coefficient(0)
        acc = 0
        for c, mo in self.terms:
            acc = f.add(acc, f.mul(c, self.curve.evaluate_monomial(mo, pt)))
        if self.shift_exp:
            s = self.curve.gen_values(pt)[self.curve.shift_index]
            acc = f.mul(acc, f.pow(s, -self.shift_exp))
        return acc

    def expansion(self, prec: int) -> LocalExpansion:
        """Laurent expansion at the origin, exact at least on [.., prec)."""
        curve = self.curve
        f = curve.field
        m = curve.shift_order
        need = prec + m * self.shift_exp + 1
        gen_series = curve.series(need)
        W = len(next(iter(gen_series.values())))
        acc = np.zeros(W, dtype=np.uint8)
        for c, mo in self.terms:
            combo = curve.combo_series(tuple(mo.exps[1:]), need)[:W]
            a = mo.exps[0]
            if a < W:
                acc = f.ADD[acc, f.MUL[c, _shift_up(combo, a)]]
        g = LocalExpansion(f, 0, acc)
        if not self.shift_exp:
            return g
        s = LocalExpansion(f, 0, gen_series[curve.gens[curve.shift_index]])
        s_pow = s
        for _ in range(self.shift_exp - 1):
            s_pow = s_pow.mul(s)
        return g.mul(s_pow.inverse())

    def __repr__(self) -> str:
        return f"RationalFunction(shift_exp={self.shift_exp}, terms={len(self.terms)})"


def _shift_up(a: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(len(a), dtype=a.dtype)
    out[k:] = a[: len(a) - k]
    return out


def function_basis(curve: Curve, divisor: Divisor) -> list[RationalFunction]:
    """A basis of L(divisor); length always equals dim(curve, divisor)."""
    ctx = _context(curve)
    _validate(curve, divisor)
    k, N, nzero = _shift_data(curve, divisor)
    if N < 0:
        return []
    ctx.ensure(N, nzero)
    nb = bisect.bisect_right(ctx.poles, N)
    if nb == 0:
        return []
    monos = ctx.registry[:nb]
    if nzero == 0 and not divisor.constraints:
        vecs = [np.eye(nb, dtype=np.uint8)[i] for i in range(nb)]
    else:
        mat = _constraint_matrix(ctx, divisor, nb, nzero)
        vecs = nullspace_of(ctx.field, mat.T.copy())
    out = []
    for v in vecs:
        terms = tuple((int(c), mo) for c, mo in zip(v, monos) if c)
        out.append(RationalFunction(curve, k, terms))
    return out


def index_of_specialty(curve: Curve, divisor: Divisor) -> int:
    """i(D) = l(K - D) with K = (2g - 2) * Pinf."""
    if divisor.constraints:
        raise ValueError("index_of_specialty expects a two-point divisor")
    k = Divisor(2 * curve.genus - 2 - divisor.inf, -divisor.origin)
    return dim(curve, k)


def divisor_gcd(a: Divisor, b: Divisor) -> Divisor:
    """Pointwise minimum of two divisors."""
    return Divisor(min(a.inf, b.inf), min(a.origin, b.origin), a.constraints | b.constraints)


def floor_divisor(curve: Curve, divisor: Divisor) -> Divisor:
    """Smallest D' <= D supported at Pinf and P0 with L(D') = L(D).

    Only the two distinguished points are decremented, so this is the
    two-point floor.  Once a point refuses to decrement it never becomes
    removable again (the space stays equal to L(D) while the divisor
    shrinks), so one pass per point suffices.
    """
    ell = dim(curve, divisor)
    if ell == 0:
        raise ValueError("floor is undefined for a divisor with l(D) = 0")
    inf, origin = divisor.inf, divisor.origin
    while dim(curve, Divisor(inf - 1, origin, divisor.constraints)) == ell:
        inf -= 1
    while dim(curve, Divisor(inf, origin - 1, divisor.constraints)) == ell:
        origin -= 1
    return Divisor(inf, origin, divisor.constraints)


def is_gap(curve: Curve, n: int) -> bool:
    """True when no function has pole order exactly n at Pinf."""
    return dim(curve, Divisor(n, 0)) == dim(curve, Divisor(n - 1, 0))


def semigroup(curve: Curve, limit: int) -> list[int]:
    """Weierstrass non-gaps at Pinf up to and including limit."""
    return [n for n in range(limit + 1) if not is_gap(curve, n)]


def save_dim_cache(curve: Curve, path: str) -> int:
    """Write memoized two-point dim values as CSV; returns the row count."""
    ctx = _context(curve)
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "inf", "origin", "ell"])
        for (inf, origin, cons), ell in sorted(ctx.dim_memo.items()):
            if not cons:
                writer.writerow([curve.name, inf, origin, ell])
                n += 1
    return n


def load_dim_cache(curve: Curve, path: str, verify: bool = False) -> int:
    """Load CSV rows written by save_dim_cache; returns rows accepted."""
    ctx = _context(curve)
    n = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["curve"] != curve.name:
                continue
            inf, origin, ell = int(row["inf"]), int(row["origin"]), int(row["ell"])
            if verify:
                ctx.dim_memo.pop((inf, origin, frozenset()), None)
                got = dim(curve, Divisor(inf, origin))
                if got != ell:
                    raise ValueError(
                        f"cache mismatch for ({inf},{origin}): file {ell}, computed {got}"
                    )
            ctx.dim_memo[(inf, origin, frozenset())] = ell
            n += 1
    return n
