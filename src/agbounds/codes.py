"""Evaluation codes C_L(D, G), their duals C_Omega(D, G), and a
brute-force minimum-distance oracle used to certify the bounds on
curves small enough to enumerate.

D is the sum of the rational points away from the divisor support:
every affine point except the origin for two-point G, and all affine
points (origin included) for one-point G at Pinf.  With n_all affine
points, D ~ n_all*Pinf - P0 for two-point codes and D ~ n_all*Pinf for
one-point codes, so dimension() sizes every code from two two-point
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _candidates
from .curve import Curve, make_curve
from .field import _row_reduce, nullspace_of
from .rrspace import Divisor, _context, dim, function_basis

__all__ = [
    "Code",
    "evaluation_points",
    "dimension",
    "cl_code",
    "comega_code",
    "min_distance_exhaustive",
    "weight_enumerator",
    "verify_soundness",
]


@dataclass(frozen=True)
class Code:
    curve: str
    divisor: Divisor
    kind: str  # "CL" or "COmega"
    points: tuple[tuple[int, int], ...]
    generator: np.ndarray  # (k, n) over the curve's field, full rank

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    def __repr__(self) -> str:
        return f"Code({self.kind}, {self.curve}, G={self.divisor}, n={self.n}, k={self.k})"


def evaluation_points(curve: Curve, one_point: bool = False) -> tuple[tuple[int, int], ...]:
    """Canonical evaluation order: affine points as enumerated, minus
    the origin unless the code is one-point at Pinf."""
    if one_point:
        return tuple(curve.affine_points)
    return tuple(p for p in curve.affine_points if p != curve.origin)


def _require_code_divisor(curve: Curve, G: Divisor, one_point: bool) -> None:
    if G.constraints:
        raise ValueError("code divisors must be two-point")
    if one_point and G.origin != 0:
        raise ValueError("one_point codes need G supported at Pinf only")


def dimension(curve: Curve, G: Divisor, one_point: bool = False) -> int:
    """dim C_L(D, G) = l(G) - l(G - D).  x^Q - x (Q the field size) has a
    simple zero at every affine point and its only pole, of order n_all,
    at Pinf, so D ~ n_all*Pinf - P0 (two-point D leaves out the origin)
    or D ~ n_all*Pinf (one-point D keeps it)."""
    n = len(evaluation_points(curve, one_point))
    if G.degree - n >= 2 * curve.genus - 1:  # G and G - D are non-special
        return n
    n_all = len(curve.affine_points)
    return dim(curve, G) - dim(curve, Divisor(G.inf - n_all, G.origin + (not one_point)))


def cl_code(curve: Curve, G: Divisor, one_point: bool = False) -> Code:
    """Evaluation code: rows are a basis of L(G) evaluated on D."""
    _require_code_divisor(curve, G, one_point)
    pts = evaluation_points(curve, one_point)
    k_L = dimension(curve, G, one_point)
    if k_L == len(pts):  # C_L is the whole space: the identity is its reduced generator
        return Code(curve.name, G, "CL", pts, np.eye(k_L, dtype=np.uint8))
    coeffs, k = function_basis(curve, G)
    field, ctx = curve.field, _context(curve)
    values = np.array([ctx.value_col(p)[: coeffs.shape[1]] for p in pts], dtype=np.uint8)
    mat = np.zeros((len(coeffs), len(pts)), dtype=np.uint8)
    for c, v in zip(coeffs.T, values.T):  # one registry monomial at a time
        mat = field.ADD[mat, field.MUL[c[:, None], v]]
    # s vanishes only at the origin, which two-point D leaves out (k = 0 otherwise)
    scale = [field.pow(curve.gen_values(p)[curve.shift_index], -k) for p in pts]
    mat = field.MUL[mat, np.array(scale, dtype=np.uint8)]
    rank, _ = _row_reduce(field, mat, full=True)
    if rank != k_L:
        raise RuntimeError("internal error: evaluation rank disagrees with l(G) - l(G-D)")
    return Code(curve.name, G, "CL", pts, mat[:rank].copy())


def comega_code(curve: Curve, G: Divisor, one_point: bool = False) -> Code:
    """The residue code, constructed as the exact dual of C_L(D, G)."""
    cl = cl_code(curve, G, one_point)
    field = curve.field
    n = len(cl.points)
    kernel = nullspace_of(field, cl.generator.copy())
    dual = np.array(kernel, dtype=np.uint8).reshape(len(kernel), n)
    if dual.shape[0] != n - cl.k:
        raise RuntimeError("internal error: dual dimension is not n - k")
    return Code(curve.name, G, "COmega", cl.points, dual)


# words compared per chunk in _weight_counts: bounds its memory, about 10 bytes
# a word, since bincount widens each match count to an 8-byte index
_CHUNK = 1 << 16


def _span(field, rows: np.ndarray) -> np.ndarray:
    """All q^len(rows) linear combinations of `rows`, one per column."""
    span = np.zeros((rows.shape[1], 1), dtype=np.uint8)
    for row in rows:
        span = field.ADD[span[:, :, None], field.MUL[row][:, None, :]].reshape(len(span), -1)
    return span


def _weight_counts(code: Code, budget: int) -> np.ndarray:
    """Codewords of each weight 0..n, by meet in the middle: each codeword
    is l - h once, l in the span of the last ceil(k/2) rows and h in that
    of the first floor(k/2) (a subspace, so -h ranges over it too), and
    weight(l - h) = n - #{c : l[c] = h[c]}, counted for a chunk of h
    against every l one coordinate at a time."""
    field = make_curve(code.curve).field
    q, k, n = len(field), code.k, code.n
    if q**k > budget:
        raise ValueError(f"budget exceeded: {q}^{k} > {budget}")
    low = _span(field, code.generator[k // 2 :])
    high = _span(field, code.generator[: k // 2])
    step = max(1, _CHUNK // low.shape[1])
    matches = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, high.shape[1], step):
        block = high[:, start : start + step]
        agree = np.zeros((block.shape[1], low.shape[1]), dtype=np.min_scalar_type(n))
        for c in range(n):
            agree += block[c][:, None] == low[c][None, :]
        matches += np.bincount(agree.ravel(), minlength=n + 1)
    return matches[::-1]


def min_distance_exhaustive(code: Code, budget: int = 2**24) -> int:
    """Exact minimum weight over all q^k codewords."""
    if code.k == 0:
        raise ValueError("trivial code")
    counts = _weight_counts(code, budget)
    counts[0] -= 1  # the zero word does not count
    return int(np.flatnonzero(counts)[0])


def weight_enumerator(code: Code, budget: int = 2**24) -> tuple[int, ...]:
    """Weight distribution (count of codewords per weight, 0..n)."""
    if code.k == 0:
        return (1,) + (0,) * code.n
    return tuple(int(c) for c in _weight_counts(code, budget))


def _certify_class(curve: Curve, G: Divisor, budget: int) -> tuple[str, dict | None]:
    """(outcome, violation) for G's shift class: the report count it adds
    to, and the class's bound values when they break d_true >= af >= the rest."""
    k = len(evaluation_points(curve)) - dimension(curve, G)  # dim C_Omega, before building
    if k == 0:
        return "skipped_trivial", None
    if len(curve.field) ** k > budget:
        return "skipped_budget", None
    d_true = min_distance_exhaustive(comega_code(curve, G), budget)
    rated = {r.method: r.value for r in _candidates(curve, G) if r is not None}
    af = rated["af"]
    if d_true >= af and max(rated.values()) <= af:
        return "checked", None
    keys = ("af", "designed", "floor", "kp_Pinf", "kp_P0")
    return "checked", {"d_true": d_true, **{key: rated.get(key) for key in keys}}


def verify_soundness(
    curve: Curve,
    deg_range: tuple[int, int] = (1, 8),
    budget: int = 2**24,
    coeff_window: tuple[int, int] = (-8, 6),
) -> dict:
    """Certify brute distance >= af >= max(floor, kp, designed) on every
    two-point G = a*Pinf + b*P0 in the window with an enumerable dual code.

    The work is done once per shift class (deg G, b mod m): G and
    G + j*m*(P0 - Pinf) differ by the divisor of s^j, so their codes differ
    by scaling the column of each point P by s(P)^j and have the same
    weights, and af, kp, the folded floor and designed read only the class.
    Each class is certified from its first member in window order, and
    every member is counted and, on a violation, listed.

    A sweep that checks no divisor reports ok = False: it certifies nothing.
    """
    lo, hi = coeff_window
    dlo, dhi = deg_range
    m = curve.shift_order
    classes: dict[tuple[int, int], tuple[str, dict | None]] = {}
    counts = {"checked": 0, "skipped_trivial": 0, "skipped_budget": 0}
    violations: list[dict] = []
    for a in range(lo, hi + 1):
        for b in range(max(lo, dlo - a), min(hi, dhi - a) + 1):
            key = (a + b, b % m)
            if key not in classes:
                classes[key] = _certify_class(curve, Divisor(a, b), budget)
            outcome, violation = classes[key]
            counts[outcome] += 1
            if violation is not None:
                violations.append({"G": Divisor(a, b), **violation})
    return {
        "curve": curve.name,
        **counts,
        "violations": violations,
        "ok": counts["checked"] > 0 and not violations,
    }
