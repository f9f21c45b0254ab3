"""Evaluation codes C_L(D, G), their duals C_Omega(D, G), and a
brute-force minimum-distance oracle used to certify the bounds on
curves small enough to enumerate.

D is the sum of the rational points away from the divisor support:
every affine point except the origin for two-point G, and all affine
points (origin included) for one-point G at Pinf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import af_bound, designed_distance, floor_bound, kp_bound
from .curve import Curve, make_curve
from .field import _row_reduce, nullspace_of
from .rrspace import Divisor, P_INF, P_ORIGIN, dim, function_basis, subtract_points

__all__ = [
    "Code",
    "evaluation_points",
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


def cl_code(curve: Curve, G: Divisor, one_point: bool = False) -> Code:
    """Evaluation code: rows are a basis of L(G) evaluated on D."""
    _require_code_divisor(curve, G, one_point)
    pts = evaluation_points(curve, one_point)
    basis = function_basis(curve, G)
    rows = [[f.evaluate(p) for p in pts] for f in basis]
    mat = np.array(rows, dtype=np.uint8).reshape(len(basis), len(pts))
    # dimension by Riemann-Roch: functions vanishing on all of D
    k_expected = dim(curve, G) - dim(curve, subtract_points(curve, G, pts))
    field = curve.field
    work = mat.copy()
    rank, _ = _row_reduce(field, work, full=True)
    if rank != k_expected:
        raise RuntimeError("internal error: evaluation rank disagrees with l(G) - l(G-D)")
    gen = work[:rank].copy()
    return Code(curve.name, G, "CL", pts, gen)


def comega_code(curve: Curve, G: Divisor, one_point: bool = False) -> Code:
    """The residue code, constructed as the exact dual of C_L(D, G)."""
    cl = cl_code(curve, G, one_point)
    field = curve.field
    n = len(cl.points)
    kernel = nullspace_of(field, cl.generator.copy())
    dual = np.array(kernel, dtype=np.uint8).reshape(len(kernel), n)
    g = curve.genus

    def specialty(D: Divisor) -> int:
        return dim(curve, D) - D.degree - 1 + g

    G_minus_D = subtract_points(curve, G, cl.points)
    if dual.shape[0] != specialty(G_minus_D) - specialty(G):
        raise RuntimeError("internal error: dual dimension disagrees with i(G-D) - i(G)")
    if dual.shape[0] != n - cl.k:
        raise RuntimeError("internal error: dual dimension is not n - k")
    return Code(curve.name, G, "COmega", cl.points, dual)


_CHUNK = 1 << 18  # words compared per chunk in _weight_counts: bounds its memory


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


def verify_soundness(
    curve: Curve,
    deg_range: tuple[int, int] = (1, 8),
    budget: int = 2**24,
    coeff_window: tuple[int, int] = (-8, 6),
    rng=None,
) -> dict:
    """Certify brute distance >= af >= max(floor, kp, designed) on every
    two-point G in the window with an enumerable dual code.

    A sweep that checks no divisor reports ok = False: it certifies nothing.
    """
    lo, hi = coeff_window
    dlo, dhi = deg_range
    divisors = [
        Divisor(a, b)
        for a in range(lo, hi + 1)
        for b in range(lo, hi + 1)
        if dlo <= a + b <= dhi
    ]
    if rng is not None:
        rng.shuffle(divisors)  # scan order only; coverage stays exhaustive
    checked = skipped_trivial = skipped_budget = 0
    violations: list[dict] = []
    for G in divisors:
        code = comega_code(curve, G)
        if code.k == 0:
            skipped_trivial += 1
            continue
        q = len(curve.field)
        if q**code.k > budget:
            skipped_budget += 1
            continue
        d_true = min_distance_exhaustive(code, budget)
        af = af_bound(curve, G)
        others = {
            "designed": designed_distance(curve, G).value,
            "floor": None,
            "kp_Pinf": None,
            "kp_P0": None,
        }
        fl = floor_bound(curve, G)
        if fl is not None:
            others["floor"] = fl.value
        for point, tag in ((P_INF, "kp_Pinf"), (P_ORIGIN, "kp_P0")):
            kp = kp_bound(curve, G, point)
            if kp is not None:
                others[tag] = kp.value
        floor_kp = [v for v in others.values() if v is not None]
        ok = d_true >= af.value and all(af.value >= v for v in floor_kp)
        checked += 1
        if not ok:
            violations.append(
                {"G": G, "d_true": d_true, "af": af.value, **others}
            )
    return {
        "curve": curve.name,
        "checked": checked,
        "skipped_trivial": skipped_trivial,
        "skipped_budget": skipped_budget,
        "violations": violations,
        "ok": checked > 0 and not violations,
    }
