"""Riemann-Roch dimensions against independent oracles.

The one-point dimensions are forced by the Weierstrass semigroup, which
we recompute here by plain dynamic programming over the published
generators; the two-point grid is then pinned down by exactness,
duality, monotonicity and shift invariance.
"""

import random

import numpy as np
import pytest

from agbounds.codes import cl_code, dimension, evaluation_points
from agbounds.curve import make_curve
from agbounds.field import _row_reduce, rank_of
from agbounds.rrspace import (
    Divisor,
    dim,
    floor_divisor,
    function_basis,
    is_gap,
    lt_at,
    lt_window,
    semigroup,
    shift_divisor,
)

GENERATORS = {
    "hermitian4": (2, 3),
    "hermitian9": (3, 4),
    "hermitian16": (4, 5),
    "suzuki8": (8, 10, 12, 13),
}


def semigroup_oracle(gens, limit):
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for n in range(1, limit + 1):
        reachable[n] = any(g <= n and reachable[n - g] for g in gens)
    return [n for n in range(limit + 1) if reachable[n]]


@pytest.fixture(params=sorted(GENERATORS))
def curve(request):
    return make_curve(request.param)


def test_semigroup_matches_generated_semigroup(curve):
    want = semigroup_oracle(GENERATORS[curve.name], 60)
    assert semigroup(curve, 60) == want


def test_gap_count_is_genus(curve):
    gaps = [n for n in range(2 * curve.genus) if is_gap(curve, n)]
    assert len(gaps) == curve.genus


def test_gap_symmetry(curve):
    # n is a gap iff 2g - 1 - n is not: both semigroups are symmetric
    g = curve.genus
    for n in range(2 * g):
        assert is_gap(curve, n) == (not is_gap(curve, 2 * g - 1 - n))


def test_one_point_dims_follow_the_semigroup(curve):
    nongaps = set(semigroup_oracle(GENERATORS[curve.name], 80))
    for a in range(81):
        want = sum(1 for s in nongaps if s <= a)
        assert dim(curve, Divisor(a, 0)) == want
        assert dim(curve, Divisor(0, a)) == want  # P0 has the same semigroup


def test_negative_and_zero_divisors(curve):
    assert dim(curve, Divisor(0, 0)) == 1
    assert dim(curve, Divisor(-1, 0)) == 0
    assert dim(curve, Divisor(-3, 2)) == 0  # negative degree
    assert dim(curve, Divisor(-5, -5)) == 0


def test_riemann_roch_exactness(curve):
    g = curve.genus
    for a in range(-5, 3 * g + 3):
        for b in range(-5, 3 * g + 3):
            if a + b >= 2 * g - 1:
                assert dim(curve, Divisor(a, b)) == a + b + 1 - g


def test_duality(curve):
    # K ~ (2g-2)*Pinf because the semigroup at Pinf is symmetric
    g = curve.genus
    K = Divisor(2 * g - 2, 0)
    for a in range(-4, 2 * g + 4):
        for b in range(-4, 2 * g + 4):
            A = Divisor(a, b)
            assert dim(curve, A) - dim(curve, K - A) == A.degree + 1 - g


def test_monotonicity(curve):
    g = curve.genus
    rng = random.Random(11)
    for _ in range(120):
        a = rng.randint(-6, 2 * g + 6)
        b = rng.randint(-6, 2 * g + 6)
        base = dim(curve, Divisor(a, b))
        assert base <= dim(curve, Divisor(a + 1, b)) <= base + 1
        assert base <= dim(curve, Divisor(a, b + 1)) <= base + 1


def test_shift_invariance(curve):
    rng = random.Random(13)
    for _ in range(60):
        D = Divisor(rng.randint(-8, 30), rng.randint(-8, 30))
        for k in (-2, -1, 1, 2):
            assert dim(curve, shift_divisor(curve, D, k)) == dim(curve, D)


def test_lt_window_is_raw_dim(curve):
    # the stored l~ table and a fresh window past both of its ends
    g, m = curve.genus, curve.shift_order
    for lo, hi in ((2 - 6 * g, 6 * g - 4), (-6 * g - 3, 6 * g + 3)):
        LT, off = lt_window(curve, lo, hi)
        raw = [[dim(curve, Divisor(d - r, r)) for r in range(m)] for d in range(lo, hi + 1)]
        assert LT.dtype == np.int64
        assert np.array_equal(LT[lo - off : hi - off + 1], raw)


def hermitian_count(q, a, b):
    """l(a*Pinf + b*P0) on y^q + y = x^(q+1), with no linear algebra.

    x^i*y^j has poles only at Pinf and P0: its pole order at Pinf is
    iq + j(q+1), and its order at P0 is i + j(q+1), where x is a
    uniformizer and y vanishes to order q+1.  With 0 <= i <= q the pole orders at Pinf are distinct mod
    q+1, so these functions span every L(a*Pinf + b*P0), and l counts the
    (i, j) with iq + j(q+1) <= a and i + j(q+1) >= -b.
    """
    count = 0
    for i in range(q + 1):
        j_hi = (a - i * q) // (q + 1)
        j_lo = -((b + i) // (q + 1))  # ceil((-b - i) / (q+1))
        count += max(0, j_hi - j_lo + 1)
    return count


@pytest.mark.parametrize("name, q", [("hermitian4", 2), ("hermitian9", 3), ("hermitian16", 4)])
def test_hermitian_dims_match_a_monomial_count(name, q):
    curve = make_curve(name)
    g, m = curve.genus, curve.shift_order
    # the whole stored l~ window
    lo, hi = 2 - 6 * g, 6 * g - 4
    LT, off = lt_window(curve, lo, hi)
    for d in range(lo, hi + 1):
        assert [hermitian_count(q, d - r, r) for r in range(m)] == LT[d - off].tolist(), d
    # lt_at at +-1e25, in Python ints
    for d in (10**25 + 3, -(10**25) + 3):
        for r in range(m):
            assert lt_at(curve, d, r) == hermitian_count(q, d - r, r), (d, r)
    # raw dim() on a window of both coefficients
    for a in range(-2 * m, 2 * g + 2 * m):
        for b in range(-2 * m, 2 * g + 2 * m):
            assert dim(curve, Divisor(a, b)) == hermitian_count(q, a, b), (a, b)
    # code dimensions l(G) - l(G - D), D ~ q^3*Pinf - P0 (q^3*Pinf one-point),
    # as x^(q^2) - x vanishes once at every affine point
    n_all = q**3
    rng = random.Random(500 + q)
    for _ in range(60):
        d = rng.randint(-3, n_all + 2 * g + 3)
        b = rng.randint(-m, n_all)
        for G, one_point in ((Divisor(d - b, b), False), (Divisor(d, 0), True)):
            D_origin = 0 if one_point else 1
            want = hermitian_count(q, G.inf, G.origin) - hermitian_count(
                q, G.inf - n_all, G.origin + D_origin
            )
            assert dimension(curve, G, one_point) == want, (G, one_point)


def test_registry_grows_geometrically():
    # a fresh curve, so no earlier test has grown its monomial registry
    curve = type(make_curve("suzuki8"))()
    builds = []
    monomials = curve.monomials
    curve.monomials = lambda max_pole: builds.append(max_pole) or monomials(max_pole)
    nongaps = set(semigroup_oracle(GENERATORS["suzuki8"], 2000))
    ell = 0
    for n in range(2001):
        ell += n in nongaps
        assert dim(curve, Divisor(n, 0)) == ell, n
    assert len(builds) <= 8, builds
    assert semigroup(curve, 2000) == sorted(nongaps)


def test_index_of_specialty(curve):
    # i(A) = l(K - A) with K = (2g-2)*Pinf, by duality in raw dimensions
    g = curve.genus
    K = Divisor(2 * g - 2, 0)
    for a in range(-3, 2 * g + 3):
        A = Divisor(a, 0)
        i = dim(curve, K - A)
        assert i == dim(curve, A) - A.degree - 1 + g
        assert i >= 0
        if a >= 2 * g - 1:
            assert i == 0


def test_divisor_arithmetic_and_degree():
    assert (Divisor(2, 3) + Divisor(1, 1)) == Divisor(3, 4)
    assert (Divisor(2, 3) - Divisor(1, 1)) == Divisor(1, 2)
    assert Divisor(2, 3).degree == 5
    assert Divisor(2, 3, frozenset([(1, 1)])).degree == 4
    with pytest.raises(ValueError):
        Divisor(1, 0, frozenset([(1, 1)])) + Divisor(1, 0)


def test_floor_known_values():
    sz = make_curve("suzuki8")
    assert floor_divisor(sz, Divisor(1, 16)) == Divisor(0, 16)
    assert floor_divisor(sz, Divisor(27, 0)) == Divisor(26, 0)  # 27 is a gap
    assert floor_divisor(sz, Divisor(0, 0)) == Divisor(0, 0)
    h16 = make_curve("hermitian16")
    assert floor_divisor(h16, Divisor(5, 0)) == Divisor(5, 0)  # 5 = v(y)
    assert floor_divisor(h16, Divisor(11, 0)) == Divisor(10, 0)


def test_floor_undefined_for_empty_space():
    with pytest.raises(ValueError):
        floor_divisor(make_curve("suzuki8"), Divisor(-1, 0))


def test_floor_properties(curve):
    g = curve.genus
    rng = random.Random(17)
    for _ in range(40):
        A = Divisor(rng.randint(0, 2 * g + 2), rng.randint(0, 2 * g + 2))
        F = floor_divisor(curve, A)
        assert F.inf <= A.inf and F.origin <= A.origin
        assert dim(curve, F) == dim(curve, A)
        # minimality at both points
        assert dim(curve, F - Divisor(1, 0)) < dim(curve, F)
        assert dim(curve, F - Divisor(0, 1)) < dim(curve, F)
        # idempotence
        assert floor_divisor(curve, F) == F


def test_function_basis_sizes(curve):
    g, m = curve.genus, curve.shift_order
    for a, b in [(0, 0), (2 * g, 0), (g, g), (2 * g + 3, 1), (-1, 0)]:
        A = Divisor(a, b)
        coeffs, k = function_basis(curve, A)
        # one row per basis function, one column per monomial of pole <= a + m*k
        assert coeffs.shape == (dim(curve, A), len(curve.monomials(a + m * k)))


def basis_values(curve, G, pts):
    """Row i, column c: s(P_c)^(-k) * sum_j C[i, j] * mono_j(P_c) for the
    basis (C, k) of L(G), built one entry at a time."""
    field = curve.field
    coeffs, k = function_basis(curve, G)
    monos = curve.monomials(G.inf + curve.shift_order * k)
    mat = np.zeros((len(coeffs), len(pts)), dtype=np.uint8)
    for c, p in enumerate(pts):
        values = [curve.evaluate_monomial(mo, p) for mo in monos]
        scale = field.pow(curve.gen_values(p)[curve.shift_index], -k)
        for r, row in enumerate(coeffs):
            acc = 0
            for cj, v in zip(row, values):
                acc = field.add(acc, field.mul(int(cj), v))
            mat[r, c] = field.mul(acc, scale)
    return mat


def origin_values(curve, G):
    """Each basis function of L(G) at P0, or None where it has a pole there.

    f = g / s^k with ord_0(s) = m, so f(P0) is the x^(mk) coefficient of g's
    expansion at P0 over lead(s)^k, unless g has a lower term."""
    field = curve.field
    coeffs, k = function_basis(curve, G)
    monos = curve.monomials(G.inf + curve.shift_order * k)
    if k == 0:
        return [basis_values(curve, G, [curve.origin])[r, 0] for r in range(len(coeffs))]
    mk = curve.shift_order * k
    s = curve.series(mk + 1)[curve.gens[curve.shift_index]]
    lead = field.pow(int(s[curve.shift_order]), -k)
    out = []
    for row in coeffs:
        g = np.zeros(mk + 1, dtype=np.uint8)
        for c, mo in zip(row, monos):
            a = mo.exps[0]
            if c and a <= mk:
                combo = curve.combo_series(tuple(mo.exps[1:]), mk + 1)
                g[a:] = field.ADD[g[a:], field.MUL[int(c), combo[: mk + 1 - a]]]
        out.append(None if g[:mk].any() else field.mul(int(g[mk]), lead))
    return out


def test_function_basis_evaluates_everywhere_off_support(curve):
    # D lies off the support of G, so the basis of L(G) has a value at each
    # of its points, and C_L's generator is the RREF of those values
    field = curve.field
    rng = random.Random(1200 + curve.genus)
    window = [(a, b) for a in range(-4, 14) for b in range(-4, 14)]
    cases = [(Divisor(a, b), False) for a, b in rng.sample(window, 24)]
    cases += [(Divisor(a, 0), True) for a in rng.sample(range(-2, 3 * curve.genus + 8), 6)]
    assert any(G.origin < 0 for G, _ in cases) and any(G.origin > 0 for G, _ in cases)
    for G, one_point in cases:
        mat = basis_values(curve, G, evaluation_points(curve, one_point))
        rank, _ = _row_reduce(field, mat, full=True)
        assert np.array_equal(cl_code(curve, G, one_point).generator, mat[:rank]), G


def test_evaluate_at_the_origin_matches_a_value_vector_oracle(curve):
    # n points off the origin fix a function of L(a*Pinf + b*P0) when
    # a + b < n.  So f has no pole at P0 exactly when its values there lie
    # in the span of L(a*Pinf)'s, and then f(P0) is the one c for which
    # f - c lies in L(a*Pinf - P0).  Spans are compared by rank.
    field = curve.field
    pts = [p for p in curve.affine_points if p != curve.origin]
    n = len(pts)

    def in_span(rows, v):
        return rank_of(field, np.vstack([rows, v])) == rank_of(field, rows)

    pairs = [(a, b) for a in range(-2, 12) for b in range(1, 30) if a + b < n]
    if len(pairs) > 60:
        pairs = random.Random(1200 + n).sample(pairs, 60)
    regular = poles = 0
    for a, b in pairs:
        G = Divisor(a, b)
        regular_span = basis_values(curve, Divisor(a, 0), pts)
        vanishing_span = basis_values(curve, Divisor(a, -1), pts)
        for v, at_origin in zip(basis_values(curve, G, pts), origin_values(curve, G)):
            if not in_span(regular_span, v):
                assert at_origin is None, f"row {v} of L({a}*Pinf + {b}*P0)"
                poles += 1
                continue
            fits = [
                c for c in field.elements()
                if in_span(vanishing_span, field.ADD[v, field.NEG[c]])
            ]
            assert fits == [at_origin], f"row {v} of L({a}*Pinf + {b}*P0)"
            regular += 1
    assert regular and poles
