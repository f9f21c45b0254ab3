"""Acceptance gate: one test per criterion, with runtime budgets.

Each criterion is a separate test so the -v report reads as one
pass/fail line per criterion.  Criterion 6 compares against a published
reference grid that is wrong in exactly one cell, (9, 2): the grid says
1, the af bound gives 2, and the true distance there is 3.  That cell is
named as a certified erratum: the test re-proves the lower side from raw
Riemann-Roch dimensions and the upper side from the columns of the C_L
generator, without the bound code, and fails if the erratum or any other
cell changes.
"""

import itertools
import random
import time

import numpy as np
import pytest

from _reference_tables import HERMITIAN16_AF, HERMITIAN16_FLOOR, SUZUKI8_AF, cells
from agbounds.bounds import (
    af_bound,
    best_bound,
    designed_distance,
    floor_bound,
    improvement_table,
    kp_bound,
    verify_witness,
)
from agbounds.codes import cl_code, verify_soundness
from agbounds.curve import make_curve
from agbounds.field import rank_of
from agbounds.rrspace import (
    Divisor,
    P_INF,
    P_ORIGIN,
    dim,
    lt_window,
    semigroup,
    shift_divisor,
)

ALL_CURVES = ("hermitian4", "hermitian9", "hermitian16", "suzuki8")

# Cells where the published hermitian16 af grid is wrong, as
# {(row, col): (published, computed)}; each one is certified in
# criterion 6 from both sides.
HERMITIAN16_AF_ERRATA = {(9, 2): (1, 2)}


def numerical_semigroup(gens, limit):
    ok = [False] * (limit + 1)
    ok[0] = True
    for n in range(1, limit + 1):
        ok[n] = any(g <= n and ok[n - g] for g in gens)
    return [n for n in range(limit + 1) if ok[n]]


def test_criterion_01_semigroups():
    t0 = time.monotonic()
    sz = make_curve("suzuki8")
    got = semigroup(sz, 60)
    assert got == numerical_semigroup((8, 10, 12, 13), 60)
    assert len([n for n in range(61) if n not in set(got)]) == 14
    h16 = make_curve("hermitian16")
    got16 = semigroup(h16, 60)
    assert got16 == numerical_semigroup((4, 5), 60)
    assert len([n for n in range(61) if n not in set(got16)]) == 6
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"semigroup check took {elapsed:.1f}s"


@pytest.mark.parametrize("name", ("suzuki8", "hermitian16"))
def test_criterion_02_riemann_roch_window(name):
    t0 = time.monotonic()
    curve = make_curve(name)
    g, m = curve.genus, curve.shift_order
    lo, hi = -30, 90
    # dense raw l~(deg, origin-residue) grid, l~(d, r) = dim((d - r)*Pinf + r*P0)
    dmin, dmax = 2 * g - 2 - 2 * hi, 2 * hi
    block = np.array(
        [[dim(curve, Divisor(d - r, r)) for r in range(m)] for d in range(dmin, dmax + 1)]
    )
    block_lo = dmin
    # the table the bound searches read is that raw grid
    LT, off = lt_window(curve, dmin, dmax)
    assert np.array_equal(LT[dmin - off : dmax - off + 1], block)
    # at the band edges, where the table switches to Riemann-Roch, every
    # class representative shifted by k*m agrees with it too
    for d in range(-2, 2 * g + 2):
        for r in range(m):
            for k in range(-4, 5):
                b = r + k * m
                assert dim(curve, Divisor(d - b, b)) == LT[d - off, r], (d, b)
    coeffs = np.arange(lo, hi + 1)
    deg = coeffs[:, None] + coeffs[None, :]  # [a, b] -> a + b
    res = np.broadcast_to(coeffs[None, :] % m, deg.shape)
    ell = block[deg - block_lo, res]

    # the reduction l(a*Pinf + b*P0) = l~(a + b, b mod m): raw cross-check
    # on a random sample, which also exercises shift invariance
    rng = random.Random(2)
    for _ in range(150):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        D = Divisor(a, b)
        want = int(ell[a - lo, b - lo])
        assert dim(curve, D) == want
        assert dim(curve, shift_divisor(curve, D, rng.choice((-1, 1)))) == want

    # exactness for deg >= 2g - 1
    exact = deg >= 2 * g - 1
    assert np.array_equal(ell[exact], (deg + 1 - g)[exact])
    # duality against K = (2g-2)*Pinf
    dual = block[(2 * g - 2 - deg) - block_lo, (-coeffs[None, :]) % m]
    assert np.array_equal(ell - dual, deg + 1 - g)
    # monotonicity in both coordinates
    da = np.diff(ell, axis=0)
    db = np.diff(ell, axis=1)
    assert ((da == 0) | (da == 1)).all() and ((db == 0) | (db == 1)).all()
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"window sweep took {elapsed:.1f}s"


def test_criterion_03_one_point_example():
    sz = make_curve("suzuki8")
    G = Divisor(41, 0)
    assert designed_distance(sz, G).value == 15
    af = af_bound(sz, G)
    assert af.value == 16 and verify_witness(sz, af)
    assert floor_bound(sz, G) is None
    kp = kp_bound(sz, G, P_INF)
    assert kp.value == 16 and verify_witness(sz, kp)


def test_criterion_04_two_point_example_with_kp_note():
    sz = make_curve("suzuki8")
    G = Divisor(1, 32)
    assert designed_distance(sz, G).value == 7

    fl = floor_bound(sz, G, fold=False)
    assert fl.value == 8 and fl.witness["H"] == Divisor(1, 16)
    assert verify_witness(sz, fl)

    af = af_bound(sz, G)
    assert af.value == 9 and af.witness["Z"].degree == 2
    assert verify_witness(sz, af)
    A, Z = af.witness["A"], af.witness["Z"]
    B = G - A
    assert dim(sz, A) == dim(sz, A - Z) and dim(sz, B) == dim(sz, B + Z)

    kp = kp_bound(sz, G, P_ORIGIN)
    assert kp.value == 8 and verify_witness(sz, kp)
    assert kp.value <= af.value

    # Reference parameters F = 1*P0, alpha = 18, t = 1 put the formula
    # value at designed + t + 1 = 9, but their own t = 1 hypothesis
    # fails: 20 is a pole order of F at P0, so the alpha..alpha+t gap
    # run breaks.  The honest search therefore reports 8.
    F = Divisor(0, 1)
    formula_value = designed_distance(sz, G).value + 1 + 1
    assert formula_value == 9
    gap_at = lambda D, j: dim(sz, D + Divisor(0, j)) == dim(sz, D + Divisor(0, j - 1))
    assert gap_at(F, 18) and not gap_at(F, 19), "t = 1 run must fail at its second step"
    print(
        "note: kp reference parameters (alpha=18, t=1) give formula value "
        f"{formula_value}, but the t=1 gap run fails re-verification; "
        f"the searched bound is {kp.value} <= af {af.value}"
    )


def test_criterion_05_two_point_example_no_floor():
    sz = make_curve("suzuki8")
    G = Divisor(17, 15)
    assert designed_distance(sz, G).value == 6
    af = af_bound(sz, G)
    assert af.value == 9 and af.witness["Z"].degree == 3
    assert verify_witness(sz, af)
    # no decomposition H + floor(H) on any of the 13 representatives
    for k in range(-6, 7):
        rep = shift_divisor(sz, G, k)
        assert floor_bound(sz, rep, fold=False) is None
    assert floor_bound(sz, G, fold=True) is None


def test_criterion_06_hermitian16_af_table():
    t0 = time.monotonic()
    h16 = make_curve("hermitian16")
    table = improvement_table(h16, "af", (6, 21), (0, 4))
    got = table["cells"]
    for anchor, want in [
        ((8, 2), 3), ((11, 2), 3), ((12, 0), 2), ((16, 4), 1), ((21, 0), 1),
    ]:
        assert got[anchor] == want, f"anchor {anchor}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"table took {elapsed:.1f}s"

    ref = cells(HERMITIAN16_AF)
    diffs = {k: (ref[k], got[k]) for k in ref if ref[k] != got[k]}
    assert diffs == HERMITIAN16_AF_ERRATA, (
        f"cells differing from the published grid (published, computed): {diffs}"
    )

    # Erratum (9, 2): G = 9*P0 + 2*Pinf has designed distance 1, and its
    # true distance is 3, so the computed improvement of 2 is exact and
    # the published 1 under-reports.
    G = Divisor(2, 9)
    designed = G.degree - (2 * h16.genus - 2)
    assert designed == 1
    # Lower side: G = A + B with A = 3*P0 + 2*Pinf, B = 6*P0, Z = 2*Pinf
    # meets the af hypotheses l(A) = l(A - Z) and l(B) = l(B + Z) in raw
    # dimensions, so d >= designed + deg Z = 3.
    A, B, Z = Divisor(2, 3), Divisor(0, 6), Divisor(2, 0)
    assert A + B == G
    assert dim(h16, A) == dim(h16, A - Z) == 1
    assert dim(h16, B) == dim(h16, B + Z) == 3
    # Upper side, without the bound code: the C_L generator is a parity
    # check matrix of C_Omega, so d(C_Omega) is the least number of
    # linearly dependent columns.  Every pair of columns is independent
    # (so no column is zero) and columns 0, 1, 2 are dependent, so d = 3.
    H = cl_code(h16, G).generator
    assert H.shape == (6, 63)
    F = h16.field
    assert all(
        rank_of(F, H[:, [i, j]]) == 2
        for i, j in itertools.combinations(range(H.shape[1]), 2)
    )
    assert rank_of(F, H[:, [0, 1, 2]]) == 2
    # so af at (9, 2) meets the true distance: its improvement 2 is exact
    assert designed + got[(9, 2)] == designed + Z.degree == 3


def test_criterion_07_hermitian16_floor_table():
    h16 = make_curve("hermitian16")
    got = improvement_table(h16, "floor", (6, 21), (0, 4))["cells"]
    for anchor, want in [((8, 2), 2), ((11, 0), 1), ((16, 1), 1)]:
        assert got[anchor] == want, f"anchor {anchor}"
    ref = cells(HERMITIAN16_FLOOR)
    diffs = {k: (ref[k], got[k]) for k in ref if ref[k] != got[k]}
    assert diffs == {}, f"cells differing from the published grid: {diffs}"


def test_criterion_08_suzuki8_af_table():
    sz = make_curve("suzuki8")
    ref = cells(SUZUKI8_AF)

    t0 = time.monotonic()
    single = improvement_table(sz, "af", (14, 53), (0, 12), threads=1)["cells"]
    single_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    quad = improvement_table(sz, "af", (14, 53), (0, 12), threads=4)["cells"]
    quad_elapsed = time.monotonic() - t0

    assert single == quad
    for anchor, want in [((14, 12), 2), ((19, 7), 4), ((28, 2), 4),
                         ((32, 1), 2), ((53, 0), 1)]:
        assert single[anchor] == want, f"anchor {anchor}"
    for c in range(13):
        assert single[(40, c)] == 1
    diffs = {k: (ref[k], single[k]) for k in ref if ref[k] != single[k]}
    assert diffs == {}, f"cells differing from the published grid: {diffs}"
    assert single_elapsed < 1800, f"single-threaded table took {single_elapsed:.0f}s"
    assert quad_elapsed < 600, f"4-worker table took {quad_elapsed:.0f}s"


def test_criterion_09_soundness_certification():
    t0 = time.monotonic()
    report = verify_soundness(
        make_curve("hermitian4"),
        deg_range=(1, 8),
        budget=2**24,
        coeff_window=(-8, 6),
    )
    elapsed = time.monotonic() - t0
    assert report["ok"], f"violations: {report['violations']}"
    assert report["checked"] > 0 and report["skipped_budget"] == 0
    assert elapsed < 120, f"soundness sweep took {elapsed:.1f}s"


@pytest.mark.parametrize("name", ALL_CURVES)
def test_criterion_10_dominance_and_witnesses(name):
    curve = make_curve(name)
    g = curve.genus
    rng = random.Random(1000 + g)
    lo, hi = -(4 * g + 4), 6 * g
    for _ in range(500):
        G = Divisor(rng.randint(lo, hi), rng.randint(lo, hi))
        af = af_bound(curve, G)
        assert verify_witness(curve, af), f"af witness failed for {G}"
        assert af.value >= af.designed
        for p in (P_INF, P_ORIGIN):
            kp = kp_bound(curve, G, p)
            if kp is not None:
                assert verify_witness(curve, kp), f"kp witness failed for {G}"
                assert af.value >= kp.value, f"af < kp at {G}"
        for fold in (False, True):
            fl = floor_bound(curve, G, fold=fold)
            if fl is not None:
                assert verify_witness(curve, fl), f"floor witness failed for {G}"
                assert af.value >= fl.value, f"af < floor at {G}"


@pytest.mark.parametrize("name", ALL_CURVES)
def test_criterion_11_proof_lemma_property(name):
    curve = make_curve(name)
    g = curve.genus
    rng = random.Random(4000 + g)
    pool = [p for p in curve.affine_points if p != curve.origin]
    accepted = 0
    for _ in range(40000):
        if accepted == 200:
            break
        B = Divisor(rng.randint(-2 * g, 2 * g), rng.randint(-2 * g, 2 * g))
        Z = Divisor(rng.randint(0, 2), rng.randint(0, 2))
        if Z.degree == 0 or dim(curve, B + Z) != dim(curve, B):
            continue
        pts = frozenset(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        lhs = dim(curve, Divisor(B.inf + Z.inf, B.origin + Z.origin, pts))
        rhs = dim(curve, Divisor(B.inf, B.origin, pts))
        assert lhs == rhs, f"lemma fails for B={B}, Z={Z}, |D'|={len(pts)}"
        accepted += 1
    assert accepted == 200, f"only {accepted} conditioned triples found"
