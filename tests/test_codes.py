"""Code construction cross-checked against Riemann-Roch dimension
formulas, duality, and exhaustive weight enumeration, itself checked
against a plain loop over every message on hermitian4 and hermitian9."""

import itertools
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from agbounds import codes
from agbounds.bounds import af_bound, designed_distance, floor_bound, kp_bound
from agbounds.codes import (
    cl_code,
    comega_code,
    evaluation_points,
    min_distance_exhaustive,
    verify_soundness,
    weight_enumerator,
)
from agbounds.curve import make_curve
from agbounds.rrspace import Divisor, dim, shift_divisor


@pytest.fixture(scope="module")
def h4():
    return make_curve("hermitian4")


def gf_product(field, A, B):
    """A @ B.T over the field; returns a numpy array of field indices."""
    acc = np.zeros((A.shape[0], B.shape[0]), dtype=np.uint8)
    for t in range(A.shape[1]):
        acc = field.ADD[acc, field.MUL[A[:, t][:, None], B[:, t][None, :]]]
    return acc


def test_evaluation_point_counts(h4):
    assert len(evaluation_points(h4)) == 7  # origin excluded
    assert len(evaluation_points(h4, one_point=True)) == 8
    sz = make_curve("suzuki8")
    assert len(evaluation_points(sz)) == 63
    assert len(evaluation_points(sz, one_point=True)) == 64


def test_constant_code(h4):
    code = cl_code(h4, Divisor(0, 0))
    assert (code.n, code.k) == (7, 1)
    assert min_distance_exhaustive(code) == 7
    # 4 codewords: zero plus three constants of full weight
    we = weight_enumerator(code)
    assert we[0] == 1 and we[7] == 3 and sum(we) == 4


def test_full_space_code(h4):
    # deg G >= n + 2g - 1 makes evaluation surjective
    code = cl_code(h4, Divisor(9, 0))
    assert code.k == code.n == 7
    assert min_distance_exhaustive(code, budget=4**7) == 1


def test_dimension_formula_hermitian16():
    h16 = make_curve("hermitian16")
    code = cl_code(h16, Divisor(1, 12))
    assert (code.n, code.k) == (63, 8)
    assert dim(h16, Divisor(1, 12)) == 8  # deg 13 >= 2g - 1


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_dimension_matches_the_constrained_oracle(name):
    # dimension() reads G - D from its two-point equivalent; here D is
    # written out point by point and l(G - D) comes from the evaluation
    # columns of the constrained dim()
    curve = make_curve(name)
    g, m, n_all = curve.genus, curve.shift_order, len(curve.affine_points)
    others = frozenset(p for p in curve.affine_points if p != curve.origin)
    rng = random.Random(5000 + g)
    lo, hi = -2 * g - m, n_all + 4 * g
    cases = [(Divisor(rng.randint(lo, hi), rng.randint(lo, hi)), False) for _ in range(80)]
    cases += [(Divisor(a, 0), True) for a in range(-3, n_all + 2 * g + 4)]
    for G, one_point in cases:
        G_minus_D = Divisor(G.inf, G.origin - one_point, others)  # D holds P0 when one-point
        want = dim(curve, G) - dim(curve, G_minus_D)
        assert codes.dimension(curve, G, one_point) == want, (G, one_point)


def test_duality(h4):
    for G in (Divisor(2, 3), Divisor(4, 0), Divisor(0, 5), Divisor(3, 3)):
        cl = cl_code(h4, G)
        co = comega_code(h4, G)
        assert cl.k + co.k == cl.n
        assert not gf_product(h4.field, cl.generator, co.generator).any()


def test_dual_of_dual_is_the_code(h4):
    G = Divisor(2, 3)
    cl = cl_code(h4, G)
    co = comega_code(h4, G)
    from agbounds.field import nullspace_of, rank_of

    back = np.array(nullspace_of(h4.field, co.generator.copy()), dtype=np.uint8)
    stacked = np.vstack([cl.generator, back.reshape(-1, cl.n)])
    assert rank_of(h4.field, stacked) == cl.k


def test_comega_dimension_formula(h4):
    # for 2g - 2 < deg G < n: dim C_Omega = n - deg G + g - 1
    g, n = h4.genus, 7
    for a in range(1, 5):
        for b in range(0, 3):
            G = Divisor(a, b)
            if 2 * g - 2 < G.degree < n:
                assert comega_code(h4, G).k == n - G.degree + g - 1


def test_shift_equivalent_codes_share_weight_enumerators(h4):
    # G and G + div(shift) give monomially equivalent codes
    for G in (Divisor(2, 2), Divisor(1, 4)):
        a = comega_code(h4, G)
        b = comega_code(h4, shift_divisor(h4, G, 1))
        assert weight_enumerator(a) == weight_enumerator(b)


def test_one_point_code_keeps_origin(h4):
    code = cl_code(h4, Divisor(4, 0), one_point=True)
    assert code.n == 8
    assert h4.origin in code.points
    with pytest.raises(ValueError):
        cl_code(h4, Divisor(2, 2), one_point=True)


def test_trivial_and_budget_errors(h4):
    zero_k = comega_code(h4, Divisor(9, 0))
    assert zero_k.k == 0
    with pytest.raises(ValueError, match="trivial"):
        min_distance_exhaustive(zero_k)
    big = cl_code(h4, Divisor(9, 0))
    with pytest.raises(ValueError, match="budget"):
        min_distance_exhaustive(big, budget=4**6)


def test_constrained_divisor_rejected(h4):
    with pytest.raises(ValueError):
        cl_code(h4, Divisor(2, 2, frozenset([(0, 1)])))


def test_soundness_smoke(h4):
    report = verify_soundness(h4, deg_range=(1, 4))
    assert report["ok"] and report["checked"] > 0 and not report["violations"]


def test_soundness_builds_only_the_codes_it_enumerates(monkeypatch):
    built = []
    real = codes.comega_code

    def counted(curve, G, one_point=False):
        built.append(G)
        return real(curve, G, one_point)

    monkeypatch.setattr(codes, "comega_code", counted)
    report = verify_soundness(make_curve("hermitian4"))
    counts = [report[key] for key in ("checked", "skipped_trivial", "skipped_budget", "ok")]
    # one code per enumerable shift class, not one per divisor
    assert counts == [59, 9, 0, True] and len(built) == 19
    assert len({(G.degree, G.origin % 3) for G in built}) == 19
    built.clear()
    report = verify_soundness(make_curve("hermitian9"), deg_range=(1, 8))
    counts = [report[key] for key in ("checked", "skipped_trivial", "skipped_budget", "ok")]
    assert counts == [0, 0, 68, False] and built == []


def per_divisor_sweep(curve, deg_range=(1, 8), budget=2**24, coeff_window=(-8, 6)):
    """verify_soundness as one build and one rating per divisor: every
    two-point G in the window, in (Pinf, P0) coefficient order."""
    lo, hi = coeff_window
    n, q = len(evaluation_points(curve)), len(curve.field)
    checked = skipped_trivial = skipped_budget = 0
    violations = []
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            G = Divisor(a, b)
            if not deg_range[0] <= G.degree <= deg_range[1]:
                continue
            k = n - codes.dimension(curve, G)
            if k == 0:
                skipped_trivial += 1
                continue
            if q**k > budget:
                skipped_budget += 1
                continue
            d_true = codes.min_distance_exhaustive(comega_code(curve, G), budget)
            af = af_bound(curve, G).value
            others = {"designed": designed_distance(curve, G).value, "floor": None}
            others["kp_Pinf"] = others["kp_P0"] = None
            fl = floor_bound(curve, G)
            if fl is not None:
                others["floor"] = fl.value
            for point, tag in (("Pinf", "kp_Pinf"), ("P0", "kp_P0")):
                kp = kp_bound(curve, G, point)
                if kp is not None:
                    others[tag] = kp.value
            checked += 1
            if d_true < af or any(v > af for v in others.values() if v is not None):
                violations.append({"G": G, "d_true": d_true, "af": af, **others})
    return {
        "curve": curve.name,
        "checked": checked,
        "skipped_trivial": skipped_trivial,
        "skipped_budget": skipped_budget,
        "violations": violations,
        "ok": checked > 0 and not violations,
    }


SWEEPS = [
    {},
    {"coeff_window": (-20, 20), "deg_range": (-3, 12)},
    {"budget": 4**4},
    {"coeff_window": (5, -5)},
]


@pytest.mark.parametrize("kw", SWEEPS, ids=["default", "wide", "budget", "reversed"])
def test_soundness_by_class_matches_the_per_divisor_sweep(h4, kw):
    report = verify_soundness(h4, **kw)
    assert report == per_divisor_sweep(h4, **kw)
    assert list(report) == list(per_divisor_sweep(h4, **kw))  # key order, as printed


def test_planted_violation_lists_every_member_in_window_order(h4, monkeypatch):
    # d_true = 1 is below af on every class of degree >= 2, so each
    # checked divisor is a violation, listed once per member of its class
    monkeypatch.setattr(codes, "min_distance_exhaustive", lambda code, budget=0: 1)
    kw = {"deg_range": (2, 6), "coeff_window": (-5, 5)}
    report = verify_soundness(h4, **kw)
    assert report == per_divisor_sweep(h4, **kw)
    assert report["checked"] == len(report["violations"]) > 0 and not report["ok"]
    members = [v["G"] for v in report["violations"]]
    assert members == sorted(members, key=lambda G: (G.inf, G.origin))
    assert len({(G.degree, G.origin % 3) for G in members}) < len(members)
    keys = ["G", "d_true", "af", "designed", "floor", "kp_Pinf", "kp_P0"]
    assert all(list(v) == keys for v in report["violations"])


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_bounds_are_functions_of_the_shift_class(name):
    # verify_soundness rates one member per class (deg G, G.origin mod m)
    curve = make_curve(name)
    g = curve.genus
    rng = random.Random(2000 + g)

    def values(G):
        rated = [af_bound(curve, G), floor_bound(curve, G), designed_distance(curve, G)]
        rated += [kp_bound(curve, G, point) for point in ("Pinf", "P0")]
        return [None if r is None else r.value for r in rated]

    for _ in range(16):
        G = Divisor(rng.randint(-g, 4 * g), rng.randint(-g, 4 * g))
        want = values(G)
        for j in (-3, -1, 1, 2, 5):
            assert values(shift_divisor(curve, G, j)) == want, (G, j)


def test_soundness_empty_sweep_is_not_ok(h4):
    # no divisor in a reversed window, none enumerable under a tiny budget
    for report in (
        verify_soundness(h4, coeff_window=(5, -5)),
        verify_soundness(h4, deg_range=(1, 4), budget=1),
    ):
        assert report["checked"] == 0 and not report["violations"]
        assert report["ok"] is False


# -- the weight kernel against a plain enumeration ----------------------------


def product_weights(code, field):
    """Weight distribution by summing the rows for every message in turn."""
    multiples = [field.MUL[:, row] for row in code.generator]  # [j][c] = c * row j
    counts = [0] * (code.n + 1)
    for message in itertools.product(range(len(field)), repeat=code.k):
        word = np.zeros(code.n, dtype=np.uint8)
        for coef, mult in zip(message, multiples):
            word = field.ADD[word, mult[coef]]
        counts[np.count_nonzero(word)] += 1
    return tuple(counts)


def macwilliams_dual(weights, q, k):
    """Dual weight distribution by integer Krawtchouk sums; asserts that
    every dual count is an integer, as it is for any linear code."""
    n = len(weights) - 1

    def krawtchouk(j, i):
        return sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))

    dual = []
    for j in range(n + 1):
        total = sum(a * krawtchouk(j, i) for i, a in enumerate(weights) if a)
        assert total % q**k == 0, f"B_{j} = {total}/{q**k}"
        dual.append(total // q**k)
    return dual


def oracle_codes():
    """Every hermitian4 C_L and C_Omega with k >= 1 in criterion 9's
    window, and hermitian9 C_L codes with k = 3 and k = 5."""
    h4 = make_curve("hermitian4")
    for a in range(-8, 7):
        for b in range(-8, 7):
            if 1 <= a + b <= 8:
                for build in (cl_code, comega_code):
                    code = build(h4, Divisor(a, b))
                    if code.k:
                        yield h4, code
    h9 = make_curve("hermitian9")
    for G in (Divisor(3, 2), Divisor(2, 5)):
        yield h9, cl_code(h9, G)


def test_weight_enumerator_matches_product_oracle():
    ks = set()
    for curve, code in oracle_codes():
        want = product_weights(code, curve.field)
        assert weight_enumerator(code) == want, code
        assert want[0] == 1
        assert min_distance_exhaustive(code) == next(w for w in range(1, code.n + 1) if want[w])
        ks.add((curve.name, code.k))
    assert ("hermitian9", 3) in ks and ("hermitian9", 5) in ks
    assert {k for name, k in ks if name == "hermitian4"} == set(range(1, 8))


def test_weight_counts_do_not_depend_on_the_chunk(monkeypatch):
    h9 = make_curve("hermitian9")
    code = cl_code(h9, Divisor(4, 4))  # 4*P0 + 4*Pinf
    assert code.k == 6
    monkeypatch.setattr(codes, "_CHUNK", 9**6)  # every word in one chunk
    whole = weight_enumerator(code)
    monkeypatch.setattr(codes, "_CHUNK", 300)  # one high word per chunk
    assert weight_enumerator(code) == whole
    assert sum(whole) == 9**6 and whole[0] == 1
    dual = macwilliams_dual(whole, 9, code.k)
    assert dual[0] == 1 and min(dual) >= 0 and sum(dual) == 9 ** (code.n - code.k)


def test_weight_enumerator_memory_is_bounded():
    code = cl_code(make_curve("hermitian9"), Divisor(5, 4))  # 4*P0 + 5*Pinf
    assert code.k == 7
    weight_enumerator(code)  # warm the field and numpy paths
    tracemalloc.start()
    try:
        weights = weight_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(weights) == 9**7
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
