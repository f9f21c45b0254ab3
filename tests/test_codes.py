"""Code construction cross-checked against Riemann-Roch dimension
formulas, duality, and exhaustive weight enumeration, itself checked
against a plain loop over every message on hermitian4 and hermitian9."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from agbounds import codes
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


def test_soundness_scan_order_is_irrelevant(h4):
    import random

    a = verify_soundness(h4, deg_range=(1, 3))
    b = verify_soundness(h4, deg_range=(1, 3), rng=random.Random(99))
    assert (a["checked"], a["ok"]) == (b["checked"], b["ok"])


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
