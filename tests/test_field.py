"""Field tables checked exhaustively against the axioms; rank and
nullspace checked by dimension counting and explicit orthogonality."""

import numpy as np
import pytest

from agbounds.field import make_field, nullspace_of, rank_of

ORDERS = (4, 8, 9, 16)


@pytest.fixture(params=ORDERS)
def field(request):
    return make_field(request.param)


def test_make_field_is_cached():
    assert make_field(8) is make_field(8)


def test_unsupported_order():
    with pytest.raises(ValueError):
        make_field(5)


def test_identities_and_inverses(field):
    q = field.q
    els = np.arange(q, dtype=np.uint8)
    assert np.array_equal(field.ADD[0, els], els)
    assert np.array_equal(field.MUL[1, els], els)
    assert np.array_equal(field.MUL[0, els], np.zeros(q, dtype=np.uint8))
    # a + (-a) = 0 and a * a^-1 = 1
    assert np.array_equal(field.ADD[els, field.NEG[els]], np.zeros(q, dtype=np.uint8))
    nz = els[1:]
    assert np.array_equal(field.MUL[nz, field.INV[nz]], np.ones(q - 1, dtype=np.uint8))
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_commutativity(field):
    assert np.array_equal(field.ADD, field.ADD.T)
    assert np.array_equal(field.MUL, field.MUL.T)


def test_associativity_and_distributivity(field):
    # full q^3 check via broadcasting: (a+b)+c == a+(b+c), same for *,
    # and a*(b+c) == a*b + a*c
    q = field.q
    a = np.arange(q, dtype=np.uint8)[:, None, None]
    b = np.arange(q, dtype=np.uint8)[None, :, None]
    c = np.arange(q, dtype=np.uint8)[None, None, :]
    A, M = field.ADD, field.MUL
    assert np.array_equal(A[A[a, b], c], A[a, A[b, c]])
    assert np.array_equal(M[M[a, b], c], M[a, M[b, c]])
    assert np.array_equal(M[a, A[b, c]], A[M[a, b], M[a, c]])


def test_characteristic(field):
    # p-fold sum of anything is zero
    p = field.p
    acc = np.zeros(field.q, dtype=np.uint8)
    els = np.arange(field.q, dtype=np.uint8)
    for _ in range(p):
        acc = field.ADD[acc, els]
    assert not acc.any()


def test_frobenius_is_additive(field):
    p = field.p
    for a in field.elements():
        for b in field.elements():
            lhs = field.pow(field.add(a, b), p)
            assert lhs == field.add(field.pow(a, p), field.pow(b, p))


def test_multiplicative_group_order(field):
    # a^(q-1) = 1 for a != 0
    for a in range(1, field.q):
        assert field.pow(a, field.q - 1) == 1


def test_pow_negative_exponent(field):
    for a in range(1, field.q):
        assert field.mul(field.pow(a, -1), a) == 1


def test_rank_of_known_matrices():
    f = make_field(4)
    assert rank_of(f, np.zeros((3, 3), dtype=np.uint8)) == 0
    assert rank_of(f, np.eye(3, dtype=np.uint8)) == 3
    # second row is 2 * first (2 is the generator t of GF(4))
    m = np.array([[1, 2, 3], [2, f.mul(2, 2), f.mul(2, 3)]], dtype=np.uint8)
    assert rank_of(f, m) == 1


def test_nullspace_dimension_and_orthogonality():
    rng = np.random.default_rng(7)
    for order in ORDERS:
        f = make_field(order)
        for _ in range(20):
            rows, cols = rng.integers(1, 7), rng.integers(1, 9)
            m = rng.integers(0, f.q, size=(rows, cols)).astype(np.uint8)
            r = rank_of(f, m)
            null = nullspace_of(f, m.copy())
            assert len(null) == cols - r
            for v in null:
                prod = np.zeros(rows, dtype=np.uint8)
                for j in range(cols):
                    prod = f.ADD[prod, f.MUL[m[:, j], v[j]]]
                assert not prod.any()
            # kernel vectors are independent
            if null:
                assert rank_of(f, np.array(null, dtype=np.uint8)) == len(null)


def test_nullspace_of_empty_matrix():
    f = make_field(8)
    basis = nullspace_of(f, np.zeros((0, 4), dtype=np.uint8))
    assert len(basis) == 4

