"""Curve models: point counts, genus, and the generator power series that
the Riemann-Roch machinery consumes."""

import numpy as np
import pytest

from agbounds.curve import INFINITY, make_curve

EXPECTED = {
    # name: (genus, shift_order, #affine points)
    "hermitian4": (1, 3, 8),
    "hermitian9": (3, 4, 27),
    "hermitian16": (6, 5, 64),
    "suzuki8": (14, 13, 64),
}


@pytest.fixture(params=sorted(EXPECTED))
def curve(request):
    return make_curve(request.param)


def test_make_curve_is_cached():
    assert make_curve("suzuki8") is make_curve("suzuki8")


def test_unknown_curve():
    with pytest.raises(ValueError):
        make_curve("hermitian25")


def test_point_counts_and_genus(curve):
    genus, shift_order, n_affine = EXPECTED[curve.name]
    assert curve.genus == genus
    assert curve.shift_order == shift_order
    assert len(curve.affine_points) == n_affine


def test_affine_points_satisfy_equation(curve):
    for x, y in curve.affine_points:
        assert curve.equation_value(x, y) == 0
    # and nothing else does
    count = sum(
        curve.equation_value(x, y) == 0
        for x in curve.field.elements()
        for y in curve.field.elements()
    )
    assert count == len(curve.affine_points)


def test_origin_is_a_point(curve):
    assert curve.origin == (0, 0)
    assert curve.origin in curve.affine_points


def test_gen_values_match_defining_relations():
    sz = make_curve("suzuki8")
    f = sz.field
    for pt in sz.affine_points:
        x, y, z, w = sz.gen_values(pt)
        assert z == f.add(f.pow(x, 5), f.pow(y, 4))
        assert w == f.add(f.mul(x, f.pow(y, 4)), f.pow(z, 4))
    with pytest.raises(ValueError):
        sz.gen_values(INFINITY)


VALUATIONS = {
    # valuation at the origin of each non-x generator series
    "hermitian4": {"y": 3},
    "hermitian9": {"y": 4},
    "hermitian16": {"y": 5},
    "suzuki8": {"y": 3, "z": 5, "w": 13},
}


def test_series_valuations(curve):
    s = curve.series(40)
    for name, val in VALUATIONS[curve.name].items():
        assert int(np.flatnonzero(s[name])[0]) == val


def test_shift_generator_valuation(curve):
    # the designated shift generator vanishes to order shift_order
    name = curve.gens[curve.shift_index]
    s = curve.series(40)
    assert int(np.flatnonzero(s[name])[0]) == curve.shift_order


def test_series_extension_is_consistent(curve):
    short = {k: v.copy() for k, v in curve.series(20).items()}
    long = curve.series(60)
    for k, v in short.items():
        assert np.array_equal(long[k][: len(v)], v)
