"""The four distance bounds on worked one- and two-point codes, plus
the dominance and witness-re-verification invariants."""

import random
from dataclasses import replace

import pytest

from _atlas import atlas_cases, atlas_line, atlas_path, atlas_results
from _reference_tables import SUZUKI8_AF, cells
from agbounds import bounds
from agbounds.bounds import (
    BoundResult,
    af_bound,
    best_bound,
    designed_distance,
    floor_bound,
    improvement_table,
    kp_bound,
    verify_witness,
)
from agbounds.curve import make_curve
from agbounds.rrspace import (
    P_INF,
    P_ORIGIN,
    Divisor,
    dim,
    floor_divisor,
    lt_window,
    shift_divisor,
)


@pytest.fixture(scope="module")
def sz():
    return make_curve("suzuki8")


@pytest.fixture(scope="module")
def h16():
    return make_curve("hermitian16")


# -- worked one-point example: G = 41*Pinf on the Suzuki curve ------------


def test_one_point_41(sz):
    G = Divisor(41, 0)
    assert designed_distance(sz, G).value == 15
    af = af_bound(sz, G)
    assert af.value == 16 and af.witness["Z"].degree == 1
    assert verify_witness(sz, af)
    kp = kp_bound(sz, G, P_INF)
    assert kp.value == 16
    assert verify_witness(sz, kp)
    # 41 = 14 + 27 with 27 a gap is not reachable as H + floor(H)
    assert floor_bound(sz, G) is None


def test_one_point_41_restricted_search(sz):
    G = Divisor(41, 0)
    af = af_bound(sz, G, one_point=True)
    assert af.value == 16
    assert af.witness["A"].origin == 0 and af.witness["Z"].origin == 0


# -- worked two-point example: G = 32*P0 + 1*Pinf --------------------------


def test_two_point_33(sz):
    G = Divisor(1, 32)
    assert designed_distance(sz, G).value == 7
    fl = floor_bound(sz, G, fold=False)
    assert fl.value == 8
    assert fl.witness["H"] == Divisor(1, 16)
    assert verify_witness(sz, fl)
    af = af_bound(sz, G)
    assert af.value == 9 and af.witness["Z"].degree == 2
    assert verify_witness(sz, af)
    kp0 = kp_bound(sz, G, P_ORIGIN)
    assert kp0.value == 8
    assert verify_witness(sz, kp0)
    assert kp0.value <= af.value


# -- worked two-point example: G = 15*P0 + 17*Pinf --------------------------


def test_two_point_32(sz):
    G = Divisor(17, 15)
    assert designed_distance(sz, G).value == 6
    af = af_bound(sz, G)
    assert af.value == 9 and af.witness["Z"].degree == 3
    assert verify_witness(sz, af)
    # no shift representative decomposes as H + floor(H)
    assert floor_bound(sz, G, fold=True) is None


def test_best_bound_picks_the_max(sz):
    for G in (Divisor(41, 0), Divisor(1, 32), Divisor(17, 15)):
        best = best_bound(sz, G)
        vals = [designed_distance(sz, G).value, af_bound(sz, G).value]
        for p in (P_INF, P_ORIGIN):
            kp = kp_bound(sz, G, p)
            if kp is not None:
                vals.append(kp.value)
        fl = floor_bound(sz, G)
        if fl is not None:
            vals.append(fl.value)
        assert best.value == max(vals)


def test_af_trivial_when_no_improvement(h16):
    # an interior cell where the search concludes Z = 0 is best
    G = Divisor(4, 9)
    af = af_bound(h16, G)
    assert af.value == af.designed
    assert af.witness["Z"] == Divisor(0, 0)
    assert verify_witness(h16, af)


def test_designed_can_be_nonpositive(h16):
    r = designed_distance(h16, Divisor(3, 0))
    assert r.value == 3 - 10


def test_two_point_only():
    sz = make_curve("suzuki8")
    constrained = Divisor(3, 2, frozenset([(0, 1)]))
    for fn in (designed_distance, af_bound):
        with pytest.raises(ValueError):
            fn(sz, constrained)
    with pytest.raises(ValueError):
        kp_bound(sz, Divisor(3, 2), "Pelsewhere")
    with pytest.raises(ValueError):
        af_bound(sz, Divisor(3, 2), one_point=True)
    with pytest.raises(ValueError):
        kp_bound(sz, Divisor(0, 30), P_INF, one_point=True)


def test_shift_invariance_of_af_and_kp(sz):
    rng = random.Random(5)
    for _ in range(10):
        a = rng.randint(0, 30)
        b = rng.randint(0, 30)
        G = Divisor(a, b)
        shifted = Divisor(a - 13, b + 13)
        assert af_bound(sz, G).value == af_bound(sz, shifted).value
        for p in (P_INF, P_ORIGIN):
            x, y = kp_bound(sz, G, p), kp_bound(sz, shifted, p)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.value == y.value


def test_floor_fold_beats_or_matches_no_fold(sz):
    rng = random.Random(23)
    for _ in range(15):
        G = Divisor(rng.randint(0, 30), rng.randint(0, 30))
        plain = floor_bound(sz, G, fold=False)
        folded = floor_bound(sz, G, fold=True)
        if plain is not None:
            assert folded is not None and folded.value >= plain.value
        if folded is not None:
            assert verify_witness(sz, folded)


def test_witness_tampering_is_caught(sz):
    af = af_bound(sz, Divisor(1, 32))
    assert not verify_witness(sz, replace(af, value=af.value + 1))
    assert not verify_witness(sz, replace(af, witness={**af.witness, "Z": Divisor(2, 2)}))
    fl = floor_bound(sz, Divisor(1, 32), fold=False)  # H = 16*P0 + 1*Pinf, E = 1*Pinf
    H, E = fl.witness["H"], fl.witness["E"]
    assert verify_witness(sz, fl)
    for bad in (
        replace(fl, witness={"H": H, "E": E + Divisor(1, 0)}),
        replace(fl, witness={"H": H, "E": E + Divisor(0, 1)}),
        replace(fl, value=fl.value + 1),
        # still 2H = G + E, but 16*P0 - 1*Pinf is not the floor of 16*P0 + 2*Pinf
        replace(fl, witness={"H": H + Divisor(1, 0), "E": E + Divisor(2, 0)}),
    ):
        assert not verify_witness(sz, bad), bad.witness
    # 2H = G + E, and H - E = 8*P0 - 1*Pinf meets both minimality
    # conditions with l(H - E) = l(H), but E < 0 at P0
    G = Divisor(0, 15)
    designed = designed_distance(sz, G).value
    negative = BoundResult("floor", designed + 1, designed, sz.name, G,
                           witness={"H": Divisor(1, 7), "E": Divisor(2, -1)})
    assert not verify_witness(sz, negative)
    kp = kp_bound(sz, Divisor(41, 0), P_INF)
    assert verify_witness(sz, kp)
    assert not verify_witness(sz, replace(kp, witness={**kp.witness, "t": kp.witness["t"] + 1}))


@pytest.mark.parametrize(
    "G, point",
    [
        (Divisor(41, 0), P_INF),
        (Divisor(17, 15), P_INF),
        (Divisor(17, 15), P_ORIGIN),
        (Divisor(1, 32), P_ORIGIN),
    ],
)
def test_kp_witness_tampering_is_caught(sz, G, point):
    kp = kp_bound(sz, G, point)
    assert verify_witness(sz, kp)
    w = kp.witness
    P = Divisor(1, 0) if point == P_INF else Divisor(0, 1)
    for key, val in (
        ("alpha", w["alpha"] - 1),
        ("alpha", w["alpha"] + 1),
        ("F", w["F"] + P),
        ("t", w["t"] - 1),
    ):
        assert not verify_witness(sz, replace(kp, witness={**w, key: val})), (key, val)


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_kp_and_floor_witnesses_map_to_af_witnesses(name):
    # the paper's theorem, instance by instance: on every shift class of
    # degree -2..max(6g-4, 4g) and both one-point axes, each kp and floor
    # witness maps to an af witness of the same improvement, re-checked
    # here in raw dim() rather than through verify_witness
    curve = make_curve(name)
    g, m = curve.genus, curve.shift_order
    for d in range(-2, max(6 * g - 4, 4 * g) + 1):
        cases = [(Divisor(d - r, r), False) for r in range(m)]
        cases += [(Divisor(d, 0), True), (Divisor(0, d), True)]
        for G, one_point in cases:
            points = [P_INF if G.origin == 0 else P_ORIGIN] if one_point else [P_INF, P_ORIGIN]
            results = [kp_bound(curve, G, p, one_point) for p in points]
            results += [floor_bound(curve, G, fold, one_point) for fold in (True, False)]
            af = af_bound(curve, G, one_point)
            for res in filter(None, results):
                A, Z = bounds._as_af(res)
                B = shift_divisor(curve, G, res.representative_shift) - A
                where = f"{res.method} at {G} (one_point={one_point}): A={A}, Z={Z}"
                assert Z.inf >= 0 and Z.origin >= 0, where
                assert dim(curve, A) == dim(curve, A - Z), where
                assert dim(curve, B) == dim(curve, B + Z), where
                assert Z.degree == res.improvement and res.value <= af.value, where


def test_determinism(sz):
    a = af_bound(sz, Divisor(17, 15))
    b = af_bound(sz, Divisor(17, 15))
    assert a == b


# -- tables -----------------------------------------------------------------


def test_table_blank_below_degree_threshold(h16):
    t = improvement_table(h16, "af", (0, 3), (0, 3))
    for (r, c), v in t["cells"].items():
        if r + c < 10:
            assert v is None


def test_table_slice_matches_reference(sz):
    ref = cells(SUZUKI8_AF)
    t = improvement_table(sz, "af", (24, 30), (0, 12))
    for key, v in t["cells"].items():
        assert v == ref[key], f"cell {key}: got {v}, reference {ref[key]}"


def test_table_threads_agree(h16):
    one = improvement_table(h16, "af", (6, 12), (0, 4), threads=1)
    two = improvement_table(h16, "af", (6, 12), (0, 4), threads=2)
    assert one == two


def test_table_method_validation(h16):
    with pytest.raises(ValueError):
        improvement_table(h16, "designed", (6, 8), (0, 2))


# -- dominance spot checks (the 500-sample sweep lives in the acceptance
#    suite; this is a fast regression guard) --------------------------------


def test_af_dominates_on_a_small_sample(sz, h16):
    rng = random.Random(31)
    for curve in (sz, h16):
        g = curve.genus
        for _ in range(25):
            G = Divisor(rng.randint(-2, 3 * g), rng.randint(-2, 3 * g))
            af = af_bound(curve, G)
            assert af.value >= af.designed
            for p in (P_INF, P_ORIGIN):
                kp = kp_bound(curve, G, p)
                if kp is not None:
                    assert af.value >= kp.value
            fl = floor_bound(curve, G, fold=False)
            if fl is not None:
                assert af.value >= fl.value


# -- the af search against raw dimensions ----------------------------------


def _af_by_raw_dims(curve, G, one_point=False):
    """deg(Z) of the best af witness, from a nested loop over raw dim().

    A wider search space than af_search's Riemann-Roch band, so a band
    that lost a witness would show here: A = (dA - rho)*Pinf + rho*P0 with
    dA from deg(G) - (2g-2) up and rho in 0..m-1, Z >= 0 with
    deg(Z) <= zmax = max(2g, 4g-2-deg(G)) and dA <= 2g-2 + deg(Z).
    Each inner loop stops at the first failure: as Z grows,
    L(A - Z) only shrinks and L(B + Z) only grows, so a failed Z fails
    for every larger one too.
    """
    g, m = curve.genus, curve.shift_order
    dG = G.degree
    zmax = max(2 * g, 4 * g - 2 - dG)
    if one_point:
        unit = Divisor(0, 1) if G.inf == 0 and G.origin != 0 else Divisor(1, 0)
        z_origins = [0]
    else:
        z_origins = range(zmax + 1)
    best = 0
    for dA in range(dG - (2 * g - 2), 2 * g - 2 + zmax + 1):
        if one_point:
            As = [Divisor(unit.inf * dA, unit.origin * dA)]
        else:
            As = [Divisor(dA - rho, rho) for rho in range(m)]
        for A in As:
            B = G - A
            lA, lB = dim(curve, A), dim(curve, B)
            top = 0
            for z2 in z_origins:
                z1 = 1 if z2 == 0 else 0
                while z1 + z2 <= zmax:
                    Z = Divisor(z1 * unit.inf, z1 * unit.origin) if one_point else Divisor(z1, z2)
                    if dim(curve, A - Z) != lA or dim(curve, B + Z) != lB:
                        break
                    top = max(top, z1 + z2)
                    z1 += 1
                if z1 == 0:
                    break  # Z = z2*P0 fails, and so does every Z above it
            if top >= max(1, dA - (2 * g - 2)):
                best = max(best, top)
    return best


def _one_point_divisors(lo, hi):
    return [H for a in range(lo, hi + 1) for H in (Divisor(a, 0), Divisor(0, a))]


def _oracle_cases(curve):
    """(G, one_point) pairs for the raw-dimension oracles of af and kp."""
    name, g = curve.name, curve.genus
    lo, hi = -(4 * g + 4), 6 * g  # the window of the acceptance dominance sweep
    if name == "hermitian4":
        two_point = [Divisor(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    elif name == "hermitian9":
        rng = random.Random(1003)
        two_point = [Divisor(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(150)]
    else:
        # degrees 2g-2..90, where C_Omega is a nonzero code
        rng = random.Random(1014)
        two_point = []
        for _ in range(100):
            d, b = rng.randint(2 * g - 2, 90), rng.randint(-60, 90)
            two_point.append(Divisor(d - b, b))
    cases = [(G, False) for G in two_point]
    return cases + [(H, True) for H in _one_point_divisors(lo, hi)]


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "suzuki8"])
def test_af_search_matches_raw_dimension_oracle(name):
    curve = make_curve(name)
    for G, one_point in _oracle_cases(curve):
        af = af_bound(curve, G, one_point)
        want = _af_by_raw_dims(curve, G, one_point)
        assert af.improvement == want, f"af at {G} (one_point={one_point})"
        assert verify_witness(curve, af)


# -- the kp search against raw dimensions ----------------------------------


def _kp_by_raw_dims(curve, G, point, one_point=False):
    """t+1 of the longest kp gap run at `point`, 0 if none, from raw dim().

    F runs over kp_bound's witness family (cls*P0 at Pinf, ((-cls) mod m)*Pinf
    at P0, only F = 0 for a one-point code).  For each run start
    e1 = deg(F) + alpha, in a window m wider on each side than the search's
    [deg(G) + 2 - 2g, 2g - 1], the run grows while alpha + s is a P-gap
    index of F and 1 - alpha - s one of G - F.
    """
    g, m = curve.genus, curve.shift_order

    def at(base, j):
        if point == P_INF:
            return Divisor(base.inf + j, base.origin)
        return Divisor(base.inf, base.origin + j)

    def gap(base, j):
        return dim(curve, at(base, j)) == dim(curve, at(base, j - 1))

    best = 0
    for cls in range(1 if one_point else m):
        F = Divisor(0, cls) if point == P_INF else Divisor((-cls) % m, 0)
        for e1 in range(G.degree + 2 - 2 * g - m, 2 * g + m):
            alpha, run = e1 - F.degree, 0
            while gap(F, alpha + run) and gap(G - F, 1 - alpha - run):
                run += 1
            best = max(best, run)
    return best


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "suzuki8"])
def test_kp_search_matches_raw_dimension_oracle(name):
    curve = make_curve(name)
    for G, one_point in _oracle_cases(curve):
        if one_point:
            points = [P_INF] if G.origin == 0 else [P_ORIGIN]
        else:
            points = [P_INF, P_ORIGIN]
        for point in points:
            kp = kp_bound(curve, G, point, one_point)
            want = _kp_by_raw_dims(curve, G, point, one_point)
            where = f"kp at {point} for {G} (one_point={one_point})"
            if want == 0:
                assert kp is None, where
            else:
                assert kp is not None and kp.improvement == want, where
                assert verify_witness(curve, kp), where


# -- the floor against a raw dim() walk --------------------------------------


def _floor_by_raw_dims(curve, D):
    """The two-point floor of D by walking raw dim() down one point at a
    time, one pass per point; None when l(D) = 0."""
    ell = dim(curve, D)
    if ell == 0:
        return None
    inf, origin = D.inf, D.origin
    while dim(curve, Divisor(inf - 1, origin)) == ell:
        inf -= 1
    while dim(curve, Divisor(inf, origin - 1)) == ell:
        origin -= 1
    return Divisor(inf, origin)


def _floor_bound_by_raw_dims(curve, G, fold=True, one_point=False):
    """(value, representative_shift, witness) of the best G = H + floor(H)
    over the shift representatives, or None, with every floor taken by
    _floor_by_raw_dims.  Same order as floor_bound: representatives by
    |k| (k > 0 first), then deg E descending, then E.inf ascending; a
    later representative wins only with a strictly larger deg E."""
    m = curve.shift_order
    ks = sorted(range(-(m // 2), m - m // 2), key=lambda k: (abs(k), k < 0))
    best = None
    for k in ks if fold and not one_point else [0]:
        S = shift_divisor(curve, G, k)
        for eps in range(curve.genus, best[0] if best else -1, -1):
            if one_point:
                splits = [0] if S.inf == 0 and S.origin != 0 else [eps]
            else:
                splits = range(eps + 1)
            hits = [
                Divisor((S.inf + e1) // 2, (S.origin + eps - e1) // 2)
                for e1 in splits
                if (S.inf + e1) % 2 == 0 and (S.origin + eps - e1) % 2 == 0
            ]
            hits = [H for H in hits if _floor_by_raw_dims(curve, H) == S - H]
            if hits:
                best = (eps, k, {"H": hits[0], "E": hits[0] - (S - hits[0])})
                break
    if best is None:
        return None
    eps, k, witness = best
    return G.degree - (2 * curve.genus - 2) + eps, k, witness


def _floor_cases(curve, seed):
    g = curve.genus
    rng = random.Random(seed)
    lo, hi = -(2 * g + 2), 4 * g + 2
    return [Divisor(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(40)]


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_floor_divisor_matches_a_raw_dim_walk(name):
    curve = make_curve(name)
    for D in _floor_cases(curve, 31) + _one_point_divisors(-3, 2 * curve.genus + 2):
        want = _floor_by_raw_dims(curve, D)
        if want is None:
            with pytest.raises(ValueError):
                floor_divisor(curve, D)
        else:
            assert floor_divisor(curve, D) == want, D


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_floor_bound_matches_a_search_over_the_raw_walk(name):
    curve = make_curve(name)
    cases = [(G, fold, False) for G in _floor_cases(curve, 37) for fold in (True, False)]
    cases += [(G, False, True) for G in _one_point_divisors(-3, 4 * curve.genus + 2)]
    for G, fold, one_point in cases:
        got = floor_bound(curve, G, fold=fold, one_point=one_point)
        want = _floor_bound_by_raw_dims(curve, G, fold, one_point)
        where = f"floor at {G} (fold={fold}, one_point={one_point})"
        if want is None:
            assert got is None, where
        else:
            assert (got.value, got.representative_shift, got.witness) == want, where
            assert verify_witness(curve, got), where


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_af_feasible_zeta_are_closed_downward(name):
    # the lemma the bisection in af_search rests on, for af and for kp at
    # both points: every zeta from 1 up to the optimum has a witness, none
    # above it.  One-point searches pin Z with class 0 alone, as af and kp
    # on a one-point code do; the lemma holds at either point.
    curve = make_curve(name)
    g, m = curve.genus, curve.shift_order
    rng = random.Random(7000 + g)
    lo, hi = -(4 * g + 4), 6 * g
    two_point = [Divisor(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(40)]
    one_point = rng.sample(_one_point_divisors(lo, hi), 20)
    searches = [(G, pin, m) for G in two_point for pin in (None, P_INF, P_ORIGIN)]
    searches += [(G, pin, 1) for G in one_point for pin in (P_INF, P_ORIGIN)]
    for G, pin, classes in searches:
        zstar = bounds.af_search(curve, G, pin, classes)[0]
        # the l~ window af_search reads, which covers every probe
        LT, off = lt_window(curve, G.degree + 1 - 2 * g, 2 * g - 1)
        for zeta in range(1, 4 * g - 1 - G.degree):
            hit = bounds._af_probe(curve, G, zeta, pin, classes, LT, off)
            where = f"zeta {zeta} at {G}, pin {pin}, {classes} classes"
            assert (hit is not None) == (zeta <= zstar), where
            if hit is not None:
                A, Z = hit
                B = G - A
                assert Z.degree == zeta and Z.inf >= 0 and Z.origin >= 0, where
                if pin == P_INF:  # Z = zeta*Pinf, A = c*P0 + e*Pinf
                    assert Z.origin == 0 and 0 <= A.origin < classes, where
                elif pin == P_ORIGIN:  # Z = zeta*P0, A = ((-c) mod m)*Pinf + e*P0
                    assert Z.inf == 0 and 0 <= A.inf < m and (-A.inf) % m < classes, where
                assert dim(curve, A) == dim(curve, A - Z), where
                assert dim(curve, B) == dim(curve, B + Z), where


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_class_atlas(name):
    # every bound on every class of degree -1..max(6g-4, 4g) and on both
    # one-point axes, line for line as the golden records it; each witness
    # re-checked in raw dim(), and af at least kp and the floor everywhere
    curve = make_curve(name)
    cases = atlas_cases(curve)
    want = atlas_path(name).read_text().splitlines()
    assert len(want) == len(cases)
    for (G, one_point), line in zip(cases, want):
        results = atlas_results(curve, G, one_point)
        assert atlas_line(G, one_point, results) == line
        af = results["af"]
        for res in filter(None, results.values()):
            where = f"{res.method} at {G} (one_point={one_point})"
            assert verify_witness(curve, res), where
            assert res.value <= af.value, where
