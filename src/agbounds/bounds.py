"""Minimum-distance bounds for two-point codes C_Omega(D, G).

All bounds share the shape  d >= deg(G) - (2g - 2) + extra:

* designed:  extra = 0 (the Goppa designed distance).
* floor:     G = H + floor(H); extra = deg(H - floor(H)).
* kp:        F and t+1 consecutive P-gap indices alpha..alpha+t of F,
             with 1-alpha-t..1-alpha P-gaps of G - F; extra = t + 1.
* af:        G = A + B and Z >= 0 with L(A) = L(A - Z) and
             L(B) = L(B + Z); extra = deg(Z).

kp at a point P is af with Z = zeta*P: the witness (F, alpha, t) is
A = F + (alpha + t)*P, Z = (t + 1)*P, since l grows by at most one per
step.  So one search serves both: af_search, with Z free or pinned at P.

Because l(a*Pinf + b*P0) only depends on (a + b, b mod m) - multiplying
by the shift function moves poles between the two points - af sees only
classes: deg A, rho = A.origin mod m, B = G - A and s = Z.origin mod m.
For fixed (A, s) the witnesses are zeta in [s, min(Z1, Z2)]: closed
downward, as for a point P of Z, (A, Z - P) is one too,
  L(A - Z) <= L(A - Z + P) <= L(A)  and  L(B) <= L(B + Z - P) <= L(B + Z)
with equal outer spaces, and Z.origin = s may stay while Pinf goes (a
hit at Z.origin >= m repeats one at s).  Z1 and Z2 (P1, P2 for
Z = zeta*P0) are the run ends of the two equalities; they depend on the
class of A or B and on s alone, so rrspace reads them off l~ once per
curve (slack), and af_search is one max-min over them.  Riemann-Roch
bounds it: past degree 2g-2 a point adds one to l, so l(A - P) = l(A)
and l(B + P) = l(B) force deg A <= 2g-1 and deg B <= 2g-2, and deg A
runs over [deg G + 2 - 2g, 2g - 1], empty once deg G > 4g-3.

The floor search reads the same table, four entries per candidate
split (_is_floor), so a huge coefficient costs no more than a small one.

The shift invariance also makes af and kp values equal on every
representative G + k*m*(P0 - Pinf); the floor decomposition couples G
to 2H and is genuinely representative-dependent, so floor_bound folds
over one period of representatives, which makes its value a class
function of (deg G, G.origin mod m) as well.

verify_witness re-checks every certificate, af_bound's own included, as
an af witness in raw dim(): _as_af maps kp and floor witnesses to af ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .curve import Curve, make_curve
from .rrspace import Divisor, P_INF, P_ORIGIN, dim, lt_at, shift_divisor, slack

__all__ = [
    "BoundResult",
    "designed_distance",
    "af_bound",
    "floor_bound",
    "kp_bound",
    "best_bound",
    "improvement_table",
    "verify_witness",
]


@dataclass(frozen=True, slots=True)
class BoundResult:
    """One lower bound on the minimum distance of C_Omega(D, G)."""

    method: str
    value: int
    designed: int
    curve: str
    divisor: Divisor
    representative_shift: int = 0
    witness: dict | None = None

    @property
    def improvement(self) -> int:
        return self.value - self.designed


def _require_two_point(G: Divisor, one_point: bool = False) -> None:
    if G.constraints:
        raise ValueError("bounds are defined for two-point divisors only")
    if one_point and G.inf != 0 and G.origin != 0:
        raise ValueError("one_point bounds need G supported at a single point")


def _representatives(m: int) -> list[int]:
    ks = list(range(-(m // 2), m - m // 2))
    ks.sort(key=lambda k: (abs(k), k < 0))
    return ks


# -- asymmetric floor, and kp as af with Z at one point ---------------------


def _support(G: Divisor) -> str:
    """The point that carries a one-point G (Pinf for G = 0)."""
    return P_INF if G.origin == 0 else P_ORIGIN


def af_search(
    curve: Curve, G: Divisor, pin: str | None = None, classes: int = 1
) -> tuple[int, Divisor | None, Divisor | None]:
    """Max deg(Z) over af witnesses (A, Z) of G; returns (zeta, A, Z), or
    (0, None, None) when no witness has zeta >= 1.

    pin=None searches every two-point A and Z.  pin=P puts Z at P and
    A = F + e*P, F in the first `classes` kp classes: F = c*P0 at Pinf,
    ((-c) mod m)*Pinf at P0.  Class 0 is F = 0, all that a one-point code
    (A and Z at the support of G) uses.  The first maximum wins, in
    (Z.origin, deg A, A.origin) order, or (class, deg A) with Z pinned.
    """
    g, m, dG = curve.genus, curve.shift_order, G.degree
    if dG > 4 * g - 3:  # the band of deg(A) is empty
        return 0, None, None
    lo, hi = dG + 2 - 2 * g, 2 * g - 1  # deg A; deg B = dG - deg A, read backwards
    if pin == P_ORIGIN:  # axes (c, deg A): A = a*Pinf + e*P0 with a = (-c) mod m, Z = zeta*P0
        c = np.arange(classes)
        z2 = slack(curve, "P2", dG - hi, dG - lo)[(G.inf + c) % m, ::-1]
        zeta = np.minimum(slack(curve, "P1", lo, hi)[-c % m], z2)
    else:  # axes (s, deg A, rho): A = (deg A - rho)*Pinf + rho*P0, Z.origin = s
        z2 = slack(curve, "Z2", dG - hi, dG - lo)[:, ::-1, (G.origin - np.arange(m)) % m]
        zeta = np.minimum(slack(curve, "Z1", lo, hi), z2)
        if pin == P_INF:  # axes (c, deg A): s = 0 and A = c*P0 + e*Pinf, Z = zeta*Pinf
            zeta = zeta[0, :, :classes].T
    first = int(zeta.argmax())
    if (best := int(zeta.flat[first])) == 0:
        return 0, None, None
    if pin is None:
        rest, r = divmod(first, m)
        k, j = divmod(rest, hi + 1 - lo)
        return best, Divisor(lo + j - r, r), Divisor(best - k, k)
    c, j = divmod(first, hi + 1 - lo)
    if pin == P_INF:
        return best, Divisor(lo + j - c, c), Divisor(best, 0)
    a = -c % m
    return best, Divisor(a, lo + j - a), Divisor(0, best)


# -- floor -------------------------------------------------------------------


def floor_search(curve: Curve, G: Divisor, one_point: bool = False):
    """Best (deg E, H, E) with G = H + floor(H), E = H - floor(H).

    Any such H satisfies 2H = G + E, so H is enumerated from the
    parity-compatible splits of deg E; deg E <= g because
    l(floor(H)) = l(H) >= 1 forces deg floor(H) >= deg(H) - g.
    """
    def ell(D: Divisor) -> int:
        return lt_at(curve, D.degree, D.origin)

    g1, g2 = G.inf, G.origin
    at_origin = one_point and G.inf == 0 and G.origin != 0
    for eps in range(curve.genus, -1, -1):
        if one_point:
            splits = [0] if at_origin else [eps]
        else:
            splits = range(eps + 1)
        for e1 in splits:
            e2 = eps - e1
            if (g1 + e1) % 2 or (g2 + e2) % 2:
                continue
            H, E = Divisor((g1 + e1) // 2, (g2 + e2) // 2), Divisor(e1, e2)
            if _is_floor(ell, H, E):
                return eps, H, E
    return None


def _is_floor(ell, H: Divisor, E: Divisor) -> bool:
    """True when floor(H) = H - E, where ell(D) = l(D).

    The floor is unique (Maharaj, Matthews and Pirsic 2005), so H - E is
    it exactly when E >= 0, l(H - E) = l(H), and dropping either point
    from H - E shrinks the space (which also rules out l(H) = 0).
    """
    if E.inf < 0 or E.origin < 0:
        return False
    ell_H = ell(H)
    F = H - E
    return (
        ell(F) == ell_H
        and ell(F - Divisor(1, 0)) != ell_H
        and ell(F - Divisor(0, 1)) != ell_H
    )


def _designed_value(curve: Curve, G: Divisor) -> int:
    return G.degree - (2 * curve.genus - 2)


def designed_distance(curve: Curve, G: Divisor) -> BoundResult:
    """Goppa designed distance deg(G) - (2g - 2) as a BoundResult."""
    _require_two_point(G)
    v = _designed_value(curve, G)
    return BoundResult("designed", v, v, curve.name, G)


def af_bound(curve: Curve, G: Divisor, one_point: bool = False) -> BoundResult:
    """Best bound from decompositions G = A + B with a slack divisor Z."""
    _require_two_point(G, one_point)
    zeta, A, Z = af_search(curve, G, _support(G) if one_point else None)
    designed = _designed_value(curve, G)
    if zeta == 0:
        witness = {"A": G, "B": Divisor(0, 0), "Z": Divisor(0, 0)}
        return BoundResult("af", designed, designed, curve.name, G, witness=witness)
    witness = {"A": A, "B": G - A, "Z": Z}
    result = BoundResult("af", designed + zeta, designed, curve.name, G, witness=witness)
    if not verify_witness(curve, result):
        raise RuntimeError("internal error: reduced af witness failed re-verification")
    return result


def kp_bound(
    curve: Curve, G: Divisor, point: str = P_INF, one_point: bool = False
) -> BoundResult | None:
    """Consecutive-gap bound at P0 or Pinf; None when no run exists."""
    _require_two_point(G, one_point)
    if point not in (P_INF, P_ORIGIN):
        raise ValueError(f"point must be {P_INF!r} or {P_ORIGIN!r}")
    if one_point and G.degree != 0 and point != _support(G):
        raise ValueError("one_point kp needs the gap point to carry G")
    # a run of t + 1 gaps is the af witness A = F + (alpha + t)*point, Z = (t + 1)*point
    zeta, A, _ = af_search(curve, G, point, 1 if one_point else curve.shift_order)
    if zeta == 0:
        return None
    F = Divisor(0, A.origin) if point == P_INF else Divisor(A.inf, 0)  # A less its point part
    designed = _designed_value(curve, G)
    t = zeta - 1
    witness = {"point": point, "F": F, "alpha": A.degree - F.degree - t, "t": t}
    name = "kp_Pinf" if point == P_INF else "kp_P0"
    return BoundResult(name, designed + zeta, designed, curve.name, G, witness=witness)


def floor_bound(
    curve: Curve, G: Divisor, fold: bool = True, one_point: bool = False
) -> BoundResult | None:
    """Best floor decomposition over shift representatives of G.

    With fold=False only G itself is tried.  Returns None when no
    representative can be written as H + floor(H).
    """
    _require_two_point(G, one_point)
    if one_point:
        fold = False  # shifted representatives pick up support at the other point
    designed = _designed_value(curve, G)
    best = None
    ks = _representatives(curve.shift_order) if fold else [0]
    for k in ks:
        got = floor_search(curve, shift_divisor(curve, G, k), one_point)
        if got is not None and (best is None or got[0] > best[1][0]):
            best = (k, got)
    if best is None:
        return None
    k, (eps, H, E) = best
    witness = {"H": H, "E": E}
    return BoundResult(
        "floor", designed + eps, designed, curve.name, G,
        representative_shift=k, witness=witness,
    )


def _candidates(curve: Curve, G: Divisor, one_point: bool = False) -> list[BoundResult | None]:
    """af, kp at each allowed point, the folded floor and designed, in
    best_bound's tie-break order; None where a bound does not apply."""
    kp_points = [_support(G)] if one_point else [P_INF, P_ORIGIN]
    return [
        af_bound(curve, G, one_point),
        *(kp_bound(curve, G, p, one_point) for p in kp_points),
        floor_bound(curve, G, one_point=one_point),
        designed_distance(curve, G),
    ]


def best_bound(curve: Curve, G: Divisor, one_point: bool = False) -> BoundResult:
    """The strongest of af, kp (both points), floor and designed; the
    first maximum, so af wins ties."""
    rated = [c for c in _candidates(curve, G, one_point) if c is not None]
    return max(rated, key=lambda c: c.value)


def _as_af(result: BoundResult) -> tuple[Divisor, Divisor]:
    """The af witness (A, Z), B = G' - A, of a certificate on representative G'.

    kp at P: A = F + (alpha + t)*P, Z = (t + 1)*P, so A - Z = F + (alpha - 1)*P
    and B + Z = G - F + (1 - alpha)*P; l grows by at most one per step, so
    the af equalities hold exactly when kp's two gap runs do.  Floor: A = H,
    Z = E, so B = H - E and both equalities read l(H) = l(H - E).
    """
    w = result.witness or {}
    if result.method == "af":
        return w["A"], w["Z"]
    if result.method == "floor":
        return w["H"], w["E"]
    if result.method in ("kp_Pinf", "kp_P0"):
        at_inf, at_origin = (1, 0) if result.method == "kp_Pinf" else (0, 1)
        top, run = w["alpha"] + w["t"], w["t"] + 1
        A = w["F"] + Divisor(top * at_inf, top * at_origin)
        return A, Divisor(run * at_inf, run * at_origin)
    raise ValueError(f"unknown bound method {result.method!r}")


def verify_witness(curve: Curve, result: BoundResult) -> bool:
    """Re-check a BoundResult's certificate with raw dimension computations:
    the af check on _as_af's witness, plus af's stated B, the floor's
    G' = H + floor(H) (minimality included) and kp's t >= 0."""
    G = shift_divisor(curve, result.divisor, result.representative_shift)
    designed = _designed_value(curve, G)
    if result.method == "designed":
        return result.value == designed
    A, Z = _as_af(result)
    B = G - A
    w = result.witness
    if result.method == "af":
        own = B == w["B"]
    elif result.method == "floor":  # A = H, Z = E
        own = A - Z == B and _is_floor(partial(dim, curve), A, Z)
    else:
        own = w["t"] >= 0
    return (
        own
        and Z.inf >= 0
        and Z.origin >= 0
        and dim(curve, A) == dim(curve, A - Z)
        and dim(curve, B) == dim(curve, B + Z)
        and result.value == designed + Z.degree
    )


# -- improvement tables -----------------------------------------------------


def _table_cell(curve: Curve, method: str, r: int, c: int):
    G = Divisor(c, r)
    if G.degree < 2 * curve.genus - 2:
        return None
    # a cell on an axis is a one-point code: the other point joins the
    # evaluation divisor and witnesses may not use it
    one_point = (r == 0) != (c == 0)
    afz = af_search(curve, G, _support(G) if one_point else None)[0]
    if method == "af":
        return afz if afz >= 1 else None
    # published floor tables rate each cell's own divisor, so no folding here
    fl = floor_bound(curve, G, fold=False, one_point=one_point)
    eps = fl.improvement if fl is not None else None
    if eps is not None and eps >= 1:
        return eps
    return "*" if afz >= 1 else None


def _table_chunk(args):
    curve_name, method, rs, cs = args
    curve = make_curve(curve_name)
    return [(r, [_table_cell(curve, method, r, c) for c in cs]) for r in rs]


def improvement_table(
    curve: Curve, method: str, rows: tuple[int, int], cols: tuple[int, int], threads: int = 1
) -> dict:
    """Improvements over the designed distance for G = r*P0 + c*Pinf.

    Cells with deg(G) < 2g - 2 are blank (None).  For method="af" a cell
    holds deg(Z) of the best asymmetric-floor witness, blank when 0.
    For method="floor" a cell holds the floor improvement of the cell's
    own divisor (no representative folding), with "*" marking cells
    where only the af bound improves.  With threads > 1 the rows go to
    min(threads, rows) worker processes.
    """
    if method not in ("af", "floor"):
        raise ValueError("table method must be 'af' or 'floor'")
    rs, cs = list(range(rows[0], rows[1] + 1)), list(range(cols[0], cols[1] + 1))
    workers = min(threads, len(rs))
    if workers <= 1:
        parts = [[(r, [_table_cell(curve, method, r, c) for c in cs]) for r in rs]]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only tables pay its import

        chunks = [(curve.name, method, rs[i::workers], cs) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_table_chunk, chunks))
    cells = {(r, c): val for part in parts for r, row in part for c, val in zip(cs, row)}
    return {"curve": curve.name, "method": method, "rows": rs, "cols": cs, "cells": cells}
