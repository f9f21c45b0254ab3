"""Hermitian and Suzuki curves with generator power series at the origin.

Supported curves:

* hermitian4, hermitian9, hermitian16: y^q + y = x^(q+1) over GF(q^2)
  for q = 2, 3, 4.
* suzuki8: y^8 - y = x^10 - x^3 over GF(8), together with the auxiliary
  functions z = x^5 + y^4 and w = x*y^4 + z^4.

Every affine point is smooth with non-vanishing y-derivative, so x - x0
is a uniformizer everywhere; in particular x is a uniformizer at the
origin P0 = (0, 0).  The curve computes the power series of its
generators in x at P0 once and caches them as plain coefficient arrays
(exact on [0, W) for the working precision W).

Pole orders at the unique point at infinity:

* Hermitian: x -> q, y -> q+1 (Weierstrass semigroup <q, q+1>).
* Suzuki: x, y, z, w -> 8, 10, 12, 13 (semigroup <8, 10, 12, 13>).

The shift function (y for Hermitian, w for Suzuki) has divisor
m*(P0 - Pinf) with m = q+1 resp. 13; Riemann-Roch computations use it
to push poles at the origin out to infinity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .field import Field, make_field

__all__ = [
    "INFINITY",
    "Monomial",
    "Curve",
    "HermitianCurve",
    "SuzukiCurve",
    "make_curve",
]


class _Infinity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Pinf"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Monomial:
    """Product of curve generators with its pole order at infinity."""

    exps: tuple[int, ...]
    pole: int


def _conv(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series exact on [0, W), truncated to the same window."""
    n = len(a)
    out = np.zeros(n, dtype=np.uint8)
    for i in np.flatnonzero(a):
        i = int(i)
        out[i:] = field.ADD[out[i:], field.MUL[a[i], b[: n - i]]]
    return out


def _frob_stretch(field: Field, a: np.ndarray, e: int, n: int) -> np.ndarray:
    """(sum a_i x^i)^e for a power e of the characteristic, truncated to n."""
    out = np.zeros(n, dtype=np.uint8)
    for i in np.flatnonzero(a):
        i = int(i)
        if i * e < n:
            out[i * e] = field.pow(int(a[i]), e)
    return out


def _x_power(n: int, e: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.uint8)
    if 0 <= e < n:
        out[e] = 1
    return out


def _shift_up(a: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(len(a), dtype=np.uint8)
    out[k:] = a[: len(a) - k]
    return out


class Curve:
    """Common interface: points, generator series, monomial bases."""

    name: str
    field: Field
    genus: int
    shift_order: int
    gens: tuple[str, ...]
    pole_orders: tuple[int, ...]
    origin: tuple[int, int] = (0, 0)
    shift_index: int  # generator whose divisor is shift_order*(P0 - Pinf)

    def __init__(self) -> None:
        self._series_W = 0
        self._gen_series: dict[str, np.ndarray] = {}
        self._combo_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._value_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self.affine_points = self._enumerate_affine()
        assert self.origin in self.affine_points
        self._self_check()

    # -- subclass hooks ----------------------------------------------------

    def equation_value(self, x: int, y: int) -> int:
        raise NotImplementedError

    def _patterns(self) -> list[tuple[int, ...]]:
        """Exponent tuples for the non-x generators of the monomial basis."""
        raise NotImplementedError

    def _build_gen_series(self, W: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _expected_points(self) -> int:
        raise NotImplementedError

    # -- points ------------------------------------------------------------

    def _enumerate_affine(self) -> list[tuple[int, int]]:
        pts = [
            (x, y)
            for x in self.field.elements()
            for y in self.field.elements()
            if self.equation_value(x, y) == 0
        ]
        assert len(pts) == self._expected_points() - 1, "affine point count mismatch"
        return pts

    def gen_values(self, pt: tuple[int, int]) -> tuple[int, ...]:
        """Values of the curve generators at an affine point."""
        if pt is INFINITY:
            raise ValueError("generators have poles at infinity")
        got = self._value_cache.get(pt)
        if got is None:
            got = self._values_at(pt)
            self._value_cache[pt] = got
        return got

    def _values_at(self, pt: tuple[int, int]) -> tuple[int, ...]:
        return pt

    def evaluate_monomial(self, mono: Monomial, pt: tuple[int, int]) -> int:
        f = self.field
        acc = 1
        for v, e in zip(self.gen_values(pt), mono.exps):
            if e:
                acc = f.mul(acc, f.pow(v, e))
        return acc

    # -- monomial bases ----------------------------------------------------

    def monomials(self, max_pole: int) -> list[Monomial]:
        """Monomials with pairwise distinct pole orders <= max_pole at Pinf."""
        out = []
        px = self.pole_orders[0]
        for pat in self._patterns():
            base = sum(e * po for e, po in zip(pat, self.pole_orders[1:]))
            if base > max_pole:
                continue
            for a in range((max_pole - base) // px + 1):
                out.append(Monomial((a, *pat), a * px + base))
        out.sort(key=lambda mo: mo.pole)
        return out

    # -- series ------------------------------------------------------------

    def series(self, W: int) -> dict[str, np.ndarray]:
        """Generator power series at the origin, exact on [0, W)."""
        if W > self._series_W:
            W = max(W, 2 * self._series_W, 48)
            self._gen_series = self._build_gen_series(W)
            self._series_W = W
            self._combo_cache = {}
        return self._gen_series

    def combo_series(self, pattern: tuple[int, ...], W: int) -> np.ndarray:
        """Series of prod(gen_i^pattern_i) over the non-x generators."""
        self.series(W)
        got = self._combo_cache.get(pattern)
        if got is None:  # series() emptied the cache if the width grew
            got = _x_power(self._series_W, 0)
            for name, e in zip(self.gens[1:], pattern):
                for _ in range(e):
                    got = _conv(self.field, got, self._gen_series[name])
            self._combo_cache[pattern] = got
        return got

    def _self_check(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class HermitianCurve(Curve):
    """y^q + y = x^(q+1) over GF(q^2), genus q(q-1)/2."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError("supported Hermitian parameters: q in {2, 3, 4}")
        self.q = q
        self.field = make_field(q * q)
        self.name = f"hermitian{q * q}"
        self.genus = q * (q - 1) // 2
        self.shift_order = q + 1
        self.gens = ("x", "y")
        self.pole_orders = (q, q + 1)
        self.shift_index = 1
        super().__init__()

    def equation_value(self, x: int, y: int) -> int:
        f = self.field
        return f.sub(f.add(f.pow(y, self.q), y), f.pow(x, self.q + 1))

    def _patterns(self) -> list[tuple[int, ...]]:
        return [(j,) for j in range(self.q)]

    def _expected_points(self) -> int:
        return self.q**3 + 1

    def _build_gen_series(self, W: int) -> dict[str, np.ndarray]:
        # Fixed point of y = x^(q+1) - y^q; the error is cubed/squared
        # each round, so a handful of iterations reach any precision.
        f = self.field
        q = self.q
        xq1 = _x_power(W, q + 1)
        y = xq1.copy()
        for _ in range(64):
            yq = _frob_stretch(f, y, q, W)
            nxt = f.ADD[xq1, f.NEG[yq]]
            if np.array_equal(nxt, y):
                break
            y = nxt
        else:
            raise RuntimeError("series iteration did not converge")
        return {"y": y}

    def _self_check(self) -> None:
        f = self.field
        q = self.q
        y = self.series(48)["y"]
        assert int(np.flatnonzero(y)[0]) == q + 1, "v(y) at the origin must be q+1"
        lhs = f.ADD[_frob_stretch(f, y, q, self._series_W), y]
        assert np.array_equal(lhs, _x_power(self._series_W, q + 1)), "y^q + y != x^(q+1)"


class SuzukiCurve(Curve):
    """y^8 - y = x^10 - x^3 over GF(8), genus 14."""

    def __init__(self):
        self.field = make_field(8)
        self.name = "suzuki8"
        self.genus = 14
        self.shift_order = 13
        self.gens = ("x", "y", "z", "w")
        self.pole_orders = (8, 10, 12, 13)
        self.shift_index = 3
        super().__init__()

    def equation_value(self, x: int, y: int) -> int:
        f = self.field
        rhs = f.sub(f.pow(x, 10), f.pow(x, 3))
        return f.sub(f.sub(f.pow(y, 8), y), rhs)

    def _values_at(self, pt: tuple[int, int]) -> tuple[int, ...]:
        f = self.field
        x, y = pt
        z = f.add(f.pow(x, 5), f.pow(y, 4))
        w = f.add(f.mul(x, f.pow(y, 4)), f.pow(z, 4))
        return (x, y, z, w)

    def _patterns(self) -> list[tuple[int, ...]]:
        return [(b, c, d) for b in (0, 1) for c in (0, 1) for d in (0, 1)]

    def _expected_points(self) -> int:
        return 65

    def _build_gen_series(self, W: int) -> dict[str, np.ndarray]:
        f = self.field
        x3 = _x_power(W, 3)
        x5 = _x_power(W, 5)
        x10 = _x_power(W, 10)
        rhs = f.ADD[x10, x3]  # char 2
        y = x3.copy()
        for _ in range(64):
            nxt = f.ADD[_frob_stretch(f, y, 8, W), rhs]
            if np.array_equal(nxt, y):
                break
            y = nxt
        else:
            raise RuntimeError("series iteration did not converge")
        z = f.ADD[x5, _frob_stretch(f, y, 4, W)]
        w = f.ADD[_shift_up(_frob_stretch(f, y, 4, W), 1), _frob_stretch(f, z, 4, W)]
        return {"y": y, "z": z, "w": w}

    def _self_check(self) -> None:
        f = self.field
        s = self.series(48)
        W = self._series_W
        y, z, w = s["y"], s["z"], s["w"]
        assert int(np.flatnonzero(y)[0]) == 3, "v(y) must be 3"
        assert int(np.flatnonzero(z)[0]) == 5, "v(z) must be 5"
        assert int(np.flatnonzero(w)[0]) == 13, "v(w) must be 13"
        # z^2 = y + x^3 and w^2 = x^2 y + z on the curve
        assert np.array_equal(_frob_stretch(f, z, 2, W), f.ADD[y, _x_power(W, 3)])
        assert np.array_equal(_frob_stretch(f, w, 2, W), f.ADD[_shift_up(y, 2), z])


@functools.lru_cache(maxsize=None)
def make_curve(name: str) -> Curve:
    """Shared curve instance: hermitian4, hermitian9, hermitian16, suzuki8."""
    if name == "suzuki8":
        return SuzukiCurve()
    if name.startswith("hermitian"):
        try:
            order = int(name[len("hermitian") :])
        except ValueError:
            order = -1
        for q in (2, 3, 4):
            if q * q == order:
                return HermitianCurve(q)
    raise ValueError(
        f"unknown curve {name!r}; available: hermitian4, hermitian9, hermitian16, suzuki8"
    )
