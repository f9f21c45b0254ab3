"""The class atlas: every bound on every shift class of a curve.

Every bound is a function of the shift class (deg G, G.origin mod m), and
outside degrees -1..max(6g-4, 4g) its value stops varying.  So one line
per class over that range, plus the one-point divisors a*Pinf and b*P0
over the same degrees, records a curve's whole bound output: designed,
af, kp at each allowed point, and the folded and unfolded floor, each
with its witness.  tests/test_bounds.py recomputes the lines and compares
them with tests/tables/<curve>_atlas.golden.

Regenerate the golden files (a change to them needs a CHANGES.md entry):

    PYTHONPATH=src python tests/_atlas.py
"""

import json
import sys
from pathlib import Path

from agbounds.bounds import af_bound, designed_distance, floor_bound, kp_bound
from agbounds.cli import render_divisor
from agbounds.curve import make_curve
from agbounds.rrspace import P_INF, P_ORIGIN, Divisor

CURVES = ("hermitian4", "hermitian9", "hermitian16", "suzuki8")
TABLES = Path(__file__).parent / "tables"


def atlas_cases(curve):
    """(G, one_point) for every class of degree -1..max(6g-4, 4g), then
    both one-point axes over the same degrees."""
    g, m = curve.genus, curve.shift_order
    degrees = range(-1, max(6 * g - 4, 4 * g) + 1)
    cases = [(Divisor(d - r, r), False) for d in degrees for r in range(m)]
    return cases + [(G, True) for d in degrees for G in (Divisor(d, 0), Divisor(0, d))]


def atlas_results(curve, G, one_point):
    """{name: BoundResult or None} for every bound that applies to G."""
    points = [P_INF if G.origin == 0 else P_ORIGIN] if one_point else [P_INF, P_ORIGIN]
    results = {"designed": designed_distance(curve, G), "af": af_bound(curve, G, one_point)}
    for p in points:
        results[f"kp_{p}"] = kp_bound(curve, G, p, one_point)
    results["floor"] = floor_bound(curve, G, one_point=one_point)
    if not one_point:
        results["floor_unfolded"] = floor_bound(curve, G, fold=False)
    return results


def _entry(res):
    if res is None:
        return None
    entry = {"value": res.value}
    if res.representative_shift:
        entry["shift"] = res.representative_shift
    if res.witness:
        entry["witness"] = {
            key: render_divisor(val) if isinstance(val, Divisor) else val
            for key, val in res.witness.items()
        }
    return entry


def atlas_line(G, one_point, results):
    obj = {"G": render_divisor(G), "one_point": one_point}
    obj.update((name, _entry(res)) for name, res in results.items())
    return json.dumps(obj)


def atlas_path(name):
    return TABLES / f"{name}_atlas.golden"


def main(names):
    for name in names or CURVES:
        curve = make_curve(name)
        lines = [atlas_line(G, op, atlas_results(curve, G, op)) for G, op in atlas_cases(curve)]
        atlas_path(name).write_text("\n".join(lines) + "\n")
        print(f"{atlas_path(name)}: {len(lines)} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
