"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest

import agbounds as ab
from latency import LADDER, median_of_op_medians, percentile, rank, tail_percentile
from tracing import Tracer
from workloads import WORKLOADS, macwilliams

# -- MacWilliams --------------------------------------------------------------


def test_macwilliams_binary_repetition_code():
    # [3, 1] repetition code; its dual is the [3, 2] even-weight code.
    assert macwilliams([1, 0, 0, 1], 2, 1) == [1, 0, 3, 0]
    assert macwilliams([1, 0, 3, 0], 2, 2) == [1, 0, 0, 1]


def test_macwilliams_rejects_a_non_linear_distribution():
    with pytest.raises(ValueError):
        macwilliams([1, 1, 0, 1], 2, 1)


@pytest.mark.parametrize("inf, origin", [(1, 2), (3, -1), (-2, 5), (4, 1)])
def test_macwilliams_matches_enumerating_both_codes(inf, origin):
    curve = ab.make_curve("hermitian4")
    G = ab.Divisor(inf, origin)
    cl, co = ab.cl_code(curve, G), ab.comega_code(curve, G)
    a, b = ab.weight_enumerator(cl), ab.weight_enumerator(co)
    assert macwilliams(a, 4, cl.k) == list(b)
    assert macwilliams(b, 4, co.k) == list(a)


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_median_alone_below_forty_samples(n):
    assert tail_percentile(n) == 50.0


@pytest.mark.parametrize(
    "n, p", [(40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
             (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_thresholds(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(40, 12000, 7):
        p = tail_percentile(n)
        assert n - rank(p, n) >= 10
        higher = [q for q in LADDER if q > p]
        assert not higher or n - rank(higher[0], n) < 10


def test_percentile_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 95.0) == 95
    assert percentile(samples, 100.0) == 100


def test_median_of_op_medians_ignores_a_slow_round():
    # Three operations costing 1, 2 and 10; the third round ran 20x slow.
    samples = [1, 2, 10, 1, 2, 10, 20, 40, 200]
    assert median_of_op_medians(samples, 3) == 2
    # The plain median is pulled up to the costly class by that round.
    assert sorted(samples)[len(samples) // 2] == 10


# -- checks reject wrong outputs ------------------------------------------------


def _first(workload, pred):
    wl = WORKLOADS[workload]
    return wl, next(op for op in wl.make_round(3) if pred(op))


def test_rate_check_rejects_an_inflated_value():
    wl, op = _first("rate", lambda op: op[0] == "hermitian16" and not op[3])
    res = wl.run(op)
    assert wl.check(op, res) is None
    from dataclasses import replace

    assert wl.check(op, replace(res, value=res.value + 1)) is not None


def test_table_check_rejects_a_changed_cell():
    wl, op = _first("table", lambda op: op[2] == "HERMITIAN16_AF" and op[3] == 9)
    rc, text = wl.run(op)
    assert wl.check(op, (rc, text)) is None
    assert text.splitlines()[1] == "9,,2,2,1,"  # the certified erratum cell reads 2
    assert wl.check(op, (rc, text.replace("9,,2,2,1,", "9,,2,1,1,"))) is not None
    assert wl.check(op, (rc, text.replace("9,,2,2,1,", "9,,2,2"))) is not None


def test_certify_check_rejects_a_bound_above_the_true_distance():
    wl, op = _first("certify", lambda op: op[0] == "hermitian4")
    n, k, weights, bound, d = wl.run(op)
    assert wl.check(op, (n, k, weights, bound, d)) is None
    assert wl.check(op, (n, k, weights, d + 1, d)) is not None
    assert wl.check(op, (n, k, weights, bound, d + 1)) is not None


# -- traced mode ----------------------------------------------------------------


def _agbounds_bindings():
    mods = [m for name, m in sys.modules.items() if name == "agbounds" or name.startswith("agbounds.")]
    snap = {(m.__name__, attr): val for m in mods for attr, val in vars(m).items()}
    snap[("Curve", "evaluate_monomial")] = ab.Curve.__dict__["evaluate_monomial"]
    return snap


def test_traced_mode_leaves_outputs_unchanged_and_restores_functions():
    cases = [
        _first("rate", lambda op: op[0] == "hermitian16"),
        _first("table", lambda op: op[2] == "HERMITIAN16_FLOOR"),
        _first("certify", lambda op: op[0] == "hermitian4"),
    ]
    plain = [wl.run(op) for wl, op in cases]
    before = _agbounds_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert ab.best_bound is not before[("agbounds", "best_bound")]
        traced = [wl.run(op) for wl, op in cases]
    finally:
        tracer.uninstall()
    after = _agbounds_bindings()
    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    summary = tracer.summary()
    for name in ("bounds.best_bound", "cli.main", "cli.render_table", "codes.cl_code",
                 "codes.weight_enumerator", "rrspace.dim", "curve.make_curve"):
        assert summary[name]["calls"] >= 1, name
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9
    assert 1 <= tracer.counts["rrspace.dim.misses"] <= summary["rrspace.dim"]["calls"]
    op = cases[2][1]
    assert tracer.counts["codes.weight_enumerator.words"] == 4 ** op[3]


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_names_every_metric_the_runner_prints():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
