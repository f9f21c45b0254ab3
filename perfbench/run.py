"""agbounds benchmark: rate, table and certify workloads.

    python3 perfbench/run.py --workload rate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  Each workload is a closed loop: one process, one
caller, the next operation starts when the last one ends.  The run
repeats whole rounds of the workload's seeded operations until
``--seconds`` have passed and at least the workload's minimum sample
count is reached, then checks every output outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead
traces one round (after the same warm-up) with every public agbounds
function wrapped, and prints the per-layer metrics; its work is fixed
by the seed, so its counts repeat exactly.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "field.rank_of.calls": "count",
    "field.rank_of.self_s": "s",
    "field.nullspace_of.self_s": "s",
    "curve.make_curve.self_s": "s",
    "curve.evaluate_monomial.calls": "count",
    "curve.evaluate_monomial.self_s": "s",
    "rrspace.dim.calls": "count",
    "rrspace.dim.misses": "count",
    "rrspace.dim.self_s": "s",
    "rrspace.floor_divisor.calls": "count",
    "rrspace.floor_divisor.self_s": "s",
    "rrspace.function_basis.self_s": "s",
    "bounds.best_bound.calls": "count",
    "bounds.af_bound.self_s": "s",
    "bounds.kp_bound.self_s": "s",
    "bounds.floor_bound.self_s": "s",
    "bounds.verify_witness.self_s": "s",
    "bounds.improvement_table.cells": "count",
    "bounds.improvement_table.self_s": "s",
    "bounds.improvement_table.serial_s": "s",
    "bounds.improvement_table.pool_s": "s",
    "codes.cl_code.self_s": "s",
    "codes.comega_code.self_s": "s",
    "codes.weight_enumerator.words": "count",
    "codes.weight_enumerator.self_s": "s",
    "codes.words_per_s": "1/s",
    "codes.min_distance_exhaustive.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.render_table.self_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="agbounds benchmark")
    p.add_argument("--workload", required=True, choices=("rate", "table", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def guarded(wl, op):
    """The operation's output, or the exception it raised."""
    try:
        return wl.run(op)
    except Exception as exc:  # counted as a failed operation, the loop goes on
        return exc


def check_outputs(wl, ops, outs) -> tuple[int, int, dict]:
    """(failed, wrong, {message: count}) over outputs of repeated rounds."""
    failed = wrong = 0
    messages: dict[str, int] = {}
    for i, out in enumerate(outs):
        op = ops[i % len(ops)]
        if isinstance(out, Exception):
            msg = f"{op}: raised {out!r}"
        else:
            try:
                msg = wl.check(op, out)
            except Exception as exc:
                msg = f"check raised {exc!r}"
            if msg is not None:
                wrong += 1
                msg = f"{op}: {msg}"
        if msg is not None:
            failed += 1
            messages[msg] = messages.get(msg, 0) + 1
    return failed, wrong, messages


def setup_probe(wl, seed: int) -> None:
    ops = wl.make_round(seed)
    for op in wl.setup_ops(ops):
        guarded(wl, op)
    print(time.monotonic(), flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median cold start over fresh processes: launch to warm first op."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def timed_run(wl, ops, seconds: float):
    """Whole rounds until `seconds` and `wl.min_ops` are both reached."""
    clock = time.perf_counter
    lat, outs = [], []
    start = clock()
    while True:
        for op in ops:
            t0 = clock()
            outs.append(guarded(wl, op))
            lat.append(clock() - t0)
        elapsed = clock() - start
        if elapsed >= seconds and len(lat) >= wl.min_ops:
            return lat, outs, elapsed


def end_to_end(wl, args) -> dict:
    from latency import median_of_op_medians, percentile, tail_percentile

    setup_s = measure_setup(wl.name, args.seed)
    ops = wl.make_round(args.seed)
    for op in wl.warmup(ops):
        guarded(wl, op)
    lat, outs, elapsed = timed_run(wl, ops, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, messages = check_outputs(wl, ops, outs)
    completed = sum(not isinstance(o, Exception) for o in outs)
    tail_p = tail_percentile(len(lat))
    values = {
        "throughput_ops_s": completed / elapsed,
        "latency_p50_ms": median_of_op_medians(lat, len(ops)) * 1e3,
        "latency_tail_ms": percentile(lat, tail_p) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"latency-{wl.name}-seed{args.seed}.tsv", "w") as fh:
        fh.write("round\top\tseconds\n")
        fh.writelines(f"{i // len(ops)}\t{i % len(ops)}\t{t:.7f}\n" for i, t in enumerate(lat))
    print(f"{wl.name}: {len(lat)} ops ({len(lat) // len(ops)} rounds of {len(ops)}) "
          f"in {elapsed:.2f} s; tail = p{tail_p:g} of {len(lat)} samples")
    for name, v in values.items():
        print(f"  {name:<18} {v:12.4f} {END_TO_END[name]}")
    return report(values, END_TO_END, len(outs), failed, wrong, messages)


def traced(wl, args) -> dict:
    from tracing import Tracer

    ops = wl.make_round(args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        for op in wl.warmup(ops):
            guarded(wl, op)
        t0 = time.perf_counter()
        outs = [guarded(wl, op) for op in ops]
        traced_s = time.perf_counter() - t0
        failed, wrong, messages = check_outputs(wl, ops, outs)
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    for op in ops:
        guarded(wl, op)
    plain_s = time.perf_counter() - t0

    summary = tracer.summary()
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span in summary and kind in ("calls", "self_s"):
            values[name] = summary[span][kind]
    values.update(tracer.counts)
    enum_s = values["codes.weight_enumerator.self_s"]
    values["codes.words_per_s"] = values["codes.weight_enumerator.words"] / enum_s if enum_s else 0.0
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    attempted = len(outs)
    if wl.name == "table":
        serial_s, pool_s, msg = wl.pool_against_serial()
        values["bounds.improvement_table.serial_s"] = serial_s
        values["bounds.improvement_table.pool_s"] = pool_s
        attempted += 1
        if msg is not None:
            failed, wrong = failed + 1, wrong + 1
            messages[msg] = 1

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.tsv"
    tracer.write_spans(path)
    print(f"{wl.name} traced: {len(tracer.span_name)} spans over warm-up, one round of "
          f"{len(ops)} and its checks; round {traced_s:.3f} s traced, {plain_s:.3f} s plain; "
          f"spans in {path.relative_to(ROOT)}")
    print(f"  {'span':<36} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    for span, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {span:<36} {row['calls']:>9} {row['self_s']:>10.4f} {row['total_s']:>10.4f}")
    return report(values, PER_LAYER, attempted, failed, wrong, messages)


def report(values, units, attempted, failed, wrong, messages) -> dict:
    for msg, count in sorted(messages.items()):
        print(f"FAILED x{count}: {msg}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "agbounds" / "__init__.py").is_file():
        print(f"perfbench: no agbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agbounds

    if Path(agbounds.__file__).resolve().parent != SRC / "agbounds":
        print(f"perfbench: imported agbounds from {agbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(wl, args.seed)
        return 0
    result = traced(wl, args) if args.trace else end_to_end(wl, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
