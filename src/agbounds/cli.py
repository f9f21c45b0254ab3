"""Command-line front end.

Subcommands
-----------
ell         dimension of the Riemann-Roch space L(G)
floor       floor of a divisor
semigroup   Weierstrass non-gaps (or gaps) at Pinf
bound       one distance bound for C_Omega(D, G), emitted as a JSON line
table       improvement table over a divisor window (markdown or CSV)
code        generator matrix of C_L or C_Omega as CSV with a header
verify      brute-force soundness sweep on a small curve

Divisors are written `<int>*P0 + <int>*Pinf`; either term may be
omitted, signs are allowed, repeated terms are summed, and a bare 0 is
the zero divisor.

Exit codes: 0 success, 2 usage or domain error, 3 verification failure
(a violated bound, or a verify sweep that checked no divisor).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .bounds import (
    BoundResult,
    af_bound,
    best_bound,
    designed_distance,
    floor_bound,
    improvement_table,
    kp_bound,
)
from .codes import cl_code, comega_code, verify_soundness
from .curve import Curve, make_curve
from .rrspace import (
    Divisor,
    P_INF,
    P_ORIGIN,
    dim,
    floor_divisor,
    load_dim_cache,
    save_dim_cache,
    semigroup,
)

__all__ = ["main", "parse_divisor", "render_divisor", "render_table"]

CURVES = ("hermitian4", "hermitian9", "hermitian16", "suzuki8")

# one divisor term: optional +/- connector, an integer, optionally *P0 / *Pinf
_TERM = re.compile(r"\s*(?P<con>[+-])?\s*(?P<num>\d+)\s*(?:\*\s*(?P<place>P0|Pinf))?")


def parse_divisor(text: str) -> Divisor:
    """Parse the `<int>*P0 + <int>*Pinf` grammar into a Divisor."""
    coeff = {P_ORIGIN: 0, P_INF: 0}
    pos, end, count = 0, len(text), 0
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None or m.group("num") is None:
            if not text[pos:].strip():
                break  # trailing whitespace
            raise ValueError(
                f"bad divisor {text!r}: expected '<int>*P0' or '<int>*Pinf'"
                f" at position {pos}"
            )
        if count > 0 and m.group("con") is None:
            raise ValueError(
                f"bad divisor {text!r}: expected '+' or '-'"
                f" at position {m.start('num')}"
            )
        sign = -1 if m.group("con") == "-" else 1
        place = m.group("place")
        if place is None:
            if int(m.group("num")) != 0:
                raise ValueError(
                    f"bad divisor {text!r}: expected '*P0' or '*Pinf'"
                    f" at position {m.end('num')}"
                )
        else:
            coeff[place] += sign * int(m.group("num"))
        pos = m.end()
        count += 1
    if count == 0:
        raise ValueError(f"bad divisor {text!r}: empty expression")
    return Divisor(coeff[P_INF], coeff[P_ORIGIN])


def render_divisor(d: Divisor) -> str:
    """Inverse of parse_divisor: `32*P0 + 1*Pinf`, `41*Pinf`, `0`, ..."""
    if d.constraints:
        raise ValueError("only two-point divisors have a text form")
    terms = [(c, p) for c, p in ((d.origin, P_ORIGIN), (d.inf, P_INF)) if c]
    if not terms:
        return "0"
    out = []
    for i, (c, place) in enumerate(terms):
        if i == 0:
            out.append(f"{'-' if c < 0 else ''}{abs(c)}*{place}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {abs(c)}*{place}")
    return " ".join(out)


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text.strip())
    if m is None:
        raise ValueError(f"bad range {text!r}: expected 'lo:hi'")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"bad range {text!r}: lo must not exceed hi")
    return lo, hi


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def render_table(table: dict, fmt: str = "markdown") -> str:
    """Rows labelled by the P0 coefficient, columns by the Pinf one.

    Blank cell: no improvement (or deg G < 2g-2).  In floor tables '*'
    marks cells where only the af bound improves.
    """
    rows, cols, cells = table["rows"], table["cols"], table["cells"]
    grid = [
        ["" if cells[(r, c)] is None else str(cells[(r, c)]) for c in cols]
        for r in rows
    ]
    if fmt == "csv":
        lines = [",".join([""] + [str(c) for c in cols])]
        lines += [",".join([str(r)] + line) for r, line in zip(rows, grid)]
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown table format {fmt!r}")
    label_w = max([len(str(r)) for r in rows] + [1])
    widths = [
        max([len(str(c))] + [len(line[i]) for line in grid] + [1])
        for i, c in enumerate(cols)
    ]

    def line_of(label: str, vals: list[str]) -> str:
        padded = [label.rjust(label_w)] + [v.rjust(w) for v, w in zip(vals, widths)]
        return "| " + " | ".join(padded) + " |"

    out = [line_of("", [str(c) for c in cols])]
    out.append("|" + "|".join("-" * (w + 1) + ":" for w in [label_w] + widths) + "|")
    out += [line_of(str(r), line) for r, line in zip(rows, grid)]
    return "\n".join(out) + "\n"


def _result_obj(res: BoundResult | None, method: str, curve: Curve, G: Divisor) -> dict:
    if res is None:
        return {
            "curve": curve.name,
            "divisor": render_divisor(G),
            "method": method,
            "value": None,
            "note": "not applicable",
        }
    obj = {
        "curve": res.curve,
        "divisor": render_divisor(res.divisor),
        "method": res.method,
        "value": res.value,
        "designed": res.designed,
        "improvement": res.improvement,
        "representative_shift": res.representative_shift,
    }
    if res.witness:
        obj["witness"] = {
            key: render_divisor(val) if isinstance(val, Divisor) else val
            for key, val in res.witness.items()
        }
    if res.note:
        obj["note"] = res.note
    return obj


def _cmd_ell(curve: Curve, args) -> int:
    print(dim(curve, parse_divisor(args.divisor)))
    return 0


def _cmd_floor(curve: Curve, args) -> int:
    print(render_divisor(floor_divisor(curve, parse_divisor(args.divisor))))
    return 0


def _cmd_semigroup(curve: Curve, args) -> int:
    nongaps = semigroup(curve, args.limit)
    vals = sorted(set(range(args.limit + 1)) - set(nongaps)) if args.gaps else nongaps
    print(" ".join(str(v) for v in vals))
    return 0


def _cmd_bound(curve: Curve, args) -> int:
    G = parse_divisor(args.divisor)
    if G.degree <= 2 * curve.genus - 2 and not args.all:
        raise ValueError(
            f"deg G = {G.degree} <= 2g - 2 = {2 * curve.genus - 2};"
            " pass --all to rate it anyway"
        )
    if args.method == "designed":
        res: BoundResult | None = designed_distance(curve, G)
    elif args.method == "af":
        res = af_bound(curve, G, args.one_point)
    elif args.method == "kp":
        res = kp_bound(curve, G, point=args.point, one_point=args.one_point)
    elif args.method == "floor":
        res = floor_bound(curve, G, fold=not args.no_fold, one_point=args.one_point)
    else:
        res = best_bound(curve, G, args.one_point)
    print(json.dumps(_result_obj(res, args.method, curve, G)))
    return 0


def _cmd_table(curve: Curve, args) -> int:
    table = improvement_table(
        curve,
        args.method,
        _parse_range(args.rows),
        _parse_range(args.cols),
        threads=args.threads,
    )
    sys.stdout.write(render_table(table, args.format))
    return 0


def _cmd_code(curve: Curve, args) -> int:
    build = comega_code if args.omega else cl_code
    code = build(curve, parse_divisor(args.divisor), one_point=args.one_point)
    out = sys.stdout
    out.write(f"# curve: {code.curve}\n")
    out.write(f"# kind: {code.kind}\n")
    out.write(f"# divisor: {render_divisor(code.divisor)}\n")
    out.write(f"# n: {code.n}\n")
    out.write(f"# k: {code.k}\n")
    out.write("# points: " + " ".join(f"{x}:{y}" for x, y in code.points) + "\n")
    for row in code.generator:
        out.write(",".join(str(int(v)) for v in row) + "\n")
    return 0


def _cmd_verify(curve: Curve, args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    report = verify_soundness(
        curve,
        deg_range=(1, args.max_deg),
        budget=args.budget,
        coeff_window=_parse_range(args.window),
        rng=rng,
    )
    report["violations"] = [
        {**v, "G": render_divisor(v["G"])} for v in report["violations"]
    ]
    print(json.dumps(report))
    return 0 if report["ok"] else 3


_COMMANDS = {
    "ell": _cmd_ell,
    "floor": _cmd_floor,
    "semigroup": _cmd_semigroup,
    "bound": _cmd_bound,
    "table": _cmd_table,
    "code": _cmd_code,
    "verify": _cmd_verify,
}


# argparse reads an argument that starts with "-" as an option, so such a
# divisor must follow "--", which ends the options.
DIVISOR_HELP = (
    "e.g. '32*P0 + 1*Pinf'; one that starts with '-' goes after the options"
    " and --: -- '-3*Pinf'"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agbounds",
        description="Minimum-distance bounds for one- and two-point"
        " algebraic-geometry codes on Hermitian and Suzuki curves.",
    )
    parser.add_argument("--curve", required=True, choices=CURVES)
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="ell-table CSV cache, loaded if present and updated on success",
    )
    parser.add_argument(
        "--check-cache",
        action="store_true",
        help="recompute every cached ell value on load",
    )
    parser.add_argument(
        "--threads",
        type=_worker_count,
        default=1,
        help="worker processes for table cells",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="scan-order seed for verify"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ell", help="dimension of L(G)")
    p.add_argument("divisor", help=DIVISOR_HELP)

    p = sub.add_parser("floor", help="floor of a divisor")
    p.add_argument("divisor", help=DIVISOR_HELP)

    p = sub.add_parser("semigroup", help="Weierstrass non-gaps at Pinf")
    p.add_argument("--limit", type=int, default=60)
    p.add_argument("--gaps", action="store_true", help="print the gaps instead")

    p = sub.add_parser("bound", help="distance bound for C_Omega(D, G)")
    p.add_argument("divisor", help=DIVISOR_HELP)
    p.add_argument(
        "--method",
        choices=("designed", "floor", "kp", "af", "best"),
        default="best",
    )
    p.add_argument(
        "--point",
        choices=(P_INF, P_ORIGIN),
        default=P_INF,
        help="gap point for --method kp",
    )
    p.add_argument(
        "--one-point",
        action="store_true",
        help="treat G as a one-point code: witnesses stay at the support point",
    )
    p.add_argument(
        "--no-fold",
        action="store_true",
        help="floor: rate only G itself, not its shift representatives",
    )
    p.add_argument("--all", action="store_true", help="allow deg G <= 2g - 2")

    p = sub.add_parser("table", help="improvement table over a divisor window")
    p.add_argument("--method", choices=("af", "floor"), default="af")
    p.add_argument("--rows", required=True, help="P0 coefficients, lo:hi")
    p.add_argument("--cols", required=True, help="Pinf coefficients, lo:hi")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    # also accepted after the subcommand; SUPPRESS keeps the global value
    p.add_argument("--threads", type=_worker_count, default=argparse.SUPPRESS)

    p = sub.add_parser("code", help="generator matrix as CSV")
    p.add_argument("divisor", help=DIVISOR_HELP)
    p.add_argument("--omega", action="store_true", help="emit C_Omega instead of C_L")
    p.add_argument("--one-point", action="store_true")

    p = sub.add_parser("verify", help="brute-force soundness sweep")
    p.add_argument("--max-deg", type=int, default=8)
    p.add_argument("--budget", type=int, default=2**24)
    p.add_argument("--window", default="-8:6", help="coefficient window, lo:hi")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    curve = make_curve(args.curve)
    try:
        if args.cache and os.path.exists(args.cache):
            load_dim_cache(curve, args.cache, verify=args.check_cache)
        rc = _COMMANDS[args.command](curve, args)
    except ValueError as exc:
        print(f"agbounds: {exc}", file=sys.stderr)
        return 2
    if args.cache and rc == 0:
        save_dim_cache(curve, args.cache)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
