"""CLI surface: divisor grammar, JSON bound output, table rendering
against golden files, code matrices, verify plumbing, and exit codes."""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from agbounds.cli import main, parse_divisor, render_divisor, render_table
from agbounds.codes import cl_code
from agbounds.curve import make_curve
from agbounds.rrspace import Divisor, dim

TABLES = Path(__file__).parent / "tables"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- divisor grammar ---------------------------------------------------------


def test_parse_divisor_forms():
    assert parse_divisor("32*P0 + 1*Pinf") == Divisor(1, 32)
    assert parse_divisor("41*Pinf") == Divisor(41, 0)
    assert parse_divisor("1*P0 - 1*P0") == Divisor(0, 0)
    assert parse_divisor("0") == Divisor(0, 0)
    assert parse_divisor(" -5*P0+3*Pinf ") == Divisor(3, -5)
    assert parse_divisor("2*Pinf + 2*Pinf + 1*P0") == Divisor(4, 1)


def test_parse_divisor_errors():
    for bad in ("", "  ", "3*PX", "P0", "3*P0 4*Pinf", "3*P0 + ", "x"):
        with pytest.raises(ValueError):
            parse_divisor(bad)
    with pytest.raises(ValueError, match="position"):
        parse_divisor("3*P0 ? 1*Pinf")


def test_render_round_trip_random():
    rng = random.Random(4)
    for _ in range(200):
        d = Divisor(rng.randint(-60, 90), rng.randint(-60, 90))
        assert parse_divisor(render_divisor(d)) == d
    assert render_divisor(Divisor(0, 0)) == "0"
    assert render_divisor(Divisor(1, 32)) == "32*P0 + 1*Pinf"
    assert render_divisor(Divisor(-2, 5)) == "5*P0 - 2*Pinf"


# -- simple subcommands -------------------------------------------------------


def test_ell_command(capsys):
    rc, out, _ = run(capsys, "--curve", "suzuki8", "ell", "32*P0 + 1*Pinf")
    assert rc == 0 and out.strip() == "20"


@pytest.mark.parametrize("name", ["hermitian4", "hermitian9", "hermitian16", "suzuki8"])
def test_ell_command_matches_dim(capsys, name):
    curve = make_curve(name)
    g, m = curve.genus, curve.shift_order
    # degrees -2m..4g+2: below, across and above the band 0..2g-1 that
    # dim() fills, with negative and positive class representatives
    window = range(-m, 2 * g + 2)
    for a in window:
        for b in window:
            D = Divisor(a, b)
            rc, out, _ = run(capsys, "--curve", name, "ell", "--", render_divisor(D))
            assert rc == 0 and out == f"{dim(curve, D)}\n", D


def run_module(*argv, **kwargs):
    """`python -m agbounds argv...` in a child that imports this checkout's
    package, whether or not it is installed."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "agbounds", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_capped(name, *argv):
    """`agbounds --curve name argv...` in a child capped at 512 MB of
    address space and 10 s, so a cost that grows with a coefficient
    fails the test instead of the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return run_module("--curve", name, *argv, timeout=10, preexec_fn=cap)


@pytest.mark.parametrize(
    "name, divisor, want",
    [
        ("hermitian4", "99999999999*Pinf", "99999999999"),
        ("suzuki8", "20000*Pinf", "19987"),
        ("hermitian4", "10000000000000000000000000*Pinf", "10000000000000000000000000"),
        ("hermitian4", "-10000000000000000000000000*Pinf", "0"),
    ],
)
def test_ell_huge_coefficient_is_bounded(name, divisor, want):
    # deg G + 1 - g by Riemann-Roch in Python ints, past 2^63 too, read
    # without a basis up to the pole order
    proc = run_capped(name, "ell", "--", divisor)
    assert proc.returncode == 0 and proc.stdout == want + "\n" and proc.stderr == ""


def _bound_line(curve, divisor, method, value, witness):
    """The JSON line `bound` prints for a result with no improvement."""
    obj = {
        "curve": curve, "divisor": divisor, "method": method, "value": value,
        "designed": value, "improvement": 0, "representative_shift": 0,
        "witness": witness,
    }
    return json.dumps(obj) + "\n"


E9, E25 = "1000000000", "10000000000000000000000000"


@pytest.mark.parametrize(
    "name, argv, want",
    [
        # floor(n*P) = n*P once n >= 2g
        ("hermitian4", ("floor", f"{E9}*Pinf"), f"{E9}*Pinf\n"),
        ("hermitian4", ("floor", f"{E25}*P0"), f"{E25}*P0\n"),
        (
            "hermitian4", ("bound", f"{E9}*Pinf"),
            _bound_line("hermitian4", f"{E9}*Pinf", "af", 10**9,
                        {"A": f"{E9}*Pinf", "B": "0", "Z": "0"}),
        ),
        (
            "suzuki8", ("bound", f"{E25}*Pinf"),
            _bound_line("suzuki8", f"{E25}*Pinf", "af", 10**25 - 26,
                        {"A": f"{E25}*Pinf", "B": "0", "Z": "0"}),
        ),
        (
            "hermitian4", ("bound", "--method", "floor", f"{E9}*P0"),
            _bound_line("hermitian4", f"{E9}*P0", "floor", 10**9,
                        {"H": "500000000*P0", "E": "0"}),
        ),
        (
            "hermitian4", ("bound", "--", f"{E9}*Pinf - 999999990*P0"),
            _bound_line("hermitian4", f"-999999990*P0 + {E9}*Pinf", "af", 10,
                        {"A": f"-999999990*P0 + {E9}*Pinf", "B": "0", "Z": "0"}),
        ),
        # every gap lies in 1..2g-1, whatever the limit
        ("hermitian4", ("semigroup", "--limit", "100000000", "--gaps"), "1\n"),
        (
            "suzuki8", ("semigroup", "--limit", E9, "--gaps"),
            "1 2 3 4 5 6 7 9 11 14 15 17 19 27\n",
        ),
    ],
    ids=["floor-1e9", "floor-1e25", "bound-1e9", "bound-1e25-suzuki8",
         "bound-floor-1e9", "bound-mixed-1e9", "gaps-1e8", "gaps-1e9-suzuki8"],
)
def test_floor_and_bound_huge_coefficient_is_bounded(name, argv, want):
    # the floor search, the floor command and the gap listing read l~, so
    # they cost no basis up to the pole order
    proc = run_capped(name, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


_AF_MINUS_3000 = json.dumps({
    "curve": "hermitian4", "divisor": "-3000*Pinf", "method": "af", "value": 0,
    "designed": -3000, "improvement": 3000, "representative_shift": 0,
    "witness": {"A": "1*P0 - 1*Pinf", "B": "-1*P0 - 2999*Pinf", "Z": "3000*Pinf"},
}) + "\n"


@pytest.mark.parametrize(
    "method, want",
    [
        ("best", _AF_MINUS_3000),
        ("af", _AF_MINUS_3000),
        ("kp", json.dumps({
            "curve": "hermitian4", "divisor": "-3000*Pinf", "method": "kp_Pinf", "value": 0,
            "designed": -3000, "improvement": 3000, "representative_shift": 0,
            "witness": {"point": "Pinf", "F": "1*P0", "alpha": -3000, "t": 2999},
        }) + "\n"),
    ],
    ids=["best", "af", "kp"],
)
def test_bound_negative_degree_is_bounded(method, want):
    # the af and kp search keeps deg A in its Riemann-Roch band, so a
    # 3000-gap witness stays within the cap
    proc = run_capped("hermitian4", "bound", "--all", "--method", method, "--", "-3000*Pinf")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_floor_command(capsys):
    rc, out, _ = run(capsys, "--curve", "suzuki8", "floor", "16*P0 + 1*Pinf")
    assert rc == 0 and out.strip() == "16*P0"


def test_semigroup_command(capsys):
    rc, out, _ = run(capsys, "--curve", "hermitian16", "semigroup", "--limit", "12")
    assert rc == 0
    assert out.split() == ["0", "4", "5", "8", "9", "10", "12"]
    rc, out, _ = run(
        capsys, "--curve", "suzuki8", "semigroup", "--limit", "60", "--gaps"
    )
    assert rc == 0
    assert [int(v) for v in out.split()] == [
        1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 15, 17, 19, 27,
    ]


# -- bound subcommand ---------------------------------------------------------


def test_bound_json_af(capsys):
    rc, out, _ = run(
        capsys, "--curve", "suzuki8", "bound", "41*Pinf", "--method", "af"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["value"] == 16 and obj["designed"] == 15
    assert obj["method"] == "af" and obj["improvement"] == 1
    assert parse_divisor(obj["witness"]["Z"]).degree == 1


def test_bound_floor_not_applicable(capsys):
    rc, out, _ = run(
        capsys, "--curve", "suzuki8", "bound", "41*Pinf", "--method", "floor"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["value"] is None and obj["note"] == "not applicable"


def test_bound_floor_folds_over_shift_representatives(capsys):
    # 13*P0 + 1*Pinf is not H + floor(H), but its shift by 5*(P0 - Pinf) is
    argv = ("--curve", "hermitian16", "bound", "--method", "floor", "13*P0 + 1*Pinf")
    rc, out, _ = run(capsys, *argv)
    obj = json.loads(out)
    assert rc == 0 and obj["value"] == 4 and obj["representative_shift"] == 1
    rc, out, _ = run(capsys, *argv, "--no-fold")
    obj = json.loads(out)
    assert rc == 0 and obj["value"] is None and obj["note"] == "not applicable"


def test_bound_degree_gate(capsys):
    rc, _, err = run(capsys, "--curve", "suzuki8", "bound", "1*P0")
    assert rc == 2 and "--all" in err
    rc, out, _ = run(
        capsys, "--curve", "suzuki8", "bound", "1*P0", "--all", "--method", "designed"
    )
    assert rc == 0
    assert json.loads(out)["value"] == 1 - 26


def test_bound_bad_divisor_exits_2(capsys):
    rc, _, err = run(capsys, "--curve", "suzuki8", "bound", "3*Q")
    assert rc == 2 and "bad divisor" in err


def test_leading_negative_divisor_after_double_dash(capsys):
    # without "--" argparse would take "-3*Pinf" for an option
    rc, _, err = run(capsys, "--curve", "hermitian4", "bound", "--", "-3*Pinf")
    assert rc == 2 and "deg G = -3 <= 2g - 2" in err
    rc, out, _ = run(
        capsys, "--curve", "hermitian4", "bound", "--all", "--method", "designed", "--", "-3*Pinf"
    )
    assert rc == 0 and json.loads(out)["value"] == -3


def test_usage_error_exits_2(capsys):
    assert run(capsys, "--curve", "nosuch", "ell", "0")[0] == 2
    assert run(capsys, "--curve", "suzuki8", "nosuchcmd")[0] == 2
    assert run(capsys)[0] == 2


# -- table subcommand ---------------------------------------------------------


def golden(name):
    return (TABLES / name).read_text()


def test_table_markdown_golden_hermitian16_af(capsys):
    rc, out, _ = run(
        capsys, "--curve", "hermitian16", "table",
        "--method", "af", "--rows", "6:21", "--cols", "0:4",
    )
    assert rc == 0 and out == golden("hermitian16_af.golden")


def test_table_markdown_golden_hermitian16_floor(capsys):
    rc, out, _ = run(
        capsys, "--curve", "hermitian16", "table",
        "--method", "floor", "--rows", "6:21", "--cols", "0:4",
    )
    assert rc == 0 and out == golden("hermitian16_floor.golden")


def test_table_threads_are_byte_identical(capsys):
    args = ["--curve", "hermitian16", "table", "--method", "floor",
            "--rows", "6:21", "--cols", "0:4"]
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, "--threads", "2", *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_table_csv_format(capsys):
    rc, out, _ = run(
        capsys, "--curve", "hermitian16", "table",
        "--method", "af", "--rows", "8:9", "--cols", "0:4", "--format", "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ",0,1,2,3,4"
    assert lines[1] == "8,,,3,2,1"
    assert lines[2].startswith("9,")


def test_table_empty_range(capsys):
    # a reversed range used to print a header-only table and exit 0
    rc, out, err = run(
        capsys, "--curve", "hermitian16", "table",
        "--method", "af", "--rows", "9:8", "--cols", "0:4", "--format", "csv",
    )
    assert rc == 2 and out == "" and "bad range '9:8'" in err


def test_reversed_ranges_exit_2(capsys):
    rc, out, err = run(
        capsys, "--curve", "hermitian16", "table", "--rows", "6:21", "--cols", "4:0",
    )
    assert rc == 2 and out == "" and "bad range '4:0'" in err
    rc, out, err = run(capsys, "--curve", "hermitian4", "verify", "--window", "5:-5")
    assert rc == 2 and out == "" and "bad range '5:-5'" in err


def test_threads_below_one_exit_2(capsys):
    table = ["table", "--rows", "6:7", "--cols", "0:4"]
    for argv in (
        ["--threads", "0", "--curve", "hermitian16", *table],
        ["--curve", "hermitian16", *table, "--threads", "-1"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "--threads: must be at least 1" in err
    rc, _, err = run(capsys, "--threads", "two", "--curve", "hermitian16", *table)
    assert rc == 2 and "expected an integer" in err


def test_table_bad_range_exits_2(capsys):
    rc, _, err = run(
        capsys, "--curve", "hermitian16", "table",
        "--method", "af", "--rows", "six:8", "--cols", "0:4",
    )
    assert rc == 2 and "bad range" in err


def test_render_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table({"rows": [], "cols": [], "cells": {}}, "html")


# -- code subcommand ----------------------------------------------------------


def test_code_output_matches_library(capsys):
    rc, out, _ = run(capsys, "--curve", "hermitian4", "code", "3*P0 + 2*Pinf")
    assert rc == 0
    lines = out.splitlines()
    header = {l.split(":")[0][2:]: l.split(": ", 1)[1] for l in lines[:6]}
    assert header["curve"] == "hermitian4"
    assert header["kind"] == "CL"
    assert header["divisor"] == "3*P0 + 2*Pinf"
    code = cl_code(make_curve("hermitian4"), Divisor(2, 3))
    assert int(header["n"]) == code.n and int(header["k"]) == code.k
    assert len(header["points"].split()) == code.n
    rows = [[int(v) for v in l.split(",")] for l in lines[6:]]
    assert rows == code.generator.tolist()


def test_code_omega_and_one_point(capsys):
    rc, out, _ = run(
        capsys, "--curve", "hermitian4", "code", "4*Pinf", "--omega", "--one-point"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "# kind: COmega"
    assert lines[3] == "# n: 8"


# -- verify subcommand --------------------------------------------------------


def test_verify_ok(capsys):
    rc, out, _ = run(capsys, "--curve", "hermitian4", "verify", "--max-deg", "4")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] and report["checked"] > 0


def test_verify_hostile_inputs_are_bounded():
    # one code per class (degree, P0 coefficient mod m): 11,999 divisors, 6 classes
    proc = run_capped("hermitian4", "verify", "--window=-3000:3000", "--max-deg", "2")
    want = {
        "curve": "hermitian4", "checked": 11999, "skipped_trivial": 0,
        "skipped_budget": 0, "violations": [], "ok": True,
    }
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, json.dumps(want) + "\n", "")
    # --budget is capped at 2^32 codewords
    proc = run_capped(
        "hermitian9", "verify", "--max-deg", "8", "--budget", str(10**30)
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--budget: must be at most 4294967296" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_code_mixed_huge_coefficients_is_bounded():
    # degree 10 >= n + 2g - 1, so C_L is the whole space; the basis is
    # reduced by s^k with k = ceil(b/m) < 0, which keeps its pole order near 10
    proc = run_capped("hermitian4", "code", "--", "1000000000*Pinf - 999999990*P0")
    header = [
        "# curve: hermitian4", "# kind: CL",
        "# divisor: -999999990*P0 + 1000000000*Pinf", "# n: 7", "# k: 7",
        "# points: 0:1 1:2 1:3 2:2 2:3 3:2 3:3",
    ]
    rows = [",".join("1" if i == j else "0" for j in range(7)) for i in range(7)]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\n".join(header + rows) + "\n"


H4_POINTS = "0:1 1:2 1:3 2:2 2:3 3:2 3:3"  # one-point codes add the origin 0:0


def _code_output(kind, divisor, k, points=H4_POINTS):
    n = len(points.split())
    rows = [",".join("1" if i == j else "0" for j in range(n)) for i in range(k)]
    header = [
        "# curve: hermitian4", f"# kind: {kind}", f"# divisor: {divisor}", f"# n: {n}",
        f"# k: {k}", f"# points: {points}",
    ]
    return "\n".join(header + rows) + "\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        # deg G - n >= 2g - 1: G and G - D are non-special, so C_L is the
        # whole space (the identity) and C_Omega is zero, with no basis of L(G)
        (("code", f"{E9}*Pinf"), _code_output("CL", f"{E9}*Pinf", 7)),
        (("code", "--omega", "100000*Pinf"), _code_output("COmega", "100000*Pinf", 0)),
        (
            ("code", "--one-point", f"{E9}*Pinf"),
            _code_output("CL", f"{E9}*Pinf", 8, "0:0 " + H4_POINTS),
        ),
    ],
    ids=["cl-1e9", "comega-1e5", "cl-one-point-1e9"],
)
def test_code_huge_degree_is_bounded(argv, want):
    proc = run_capped("hermitian4", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_semigroup_listing_is_capped():
    proc = run_capped("hermitian4", "semigroup", "--limit", "100000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--limit must be at most 100000 without --gaps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_seed_is_not_an_option(capsys):
    # verify works per shift class, so there is no scan order to seed
    rc, out, err = run(capsys, "--curve", "hermitian4", "verify", "--seed", "3")
    assert rc == 2 and out == "" and "unrecognized arguments: --seed 3" in err


def test_verify_nothing_checked_exits_3(capsys):
    # hermitian9: every C_Omega up to degree 8 is over the enumeration budget
    rc, out, _ = run(capsys, "--curve", "hermitian9", "verify", "--max-deg", "8")
    report = json.loads(out)
    assert rc == 3 and not report["ok"]
    assert report["checked"] == 0 and report["skipped_budget"] == 68
    # hermitian4: the window holds no divisor of degree 1..8
    rc, out, _ = run(capsys, "--curve", "hermitian4", "verify", "--window", "6:6")
    report = json.loads(out)
    assert rc == 3 and not report["ok"] and report["checked"] == 0


def test_verify_failure_exits_3(capsys, monkeypatch):
    import agbounds.cli as cli

    def fake(curve, deg_range, budget, coeff_window):
        return {"ok": False, "violations": [{"G": Divisor(1, 1), "d_true": 0}]}

    monkeypatch.setattr(cli, "verify_soundness", fake)
    rc, out, _ = run(capsys, "--curve", "hermitian4", "verify")
    assert rc == 3
    assert not json.loads(out)["ok"]


# -- console entry point --------------------------------------------------------


def test_module_invocation_subprocess():
    proc = run_module("--curve", "suzuki8", "ell", "41*Pinf", timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "28"
