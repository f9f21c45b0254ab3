"""CLI surface: divisor grammar, JSON bound output, table rendering
against golden files, code matrices, verify plumbing, and exit codes."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from agbounds.cli import main, parse_divisor, render_divisor, render_table
from agbounds.codes import cl_code
from agbounds.curve import make_curve
from agbounds.rrspace import Divisor, dim

TABLES = Path(__file__).parent / "tables"


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
    rc, out, _ = run(
        capsys, "--curve", "hermitian4", "verify", "--max-deg", "4",
        "--seed", "3",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] and report["checked"] > 0


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

    def fake(curve, deg_range, budget, coeff_window, rng):
        return {"ok": False, "violations": [{"G": Divisor(1, 1), "d_true": 0}]}

    monkeypatch.setattr(cli, "verify_soundness", fake)
    rc, out, _ = run(capsys, "--curve", "hermitian4", "verify")
    assert rc == 3
    assert not json.loads(out)["ok"]


# -- cache ---------------------------------------------------------------------


def test_cache_round_trip(tmp_path, capsys):
    path = str(tmp_path / "ell.csv")
    rc, out1, _ = run(
        capsys, "--curve", "hermitian16", "--cache", path, "ell", "13*Pinf"
    )
    assert rc == 0 and Path(path).exists()
    rc, out2, _ = run(
        capsys, "--curve", "hermitian16", "--cache", path, "--check-cache",
        "ell", "13*Pinf",
    )
    assert rc == 0 and out1 == out2


def test_cache_corruption_detected(tmp_path, capsys):
    path = tmp_path / "ell.csv"
    run(capsys, "--curve", "hermitian4", "--cache", str(path), "ell", "5*Pinf")
    text = path.read_text().splitlines()
    head, inf, origin, ell = text[-1].split(",")
    text[-1] = ",".join([head, inf, origin, str(int(ell) + 1)])
    path.write_text("\n".join(text) + "\n")
    rc, _, err = run(
        capsys, "--curve", "hermitian4", "--cache", str(path), "--check-cache",
        "ell", "5*Pinf",
    )
    assert rc == 2 and "mismatch" in err


# -- console entry point --------------------------------------------------------


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "agbounds", "--curve", "suzuki8", "ell", "41*Pinf"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "28"
