import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdo

from pdo.cli import main
from pdo.graded import GradedRingSpec, Generator
from pdo.lift import psi
from pdo.rankin import alpha_table
from pdo.ratfunc import RatFunc
from pdo import QZ
from pdo.serialize import (
    frac_str,
    parse_family,
    parse_ratfunc,
    parse_series,
    ratfunc_json,
    series_json,
)
from pdo.series import PDSeries, series_mul
from pdo.verify import SUITES

z = RatFunc.z()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul(capsys):
    p = series_json(PDSeries(QZ, {1: RatFunc.const(1)}, 10))
    q = series_json(PDSeries(QZ, {0: z}, 10))
    code, out, _ = run(capsys, "mul", json.dumps(p), json.dumps(q))
    assert code == 0
    got = parse_series(json.loads(out), "out")
    expect = series_mul(PDSeries(QZ, {1: 1}, 10), PDSeries(QZ, {0: z}, 10))
    assert got == expect


def test_inv_exact_monomial(capsys):
    q = {"ring": {"kind": "qz"}, "val": 2, "order": "exact", "coeffs": [{"num": ["1/1"], "den": ["1/1"]}]}
    code, out, _ = run(capsys, "inv", json.dumps(q))
    assert code == 0
    got = json.loads(out)
    assert got["val"] == -2 and got["order"] == "exact"


def test_sqrt(capsys):
    q = series_json(PDSeries(QZ, {2: RatFunc.const(1), 4: z}, 12))
    code, out, _ = run(capsys, "sqrt", json.dumps(q), "--lead", json.dumps(ratfunc_json(RatFunc.const(1))))
    assert code == 0
    r = parse_series(json.loads(out), "r")
    assert r.valuation == 1


def test_act_and_slash(capsys):
    code, out, _ = run(capsys, "act", json.dumps(series_json(PDSeries(QZ, {-2: 1}, None))),
                       "--matrix", "[[1,0],[1,1]]")
    assert code == 0
    got = parse_series(json.loads(out), "out")
    assert got.coeffs == {-2: (z + 1) ** 2}
    code, out, _ = run(capsys, "slash", json.dumps(ratfunc_json(z)), "--weight", "2",
                       "--matrix", "[[0,-1],[1,0]]")
    assert code == 0
    assert parse_ratfunc(json.loads(out), "f") == -1 / z**3


def test_lift_and_psi_inv(capsys):
    code, out, _ = run(capsys, "lift", json.dumps(ratfunc_json(z**2)), "--weight", "-2")
    assert code == 0
    got = parse_series(json.loads(out), "out")
    assert got == psi(-2, z**2)
    q = series_json(psi(1, 1 / (z - 2), 12))
    code, out, _ = run(capsys, "psi-inv", json.dumps(q))
    assert code == 0
    fam = parse_family(json.loads(out), "fam")
    assert fam.components == {1: 1 / (z - 2)}


def test_lift_graded(capsys):
    chi_term = json.dumps({"terms": [{"c": "1/1", "mono": [[0, 0, 1]]}]})
    code, out, _ = run(capsys, "lift", chi_term, "--weight", "2", "--order", "8", "--ring", "graded")
    assert code == 0
    got = parse_series(json.loads(out), "out")
    spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
    assert got.coeff(2) == spec.gen("chi")
    assert got.coeff(4) == -spec.gen("chi", 1)


def test_mul_order_flag(capsys):
    # exact operands with a non-terminating commutation need --order
    p = json.dumps(series_json(PDSeries(QZ, {1: RatFunc.const(1)}, None)))
    q = json.dumps(series_json(PDSeries(QZ, {0: 1 / z}, None)))
    code, _, err = run(capsys, "mul", p, q)
    assert code == 1 and "truncate" in err
    code, out, _ = run(capsys, "mul", p, q, "--order", "8")
    assert code == 0
    got = parse_series(json.loads(out), "out")
    assert got.order == 8 and got.coeff(1) == 1 / z


def test_star_and_alpha_table(capsys):
    spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
    chi_term = {"terms": [{"c": "1/1", "mono": [[0, 0, 1]]}]}
    code, out, _ = run(capsys, "star", json.dumps(chi_term), json.dumps(chi_term), "--order", "12")
    assert code == 0
    fam = parse_family(json.loads(out), "fam")
    assert fam.component(4) == spec.gen("chi") ** 2
    code, out, _ = run(capsys, "alpha-table", "--k", "2", "--l", "2", "--nmax", "3")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [frac_str(a) for a in alpha_table(2, 2, 3)]
    code, out, _ = run(capsys, "alpha-table", "--k", "2", "--l", "2", "--nmax", "2", "--out", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,1/1"


# the bytes the free-generator extraction printed, before alpha_table became
# a scalar recursion
@pytest.mark.parametrize(
    "argv,printed",
    [
        (["--k", "2", "--l", "2", "--nmax", "4"], '{"k":2,"l":2,"alpha":["1/1","-1/4","1/15","-1/56","1/210"]}\n'),
        (["--k", "1", "--l", "3", "--nmax", "5"],
         '{"k":1,"l":3,"alpha":["1/1","-1/4","43/640","-65/3584","1675/344064","-2807/2162688"]}\n'),
        (["--k", "5", "--l", "2", "--nmax", "3"], '{"k":5,"l":2,"alpha":["1/1","-1/4","49/768","-21/1280"]}\n'),
        (["--k", "1", "--l", "1", "--nmax", "3", "--out", "csv"],
         'n,"alpha_n(1,1)"\r\n0,1/1\r\n1,-1/4\r\n2,5/64\r\n3,-29/1280\r\n'),
        (["--k", "0", "--l", "4", "--nmax", "3"], '{"k":0,"l":4,"alpha":["1/1","-3/8","3/25","-1/28"]}\n'),
    ],
)
def test_alpha_table_prints_the_same_bytes(capsys, argv, printed):
    assert run(capsys, "alpha-table", *argv) == (0, printed, "")


def test_verify_star(capsys):
    code, out, _ = run(capsys, "verify", "STAR", "--kmax", "2", "--jmax", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["ranges"] == "1 <= k,l <= 2, 0 <= n <= 3" and rep["checked"] == 16


def test_rc(capsys):
    code, out, _ = run(capsys, "rc", json.dumps(ratfunc_json(z)), json.dumps(ratfunc_json(z)),
                       "--k", "1", "--l", "1", "--n", "2")
    assert code == 0
    assert parse_ratfunc(json.loads(out), "out") == RatFunc.const(-4)


def test_g_table(capsys):
    code, out, _ = run(capsys, "g-table", "--k", "2", "--nmax", "4")
    assert code == 0
    data = json.loads(out)
    assert set(data["entries"]) == {"4", "6", "8"}
    code, out, _ = run(capsys, "g-table", "--k", "1", "--nmax", "2", "--out", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,g_1"


RECORDED = json.loads((Path(__file__).parent / "data" / "cli_recorded.json").read_text(encoding="utf-8"))


# recorded under CPython 3.10 to 3.12; from 3.13 argparse wraps the top-level
# usage line differently, with or without this package's changes
NEW_USAGE_WRAP = pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 wraps usage differently")


@pytest.mark.parametrize(
    "argv", [pytest.param(a, marks=NEW_USAGE_WRAP) if a == "--help" else a for a in sorted(RECORDED["help"])]
)
def test_help_prints_the_same_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ei:
        main(argv.split())
    assert ei.value.code == 0
    assert capsys.readouterr().out == RECORDED["help"][argv]


@pytest.mark.parametrize("argv", sorted(RECORDED["g-table"]))
def test_g_table_prints_the_same_bytes(capsys, argv):
    assert run(capsys, "g-table", *argv.split()) == (0, RECORDED["g-table"][argv], "")


def test_unknown_command_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate", "--k", "2"])
    err = capsys.readouterr().err
    assert ei.value.code == 2 and "invalid choice" in err and "frobnicate" in err
    choices = err.split("choose from", 1)[1]
    assert all(name in choices for name in ("mul", "psi-inv", "g-table", "v-uniformizer", "verify"))


def test_a_run_adds_arguments_to_its_own_subparser_only(capsys, monkeypatch):
    added = []
    real = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        if args[0] not in ("-h", "--help"):
            added.append((self.prog, args[0]))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    code, out, _ = run(capsys, "slash", json.dumps(ratfunc_json(z)), "--weight", "2", "--matrix", "[[1,1],[0,1]]")
    assert code == 0 and parse_ratfunc(json.loads(out), "out") == z + 1
    assert sorted(added) == [("pdo slash", "--matrix"), ("pdo slash", "--weight"), ("pdo slash", "f")]


def test_g_table_with_many_parts_exits_0_without_traceback():
    # u^k expands over compositions into k parts; k = 1500 once ended in a RecursionError
    src = str(Path(pdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pdo.cli", "g-table", "--k", "1500", "--nmax", "1500"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert list(data["entries"]) == ["3000"]
    assert data["entries"]["3000"] == {"terms": [{"c": "1/1", "mono": [[0, 0, 1500]]}]}


def test_closed_stdout_exits_1_without_traceback():
    # `pdo ... | head -c 100`: the reader is gone before the first write
    src = str(Path(pdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pdo.cli", "g-table", "--k", "3", "--nmax", "30"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_rewrite_u(capsys):
    spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
    ring = spec
    from pdo.invariants import u_power

    q = series_json(u_power(2, 12, ring))
    code, out, _ = run(capsys, "rewrite-u", json.dumps(q))
    assert code == 0
    coeffs = json.loads(out)
    assert coeffs[2] == {"terms": [{"c": "1/1", "mono": []}]}


def test_v_uniformizer(capsys):
    code, out, _ = run(capsys, "v-uniformizer", "--order", "8")
    assert code == 0
    got = json.loads(out)
    assert got["val"] == 1


@pytest.mark.parametrize("order", ["0", "1"])
def test_v_uniformizer_at_order_at_most_1_is_zero(capsys, order):
    code, out, err = run(capsys, "v-uniformizer", "--order", order)
    assert (code, err) == (0, "")
    spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
    assert json.loads(out) == series_json(PDSeries.zero(spec, int(order)))


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "RHO", "--umax", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["checked"] == 8


def test_verify_suite_names_any_case(capsys):
    code, out, _ = run(capsys, "verify", "rho", "--umax", "3")
    assert code == 0 and json.loads(out)["suite"] == "RHO"
    # an unknown name is a usage error that lists every suite
    code, _, err = run(capsys, "verify", "NOPE")
    assert code == 2 and "NOPE" in err and all(name in err for name in SUITES)


def test_exit_codes(capsys):
    # domain error: inverting a zero series
    code, _, err = run(capsys, "inv", json.dumps(series_json(PDSeries(QZ, {}, 5))))
    assert code == 1 and "invertible" in err
    # usage error: malformed JSON names the field
    code, _, err = run(capsys, "mul", "{bad json", "{}")
    assert code == 2 and "p" in err
    # malformed matrix
    code, _, err = run(capsys, "act", json.dumps(series_json(PDSeries(QZ, {0: 1}, 4))),
                       "--matrix", "[[1,1],[1,1]]")
    assert code == 2 and "determinant" in err
    # unknown subcommand exits 2 via argparse
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


ZY = '{"ring":{"kind":"qz"},"val":1,"order":"exact","coeffs":[{"num":["0/1","1/1"],"den":["1/1"]}]}'


@pytest.mark.parametrize(
    "argv, text",
    [
        # a PDOError: the exact z*y has an infinite inverse
        (["inv", ZY], "series_inverse"),
        # a plain ValueError from the library
        (["alpha-table", "--k", "-1", "--l", "2", "--nmax", "3"], "weights must be nonnegative"),
    ],
    ids=["PDOError", "ValueError"],
)
def test_domain_errors_exit_1_with_one_error_line(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err


def test_value_from_a_file_or_stdin(capsys, monkeypatch, tmp_path):
    code, inline, _ = run(capsys, "inv", ZY, "--order", "6")
    assert code == 0
    path = tmp_path / "zy.json"
    path.write_text(ZY, encoding="utf-8")
    assert run(capsys, "inv", str(path), "--order", "6") == (0, inline, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(ZY))
    assert run(capsys, "inv", "-", "--order", "6") == (0, inline, "")


def test_unreadable_path_exits_2(capsys, tmp_path):
    for arg in (str(tmp_path / "missing.json"), str(tmp_path)):
        code, out, err = run(capsys, "inv", arg)
        assert (code, out) == (2, "")
        assert err.startswith("error: q: cannot read ") and err.count("\n") == 1


def test_verify_names_the_flags_a_suite_takes(capsys):
    code, out, err = run(capsys, "verify", "RHO", "--kmax", "3")
    assert (code, out) == (2, "") and "--kmax" in err and "--umax" in err


def test_non_integer_order_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["inv", ZY, "--order", "x"])
    assert ei.value.code == 2 and "--order" in capsys.readouterr().err


def test_rc_rejects_negative_index(capsys):
    one = json.dumps(ratfunc_json(RatFunc.const(1)))
    with pytest.raises(SystemExit) as ei:
        main(["rc", one, one, "--k", "1", "--l", "1", "--n", "-1"])
    assert ei.value.code == 2 and "--n" in capsys.readouterr().err


def test_alpha_table_rejects_negative_nmax(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["alpha-table", "--k", "1", "--l", "1", "--nmax", "-1"])
    assert ei.value.code == 2 and "--nmax" in capsys.readouterr().err


def test_verify_refuses_empty_range(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "RHO", "--umax", "-5"])
    assert ei.value.code == 2 and "--umax" in capsys.readouterr().err
    # a range that checks nothing is not a pass
    code, out, err = run(capsys, "verify", "RHO", "--umax", "0")
    rep = json.loads(out)
    assert code == 1 and rep["ok"] is False and rep["checked"] == 0 and "nothing" in err


QZ_ONE = '{"num":["1/1"],"den":["1/1"]}'


@pytest.mark.parametrize(
    "argv, field",
    [
        (["inv", '{"ring":{"kind":"qz"},"val":true,"order":"exact","coeffs":[' + QZ_ONE + ']}'], "q.val"),
        (["inv", '{"ring":{"kind":"qz"},"val":0,"order":false,"coeffs":[]}'], "q.order"),
        (["star", '{"terms":5}', '{"terms":[]}', "--order", "3"], "f.terms"),
        (["star", '{"terms":[{"c":"1/1","mono":5}]}', '{"terms":[]}', "--order", "3"], "f.terms[0].mono"),
        (["star", '{"terms":[{"c":true,"mono":[]}]}', '{"terms":[]}', "--order", "3"], "f.terms[0].c"),
        (["rc", '{"terms":[]}', '{"terms":{}}', "--k", "1", "--l", "1", "--n", "0", "--ring", "graded"], "g.terms"),
        (["verify", "RHO", "--pmax", "3"], "--pmax"),
        (["verify", "WZ1", "--seed", "2"], "--seed"),
        (["verify", "NOPE"], "suite"),
        # json.loads raises RecursionError here, and ValueError past int()'s 4,300 digits
        (["inv", "[" * 100000], "error: q: invalid JSON"),
        (["inv", "[" + "1" * 5000 + "]"], "error: q: invalid JSON"),
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, field):
    # a separate process, so that an escaped exception shows as a traceback
    src = str(Path(pdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pdo.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr and "Traceback" not in proc.stderr

