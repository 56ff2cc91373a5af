"""Command-line entry point with bit-exact JSON I/O.

Arguments that denote values (series, coefficients, matrices) accept an
inline JSON literal, a file path, or '-' for stdin.  Exit codes: 0 success,
1 domain error, 2 usage/malformed input.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .errors import ParseError, PDOError
from .ratfunc import QZ
from .serialize import (
    coeff_json,
    family_json,
    frac_str,
    graded_json,
    parse_coeff,
    parse_gmatrix,
    parse_ratfunc,
    parse_series,
    parse_spec,
    ratfunc_json,
    ring_json,
    series_json,
)

DEFAULT_SPEC = [["chi", 2, True], ["xi", 1, True]]
# the parameters of the verification suites; all but the seed are sizes >= 0
VERIFY_FLAGS = ("umax", "mmax", "smax", "pmax", "hmax", "kmax", "jmax", "imax", "cases", "order", "seed")


def _load_value(arg: str, field: str):
    """JSON from an inline literal, a file path, or stdin ('-')."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip()[:1] in ("{", "["):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"{field}: cannot read {arg!r}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{field}: invalid JSON: {exc}") from None


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=None, separators=(",", ":"))
    sys.stdout.write("\n")


def _emit_csv(rows, header) -> None:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    sys.stdout.write(buf.getvalue())


def _ring(args):
    """Q(z) for ``--ring qz``; otherwise the graded ring of ``--spec``."""
    if getattr(args, "ring", "graded") == "qz":
        return QZ
    spec_v = _load_value(args.spec, "--spec") if args.spec else DEFAULT_SPEC
    return parse_spec(spec_v, "--spec")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for `argv` (default: the process's arguments).  Every
    subcommand is listed with its help line, but only the one that `argv`
    names, its first non-option token, gets its arguments: a process runs one
    command, and building the other parsers is most of the cost."""
    p = argparse.ArgumentParser(
        prog="pdo",
        description="Exact arithmetic in truncated skew Laurent series rings, "
        "the SL(2,Q) action, lifting maps and Rankin-Cohen star products.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    argv = sys.argv[1:] if argv is None else argv
    chosen = next((a for a in argv if not a.startswith("-")), None)
    for name, (_, help_line, arguments) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if name == chosen:
            for flag, options in arguments:
                sp.add_argument(flag, **options)
    return p


def _cmd_mul(args) -> None:
    from .series import series_mul

    p = parse_series(_load_value(args.p, "p"), "p")
    q = parse_series(_load_value(args.q, "q"), "q")
    if args.order is not None:
        p = p.truncate(args.order)
        q = q.truncate(args.order)
    _emit(series_json(series_mul(p, q)))


def _cmd_inv(args) -> None:
    from .series import series_inverse

    q = parse_series(_load_value(args.q, "q"), "q")
    _emit(series_json(series_inverse(q, order=args.order)))


def _cmd_sqrt(args) -> None:
    from .series import series_sqrt

    q = parse_series(_load_value(args.q, "q"), "q")
    e = parse_coeff(_load_value(args.lead, "--lead"), q.ring, "--lead")
    _emit(series_json(series_sqrt(q, e, order=args.order)))


def _cmd_act(args) -> None:
    from .action import act_series

    q = parse_series(_load_value(args.q, "q"), "q")
    g = parse_gmatrix(_load_value(args.matrix, "--matrix"), "--matrix")
    _emit(series_json(act_series(q, g, order=args.order)))


def _cmd_slash(args) -> None:
    from .action import slash

    f = parse_ratfunc(_load_value(args.f, "f"), "f")
    g = parse_gmatrix(_load_value(args.matrix, "--matrix"), "--matrix")
    _emit(ratfunc_json(slash(f, args.weight, g)))


def _cmd_lift(args) -> None:
    from .lift import psi

    ring = _ring(args)
    f = parse_coeff(_load_value(args.f, "f"), ring, "f")
    _emit(series_json(psi(args.weight, f, args.order, ring=ring)))


def _cmd_psi_inv(args) -> None:
    from .lift import psi_inverse

    q = parse_series(_load_value(args.q, "q"), "q")
    _emit(family_json(psi_inverse(q, order=args.order)))


def _cmd_star(args) -> None:
    from .rankin import star

    ring = _ring(args)
    f = parse_coeff(_load_value(args.f, "f"), ring, "f")
    g = parse_coeff(_load_value(args.g, "g"), ring, "g")
    _emit(family_json(star(f, g, args.order)))


def _cmd_alpha_table(args) -> None:
    from .rankin import alpha_table

    table = alpha_table(args.k, args.l, args.nmax)
    if args.out == "csv":
        _emit_csv(
            [(n, frac_str(a)) for n, a in enumerate(table)],
            ("n", f"alpha_n({args.k},{args.l})"),
        )
    else:
        _emit({"k": args.k, "l": args.l, "alpha": [frac_str(a) for a in table]})


def _cmd_rc(args) -> None:
    from .rankin import rc_bracket

    ring = _ring(args)
    f = parse_coeff(_load_value(args.f, "f"), ring, "f")
    g = parse_coeff(_load_value(args.g, "g"), ring, "g")
    _emit(coeff_json(ring, rc_bracket(f, g, args.k, args.l, args.n)))


def _cmd_g_table(args) -> None:
    from .invariants import g_forms

    ring = _ring(args)
    table = g_forms(args.k, args.nmax, ring)
    if args.out == "csv":
        _emit_csv(
            [(w, str(e)) for w, e in sorted(table.items())],
            ("weight", f"g_{args.k}"),
        )
    else:
        _emit({
            "k": args.k,
            "ring": ring_json(ring),
            "entries": {str(w): graded_json(e) for w, e in sorted(table.items())},
        })


def _cmd_rewrite_u(args) -> None:
    from .invariants import rewrite_in_u

    q = parse_series(_load_value(args.q, "q"), "q")
    coeffs = rewrite_in_u(q, order=args.order)
    _emit([graded_json(a) for a in coeffs])


def _cmd_v_uniformizer(args) -> None:
    from .invariants import v_uniformizer

    ring = _ring(args)
    _emit(series_json(v_uniformizer(args.order, ring)))


def _cmd_verify(args) -> None:
    import inspect

    from .verify import SUITES, run_suite

    name = args.suite.upper()
    if name not in SUITES:
        raise ParseError(f"suite: unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}")
    params = {
        key: getattr(args, key)
        for key in VERIFY_FLAGS
        if getattr(args, key) is not None
    }
    takes = inspect.signature(SUITES[name]).parameters
    for key in params:
        if key not in takes:
            known = ", ".join(f"--{k}" for k in takes if k in VERIFY_FLAGS)
            raise ParseError(f"--{key}: suite {name} takes only {known}")
    rep = run_suite(name, **params)
    _emit({
        "suite": rep.name,
        "ok": rep.ok,
        "ranges": rep.ranges,
        "checked": rep.checked,
        "counterexample": rep.counterexample,
    })
    if not rep.ok:
        raise PDOError(f"suite {rep.name} failed: {rep.counterexample}")


_ORDER = ("--order", {"type": _nonneg_int, "default": None})
_ORDER_REQUIRED = ("--order", {"type": _nonneg_int, "required": True})
_SPEC = ("--spec", {"default": None})
_RING = ("--ring", {"choices": ["qz", "graded"], "default": "qz"})
_OUT = ("--out", {"choices": ["json", "csv"], "default": "json"})
_K = ("--k", {"type": int, "required": True})
_L = ("--l", {"type": int, "required": True})
_NMAX = ("--nmax", {"type": _nonneg_int, "required": True})

# each subcommand: its handler, its help line, and its arguments as add_argument calls
_SUBCOMMANDS = {
    "mul": (_cmd_mul, "product of two series (JSON PDSeries args)",
            [("p", {}), ("q", {}),
             ("--order", {"type": _nonneg_int, "default": None, "help": "truncate operands first"})]),
    "inv": (_cmd_inv, "inverse of a series",
            [("q", {}), ("--order", {"type": _nonneg_int, "default": None, "help": "result truncation order"})]),
    "sqrt": (_cmd_sqrt, "square root of a series with supplied leading root",
             [("q", {}), ("--lead", {"required": True, "help": "coefficient e with e^2 = leading"}), _ORDER]),
    "act": (_cmd_act, "apply a homography to a series over Q(z)",
            [("q", {}), ("--matrix", {"required": True, "help": "[[a,b],[c,d]] with det 1"}), _ORDER]),
    "slash": (_cmd_slash, "weight-k slash action on a rational function",
              [("f", {}), ("--weight", {"type": int, "required": True}), ("--matrix", {"required": True})]),
    "lift": (_cmd_lift, "the weight-m lifting map applied to a coefficient",
             [("f", {}), ("--weight", {"type": int, "required": True}), _ORDER, _RING,
              ("--spec", {"default": None, "help": "generators JSON for --ring graded"})]),
    "psi-inv": (_cmd_psi_inv, "peel a series into its weighted family", [("q", {}), _ORDER]),
    "star": (_cmd_star, "star product of two homogeneous graded elements",
             [("f", {}), ("g", {}), _ORDER_REQUIRED, _SPEC]),
    "alpha-table": (_cmd_alpha_table, "universal star multipliers alpha_n(k, l)", [_K, _L, _NMAX, _OUT]),
    "rc": (_cmd_rc, "Rankin-Cohen bracket [f, g]_n at weights (k, l)",
           [("f", {}), ("g", {}), _K, _L, ("--n", {"type": _nonneg_int, "required": True}), _RING, _SPEC]),
    "g-table": (_cmd_g_table, "modular forms g_{k,2n} of u^k, from their closed formula", [_K, _NMAX, _SPEC, _OUT]),
    "rewrite-u": (_cmd_rewrite_u, "expand an invariant series in powers of u = x*chi", [("q", {}), _ORDER]),
    "v-uniformizer": (_cmd_v_uniformizer, "the odd uniformizer sqrt(y^2 xi^2)", [_ORDER_REQUIRED, _SPEC]),
    "verify": (_cmd_verify, "run an exact verification suite",
               [("suite", {"help": "suite name, in any case; an unknown name lists them"}),
                *((f"--{flag}", {"type": int if flag == "seed" else _nonneg_int, "default": None})
                  for flag in VERIFY_FLAGS)]),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        _SUBCOMMANDS[args.command][0](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`pdo ... | head`): point stdout at
        # the null device so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PDOError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
