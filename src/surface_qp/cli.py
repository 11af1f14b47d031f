"""Command line front end.

  surface-qp bracket --surface s.json --diagram d.json [--point p.json]
                     --group gl --n 2 [--seed 0] [--tol 1e-8] [--out r.json]
  surface-qp verify  --suite main-theorem [--n 2] [--mutate 0.01]
                     [--tol ...] [--out r.json]

A fixture passes when its residual is at most its tolerance; --tol replaces
the main tolerance of the bracket or suite, so --tol 0 asks for exact
agreement.  The cross-section suite ignores --n: its Theta identity runs at
U(2) and U(3), its route fixtures at U(2) only.

For GL entry observables at an exact point the bracket report also carries
the symbolic normal form, and passes only when its exact value is within the
tolerance of the numeric route as well.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error (also a
negative or non-finite --tol, a negative --seed, a non-finite --mutate,
verify --n below 2, because the suites' fixtures read off-diagonal entries
(bracket runs at any n), an --out path that cannot be written, a disk
surface or one beyond the polygon grid, an input too large to allocate),
3 numeric-domain error (also an overflowed holonomy or a non-finite side of
a bracket).

The argument parser is built once, at import, and holds no request data, so
every call of main in one process parses with the same parser.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import cross_section as cx
from .diagrams import GeneralPositionError, realize_pair
from .goldman import PathEntrySymbol, bracket_symbolic
from .io import (SchemaError, fixture_result, fmt_float, load_bracket_request,
                 load_point, load_surface, make_report, write_report)
from .lie import AlgebraContext
from .quasipoisson import WordFunction, bracket_combinatorial, bracket_numeric, build_bivector
from .repspace import random_point
from .suites import SUITES, run_suite
from .surfaces import polygon_model

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_DOMAIN = 0, 1, 2, 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="surface-qp",
                                description="brackets of holonomy functions "
                                "on surface representation spaces")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", default=None)

    b = sub.add_parser("bracket", help="compute one bracket from input files")
    b.add_argument("--surface", required=True)
    b.add_argument("--diagram", required=True)
    b.add_argument("--point", default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--group", choices=("gl", "u"), default="gl")
    common(b)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--mutate", type=float, default=0.0,
                   help="perturb the verified structure (sensitivity check)")
    common(v)
    return p


_PARSER = _parser()


@np.errstate(all="ignore")   # a non-finite side is reported below, not warned about
def cmd_bracket(args) -> int:
    ctx = AlgebraContext(args.group, args.n)
    spec = load_surface(args.surface)
    if args.point:
        m = load_point(args.point, ctx, spec)
    else:
        m = random_point(ctx, spec, args.seed)
    (wa, oa), (wb, ob), variants = load_bracket_request(args.diagram, ctx, spec)
    pm = polygon_model(spec)
    _, _, data = realize_pair(wa, wb, pm, args.seed, variants)
    h = build_bivector(spec, ctx)
    f, g = WordFunction(oa, wa), WordFunction(ob, wb)
    tol = args.tol if args.tol is not None else 1e-8
    extra = {"surface": str(spec), "alpha": str(wa), "beta": str(wb)}

    if ctx.kind == "u":
        cs = cx.project_to_cross_section(m)
        lhs = cx.bracket_cross(oa, wa, ob, wb, data, cs)
        rhs = cx.bracket_cross_numeric(h, f, g, cs)
        extra["route"] = "cross-section"
        extra["gaps"] = [fmt_float(gv) for gv in cs.gaps]
    else:
        lhs = bracket_combinatorial(oa, wa, ob, wb, data, m)
        rhs = bracket_numeric(h, f, g, m)
        extra["route"] = "ambient"
        if oa.entry is not None and ob.entry is not None and m.exact is not None:
            (i, j), (k, l) = oa.entry, ob.entry
            nf = bracket_symbolic(PathEntrySymbol(wa, i + 1, j + 1),
                                  PathEntrySymbol(wb, k + 1, l + 1), data, ctx.n)
            extra["normal_form"] = nf.canonical_str()
            extra["symbolic_value"] = fmt_float(nf.evaluate(m))
    for side, value in (("combinatorial", lhs), ("bivector", rhs)):
        if not np.isfinite(value):
            raise FloatingPointError("the %s %s route gave %s" % (extra["route"], side, value))

    fx = fixture_result("bracket %s %s|%s seed=%d" % (spec, wa, wb, args.seed),
                        lhs, rhs, tol, extra)
    if "symbolic_value" in extra:   # the normal form must agree as well
        fx["pass"] &= bool(abs(float(extra["symbolic_value"]) - rhs) <= tol)
    report = make_report("bracket", _config_dict(args), [fx])
    print(write_report(report, args.out))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _check_options(args):
    """Reject option values that no bracket or suite can honour."""
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and non-negative, got %r" % args.tol)
    if getattr(args, "seed", 0) < 0:   # numpy seeds only non-negative ints
        raise ValueError("--seed must be non-negative, got %d" % args.seed)
    if args.command != "verify":
        return
    if not math.isfinite(args.mutate):
        raise ValueError("--mutate must be finite, got %r" % args.mutate)
    if args.n < 2:
        raise ValueError("--n must be at least 2, got %d" % args.n)


def cmd_verify(args) -> int:
    fixtures = run_suite(args.suite, n=args.n, tol=args.tol, mutate=args.mutate)
    report = make_report("verify", _config_dict(args), fixtures)
    print(write_report(report, args.out))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _config_dict(args) -> dict:
    out = {}
    for k, v in sorted(vars(args).items()):
        if k != "command" and v is not None:
            out[k] = v
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_options(args)
        if args.command == "bracket":
            return cmd_bracket(args)
        return cmd_verify(args)
    except SchemaError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (cx.RegularityError, GeneralPositionError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print("numeric domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:   # an input too large to allocate
        print("input error: out of memory: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
