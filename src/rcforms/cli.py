"""Command-line driver.

Exit codes: 0 success, 1 invariant violation (witness printed), 2 usage or
input error.  All outputs are deterministic: identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys

from . import brackets, jets, lattices, verify
from .series import InvariantError
from .seriesio import KINDS, ParseError, parse_fraction_arg, read_series, write_series
from .siegel import SymmetryError, bracket_siegel_direct, bracket_siegel_via_jacobi


def _lattice(name: str) -> lattices.Lattice:
    try:
        return lattices.LATTICES[name]
    except KeyError:
        raise ValueError(f"unknown lattice {name!r}; choose from {sorted(lattices.LATTICES)}") from None


def _parse_vector(text: str) -> tuple:
    return tuple(parse_fraction_arg(part) for part in text.split(","))


def _read_pair(args, kind: str) -> tuple:
    """The --left and --right series, each required to be of ``kind``."""
    pair = read_series(args.left), read_series(args.right)
    for path, obj in zip((args.left, args.right), pair):
        if not isinstance(obj, KINDS[kind]):
            raise ValueError(f"{path} does not contain a {kind} series")
    return pair


def _cmd_theta_jacobi(args) -> int:
    lattice = _lattice(args.lattice)
    if args.vector is not None:
        vector = _parse_vector(args.vector)
    else:
        index = 1 if args.half_norm_index is None else args.half_norm_index
        vector = lattices.standard_index_vector(lattice, index)
    write_series(args.out, lattices.jacobi_theta(lattice, vector, args.trunc))
    return 0


def _cmd_theta_siegel(args) -> int:
    write_series(args.out, lattices.siegel_theta(_lattice(args.lattice), args.trunc))
    return 0


def _cmd_bracket_jacobi(args) -> int:
    left, right = _read_pair(args, "jacobi")
    write_series(args.out, brackets.bracket_jacobi(left, right, parse_fraction_arg(args.x), args.v))
    return 0


def _cmd_bracket_siegel(args) -> int:
    left, right = _read_pair(args, "siegel")
    compute = bracket_siegel_direct if args.mode == "direct" else bracket_siegel_via_jacobi
    write_series(args.out, compute(left, right, args.l))
    return 0


def _cmd_rank_x(args) -> int:
    left, right = _read_pair(args, "jacobi")
    print(brackets.bracket_rank_over_x(left, right, args.v))
    return 0


def _cmd_verify(args) -> int:
    forms = verify.FormSet(trunc=args.trunc, siegel_trunc=args.siegel_trunc)
    results = verify.run_suite(args.suite, forms)
    for result in results:
        print(result.describe())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcforms",
        description="Exact bracket operators on Jacobi and degree-2 expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta-jacobi", help="write a lattice theta Jacobi expansion")
    p.add_argument("--lattice", default="e8", help="lattice name (e8, e8e8)")
    # no argparse default for --half-norm-index: the group lets a given value equal to the default pass
    named = p.add_mutually_exclusive_group()
    named.add_argument("--half-norm-index", type=int, help="index = half-norm of the fixed vector (default 1)")
    named.add_argument("--vector", help="explicit fixed vector, comma-separated exact coordinates")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_theta_jacobi)

    p = sub.add_parser("theta-siegel", help="write a lattice theta degree-2 expansion")
    p.add_argument("--lattice", default="e8")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_theta_siegel)

    p = sub.add_parser("bracket-jacobi", help="bracket of two jacobi coefficient files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--x", default="0", help="exact fraction; write negatives as --x=-1/2")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bracket_jacobi)

    p = sub.add_parser("bracket-siegel", help="bracket of two siegel coefficient files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("direct", "jacobi"),
        default="direct",
        help="direct: the delta-operator form; jacobi: the slices' Jacobi brackets at x=0, "
        "summed by slice index (the independent check); both write the same file",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bracket_siegel)

    p = sub.add_parser("rank-x", help="rank of the x-family span of a bracket pair")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=_cmd_rank_x)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--siegel-trunc", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SymmetryError, jets.CrosscheckError, InvariantError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
