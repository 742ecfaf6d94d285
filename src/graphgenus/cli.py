"""Command-line front end.

Every command prints deterministic text: exact rationals, pi^2 kept
symbolic unless --float asks for decimals.  Exit codes: 0 success,
1 a computed verdict failed (wheeling residue, analysis constraint),
2 usage or input errors.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from .scalars import parse_pi_scalar, parse_rational
from .graph_core import GraphParseError, canonical_form, format_oriented, parse_graph
from .graph_algebra import (
    AlgebraError, DegreeMismatch, dimension, format_vector, ihx_relations,
    parse_vector, reduce as ihx_reduce,
)
from .wheeling import omega, wheeling_check
from .genus import ChernData, _power_product, builtin_genera
from .hk_analysis import ManifoldData, validate
from .lie_oracle import WeightTooLarge, builtin, weight_vector

SERIES_NAMES = {"ahat": "ahat", "todd": "todd", "sqrt-ahat": "sqrt_ahat"}

CHERN_FLAGS = {
    1: (("c2", (2,)),),
    2: (("c2sq", (2, 2)), ("c4", (4,))),
    3: (("c2cube", (2, 2, 2)), ("c2c4", (2, 4)), ("c6", (6,))),
}


@cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and its subcommand parsers by name.
    Sharing them is safe: parse_args returns a fresh Namespace per call,
    and argparse writes usage errors to the sys.stderr of that moment."""
    p = argparse.ArgumentParser(
        prog="graphgenus",
        description="oriented trivalent graph homology, wheels, genera, "
                    "and hyperkähler curvature-norm identities")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="canonical form and sign of a graph file")
    sp.add_argument("file")

    sp = sub.add_parser("reduce", help="normal form of a graph vector modulo IHX")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("file")

    sp = sub.add_parser("dim", help="dimension of degree-k trivalent classes")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("wheeling", help="verify the degree-k gluing identity")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("omega", help="wheeled exponential coefficients up to weight k")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("ihx", help="relation stream utilities")
    isub = sp.add_subparsers(dest="action", required=True)
    emit = isub.add_parser("emit", help="print the degree-k relations as vector text")
    emit.add_argument("--k", type=int, required=True)
    emit.add_argument("--index", type=int, default=None,
                      help="emit only relation INDEX (0-based)")

    sp = sub.add_parser("genus", help="genus polynomial in Chern classes")
    sp.add_argument("--series", choices=sorted(SERIES_NAMES), required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("analyze", help="hyperkähler curvature-norm report")
    sp.add_argument("--k", type=int, required=True, choices=sorted(CHERN_FLAGS))
    sp.add_argument("--vol", type=str, required=True,
                    help="volume, e.g. 1, 7/3, or 2*pi^2")
    sp.add_argument("--normRsq", type=str, default=None,
                    help="measured L2 curvature norm squared (same syntax)")
    sp.add_argument("--reducible", action="store_true",
                    help="mark the manifold as reducible (identities not asserted)")
    sp.add_argument("--float", dest="use_float", action="store_true",
                    help="decimal output instead of exact p/q * pi^2")
    for flags in CHERN_FLAGS.values():
        for name, _ in flags:
            sp.add_argument(f"--{name}", type=str, default=None)

    sp = sub.add_parser("oracle", help="metric Lie algebra weight of a graph vector")
    sp.add_argument("--algebra", required=True,
                    help="sl2, gl(N) (also gl2, gl3, ...), abelian(d)")
    sp.add_argument("file")

    return p, sub.choices


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _chern_data(args) -> ChernData:
    values = {}
    for k, flags in CHERN_FLAGS.items():
        for name, mono in flags:
            raw = getattr(args, name)
            if raw is None:
                continue
            if k != args.k:
                raise DegreeMismatch(
                    f"--{name} is a degree-{k} Chern number, but --k is {args.k}")
            values[mono] = parse_rational(raw)
    return ChernData(args.k, values)


def _run(args) -> int:
    out = sys.stdout
    if args.command == "normalize":
        g = parse_graph(_read(args.file))
        out.write(format_oriented(canonical_form(g)) + "\n")
        return 0

    if args.command == "reduce":
        v = parse_vector(_read(args.file))
        out.write(format_vector(ihx_reduce(v, ihx_relations(args.k))) + "\n")
        return 0

    if args.command == "dim":
        out.write(f"{dimension(args.k)}\n")
        return 0

    if args.command == "wheeling":
        rep = wheeling_check(args.k)
        if rep.passed:
            if rep.exact:
                out.write("PASS (exact, no reduction needed)\n")
            else:
                out.write("PASS (residual 0 modulo IHX)\n")
            return 0
        out.write("FAIL residual=\n")
        out.write(format_vector(rep.residual) + "\n")
        return 1

    if args.command == "omega":
        om = omega(args.k)
        for n in sorted(om.b_table):
            out.write(f"b{n} = {om.b_table[n]}\n")
        terms = [f"({coeff})" + _power_product(f"w{2 * n}" for n in parts)
                 if parts else "1" for parts, coeff in om.partition_terms]
        out.write("omega = " + " + ".join(terms) + "\n")
        return 0

    if args.command == "ihx":
        rels = ihx_relations(args.k).relations
        if args.index is not None:
            if not rels:
                raise AlgebraError(f"degree {args.k} has no relations")
            if not 0 <= args.index < len(rels):
                raise AlgebraError(
                    f"relation index {args.index} out of range 0..{len(rels) - 1}")
            rels = [rels[args.index]]
        for rel in rels:
            out.write(format_vector(rel) + "\n")
        return 0

    if args.command == "genus":
        genus = builtin_genera()[SERIES_NAMES[args.series]]
        out.write(genus.polynomial(args.k).render() + "\n")
        return 0

    if args.command == "analyze":
        data = ManifoldData(
            k=args.k,
            chern=_chern_data(args),
            volume=parse_pi_scalar(args.vol),
            norm_R_sq=(parse_pi_scalar(args.normRsq)
                       if args.normRsq is not None else None),
            irreducible=not args.reducible,
        )
        report = validate(data)
        out.write(report.render(use_float=args.use_float) + "\n")
        return 0 if report.all_pass else 1

    if args.command == "oracle":
        N = builtin(args.algebra)
        v = parse_vector(_read(args.file))
        w = weight_vector(N, v)
        try:
            text = str(w)
        except ValueError as exc:  # Python's int-to-str digit limit
            raise WeightTooLarge(
                f"the weight has more than {sys.get_int_max_str_digits()} "
                "digits, Python's limit for printing an integer") from exc
        out.write(text + "\n")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    if argv and argv[0] in commands:  # the top level would classify every argument
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = parser.parse_args(argv)  # no command: usage or help, and exit
    try:
        return _run(args)
    except GraphParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("RecursionError: the graph is too large for the canonical search, "
              "which recurses once per vertex; Python's recursion limit is "
              f"{sys.getrecursionlimit()}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
