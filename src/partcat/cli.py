"""Command-line surface: parse, operate, close, classify, enumerate, count, verify.

All output is line-oriented plain text or CSV and deterministic for fixed
flags.  Budget and cap violations exit with code 2 and a message
prefixed ``budget:``; usage and data errors exit with code 2 as well but
other prefixes, so logical failures (exit 1) stay distinguishable.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from . import catalog as cat
from . import linmap as lm
from . import moments as mo
from .classify import classify_easy
from .closure import DEFAULT_INTERMEDIATE_BUDGET, DEFAULT_MAX_FUSION_OPS, DEFAULT_POINT_BUDGET
from .closure import generate_closure
from .errors import BudgetError, CapExceededError, MemoryCapError, PartcatError
from .ops import Rotation, compose, enumerate_upto, involute, rotate, tensor
from .partition import canonical_text, parse_partition

_LAWS = {
    "semicircle": (mo.semicircular_spec, ("a",)),
    "shifted-semicircle": (mo.shifted_semicircular_spec, ("a",)),
    "shifted-circle": (mo.shifted_circular_spec, ("d", "d*")),
    "real-gaussian": (mo.gaussian_spec, ("a",)),
    "shifted-real-gaussian": (mo.shifted_gaussian_spec, ("a",)),
    "shifted-complex-gaussian": (mo.shifted_complex_gaussian_spec, ("d", "d*")),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="partcat", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of a partition")
    p.add_argument("text")

    p = sub.add_parser("op", help="apply a category operation")
    p.add_argument("operation", choices=["tensor", "compose", "involute", "rotate"])
    p.add_argument("partition")
    p.add_argument("argument", nargs="?", help="second partition, or rotation direction")

    p = sub.add_parser("closure", help="generate a bounded categorial hull")
    p.add_argument("--gen", action="append", default=[], help="generator partition text")
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--ibudget", type=int, default=DEFAULT_INTERMEDIATE_BUDGET)

    p = sub.add_parser("classify", help="classify the category generated by partitions")
    p.add_argument("--gen", action="append", default=[])
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--ibudget", type=int, default=DEFAULT_INTERMEDIATE_BUDGET)

    p = sub.add_parser("enumerate", help="list category members on K points")
    p.add_argument("--category", required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("count", help="emit CSV of category counts up to kmax")
    p.add_argument("--category", required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = sub.add_parser("verify-tp", help="intertwiner check of all partitions up to K points")
    p.add_argument("--rep", required=True, choices=[
        lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL, lm.KIND_BISTOCHASTIC, lm.KIND_ORTHOGONAL,
    ])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("moments", help="moment sequence of a named law")
    p.add_argument("--law", required=True, choices=sorted(_LAWS))
    p.add_argument("--kmax", type=int, required=True)

    sub.add_parser("report", help="run the acceptance suite and print a summary")
    return top


def _cmd_op(args: argparse.Namespace) -> int:
    p = parse_partition(args.partition)
    if args.operation == "involute":
        print(canonical_text(involute(p)))
        return 0
    if args.operation == "rotate":
        if args.argument is None:
            print("usage: op rotate <partition> <direction>", file=sys.stderr)
            return 2
        try:
            where = Rotation(args.argument)
        except ValueError:
            choices = ", ".join(r.value for r in Rotation)
            print(f"usage: direction must be one of {choices}", file=sys.stderr)
            return 2
        print(canonical_text(rotate(p, where)))
        return 0
    if args.argument is None:
        print(f"usage: op {args.operation} needs two partitions", file=sys.stderr)
        return 2
    q = parse_partition(args.argument)
    if args.operation == "tensor":
        print(canonical_text(tensor(p, q)))
    else:
        res = compose(p, q)
        print(canonical_text(res.result))
        print(f"loops={res.removed_loops}")
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    gens = [parse_partition(t) for t in args.gen]
    closure = generate_closure(
        gens, args.budget, args.ibudget, max_fusion_ops=DEFAULT_MAX_FUSION_OPS
    )
    for line in closure.dump_lines():
        print(line)
    print(
        f"# elements={len(closure.words)} saturated={closure.saturated}"
        f" stop_reason={closure.stop_reason}",
        file=sys.stderr,
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    gens = [parse_partition(t) for t in args.gen]
    result = classify_easy(gens, args.budget, args.ibudget)
    for line in result.lines():
        print(line)
    return 0


def _cmd_verify_tp(args: argparse.Namespace) -> int:
    rep = lm.classical_rep(args.rep, args.n)
    lm.check_tensor_cap(args.n, args.points)
    lm.check_table_cost(rep, args.points)
    partitions = enumerate_upto(args.points)
    table = lm.intertwiner_table(rep, partitions)
    for p in partitions:
        print(f"{'pass' if table[p] else 'fail'}  {canonical_text(p)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "parse":
            print(canonical_text(parse_partition(args.text)))
            return 0
        if args.verb == "op":
            return _cmd_op(args)
        if args.verb == "closure":
            return _cmd_closure(args)
        if args.verb == "classify":
            return _cmd_classify(args)
        if args.verb == "enumerate":
            for p in cat.enumerate_category(args.category, args.points):
                print(canonical_text(p))
            return 0
        if args.verb == "count":
            seq = mo.count_moments(args.category, args.kmax)
            print("category,k,m_k")
            for k, value in enumerate(seq, start=1):
                print(f"{args.category},{k},{value}")
            return 0
        if args.verb == "verify-tp":
            return _cmd_verify_tp(args)
        if args.verb == "moments":
            spec_fn, unit = _LAWS[args.law]
            seq = mo.moments_from_cumulants(spec_fn(), unit, args.kmax)
            for k, value in enumerate(seq, start=1):
                print(f"{k},{value}")
            return 0
        if args.verb == "report":
            results = acceptance.run_all()
            print(acceptance.format_report(results))
            return 0 if all(r.passed for r in results) else 1
    except (BudgetError, CapExceededError, MemoryCapError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except PartcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
