"""Command-line interface.

Exit codes: 0 success, 1 internal error (any other exception, reported
as one `error: internal:` line), 2 bound violation or verification
failure, 3 parse/config error or an unreadable or non-UTF-8 input file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import check, construct, exact, harness
from .generate import generate as build_generated, parse_gen_spec
from .errors import BoundMiss, ForestBoundError, InvalidSpec, ParseError
from .graph import DegreeHistogram, format_edge_list, parse_edge_list
from .partition import Partition, format_partition, parse_partition_file
from .weights import parse_bound_spec, rat_text, select_eps, total_weight, weight_counts

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VIOLATION = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _rat_approx(x: Fraction) -> str:
    return f"{rat_text(x)} (~{float(x):.6f})"


def _read(path: str, parse, *args):
    """parse(the text of the file at path, *args); a ParseError names a file that won't decode."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return parse(text, *args)


# The partition modes of the kinds that read one, by bound variant and by forest class.
_MODE_OF_VARIANT = {row.spec.variant: row.mode for row in construct.KINDS.values() if row.mode}
_MODE_OF_CLASS = {row.forest: row.mode for row in construct.KINDS.values() if row.mode}


def _read_partition(name: str, mode, path: Optional[str], required=True) -> Optional[Partition]:
    """The partition file at path, read in mode. With no mode, `name` (what
    the error messages name) takes no partition; with one it needs it, if required."""
    if path is None:
        if mode is not None and required:
            raise ParseError(f"{name} needs --partition")
        return None
    if mode is None:
        raise ParseError(f"{name} takes no --partition")
    return _read(path, parse_partition_file, mode)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it unchanged, and building it costs far more than one parse."""
    parser = _Parser(prog="forestbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a degree-sequence bound")
    p_bound.add_argument("graph", help="edge-list file")
    p_bound.add_argument("spec", help="bound spec, e.g. flin, fkeps:k=2,eps=1/6, hkg:k=3, star")
    p_bound.add_argument("--partition", help="partition file for abc/abstar specs")

    p_cons = sub.add_parser("construct", help="build and verify a certificate")
    p_cons.add_argument("graph")
    p_cons.add_argument("kind", choices=list(construct.KINDS), help="certificate family")
    p_cons.add_argument("--k", type=int, help="degree bound for caterpillar forests")
    p_cons.add_argument("--partition", help="partition file (required for abc/ab)")
    p_cons.add_argument("--out", help="certificate output file (default stdout)")

    p_verify = sub.add_parser("verify", help="re-check a certificate")
    p_verify.add_argument("graph")
    p_verify.add_argument("certificate")
    p_verify.add_argument(
        "--partition", help="partition file, read as ABC for class=linear, AB for class=star"
    )

    p_exact = sub.add_parser("exact", help="exact optimum by branch and bound")
    p_exact.add_argument("graph")
    p_exact.add_argument("kind", choices=list(construct.KINDS))
    p_exact.add_argument("--k", type=int)
    p_exact.add_argument("--partition")
    p_exact.add_argument("--budget", type=int, default=exact.DEFAULT_BUDGET)

    p_gen = sub.add_parser("gen", help="generate a witness-family or random graph")
    p_gen.add_argument("spec", help="e.g. hnk:n=3,k=2 or gnp:n=30,p=0.2,seed=42")
    p_gen.add_argument("--out", help="edge-list output file (default stdout)")
    p_gen.add_argument("--partition-out", help="write the gadget labeling here")

    p_eps = sub.add_parser("epsilon-opt", help="optimal epsilon for a graph's degrees")
    p_eps.add_argument("graph")
    p_eps.set_defaults(partition=None)
    group = p_eps.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="caterpillar family")
    group.add_argument("--star", action="store_true", help="star forest family")

    p_har = sub.add_parser("harness", help="run a verification battery")
    p_har.add_argument("suite", choices=list(harness.SUITES))
    p_har.add_argument("--seed", type=int, default=0)
    p_har.add_argument("--sizes", type=int, nargs="+")
    p_har.add_argument("--out", help="report file (default stdout)")

    return parser


def cmd_bound(args) -> int:
    text = _read(args.graph, str)
    try:
        spec = parse_bound_spec(args.spec)
    except ForestBoundError:
        parse_edge_list(text)  # a bad edge list is named before a bad spec
        raise
    # hkg's leaf tags read the edges; every other bound reads the degrees alone
    g = parse_edge_list(text) if spec.variant == "hkg" else None
    deg = parse_edge_list(text, degrees=True) if g is None else g.degrees()
    labels = _read_partition(spec.variant, _MODE_OF_VARIANT.get(spec.variant), args.partition)
    if labels is not None:
        labels.validate_for(range(len(deg)))
    leaves = None if g is None else g.leaf_tags(deg)
    counts = weight_counts(spec, range(len(deg)), deg, labels, leaves)
    if spec.eps_open:
        eps, d_star = select_eps(spec, DegreeHistogram.from_counts(counts))
        print(f"eps={rat_text(eps)}")
        if spec.k is not None:  # fkeps, the open-eps variant with a k, picks eps by a degree D
            print(f"d_star={d_star if d_star is not None else '-'}")
        spec = replace(spec, eps=eps)
    print(f"bound={_rat_approx(total_weight(counts, spec))}")
    return EXIT_OK


def _kind(args) -> construct.Kind:
    """The row of construct's or exact's kind; only caterpillars take --k, a bound >= 2."""
    try:
        return construct.kind_row(args.kind, args.k)
    except (InvalidSpec, ValueError):
        raise ParseError(f"{args.command} {args.kind}: --k is a caterpillar degree bound >= 2")


def cmd_construct(args) -> int:
    kind = _kind(args)
    g = _read(args.graph, parse_edge_list)
    cert, trace = kind.build(g, _read_partition(args.kind, kind.mode, args.partition))
    text = check.certificate_to_text(cert, g.edge_hash(), trace)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return _verdict(cert, True)  # every constructor verifies, else raises BoundMiss


def cmd_verify(args) -> int:
    g = _read(args.graph, parse_edge_list)
    cert, graph_hash = _read(args.certificate, check.certificate_from_text)
    name, mode = f"class={cert.forest_class.to_text()}", _MODE_OF_CLASS.get(cert.forest_class)
    labels = _read_partition(name, mode, args.partition, required=False)
    if graph_hash not in ("-", "") and graph_hash != g.edge_hash():
        print("verdict=fail reason=graph-hash-mismatch")
        return EXIT_VIOLATION
    if labels is not None:
        labels.validate_for(g.vertices)
    return _verdict(cert, construct.uncollected(check.verify_certificate)(g, cert, labels))


def _verdict(cert, ok: bool) -> int:
    """Print the verdict line of cert."""
    bound = rat_text(cert.claimed_bound)
    print(f"verdict={'pass' if ok else 'fail'} size={cert.size()} bound={bound}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_exact(args) -> int:
    kind = _kind(args)
    if args.budget < 0:
        raise ParseError(f"exact: --budget must be >= 0, got {args.budget}")
    g = _read(args.graph, parse_edge_list)
    labels = _read_partition(args.kind, kind.mode, args.partition)
    if labels is not None:
        res = exact.alpha_exact_partitioned(g, labels, args.budget)
    else:
        res = exact.alpha_exact(g, kind.forest, args.budget)
    print(f"alpha={res.alpha}")
    print(f"witness={' '.join(map(str, sorted(res.witness)))}")
    print(f"nodes={res.nodes_explored}")
    print(f"exact={'yes' if res.exact else 'no'}")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = parse_gen_spec(args.spec)
    g, labels = build_generated(spec)
    if args.partition_out and labels is None:  # before anything is written
        raise ParseError(f"family {spec.family!r} has no labeling to write")
    text = format_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.partition_out:
        Path(args.partition_out).write_text(format_partition(labels))
    return EXIT_OK


def cmd_epsilon_opt(args) -> int:
    """`epsilon-opt G --k K` is `bound G fkeps:k=K`; `--star` is `bound G star`."""
    args.spec = "star" if args.star else f"fkeps:k={args.k}"
    return cmd_bound(args)


def cmd_harness(args) -> int:
    report = harness.run_suite(args.suite, args.seed, args.sizes)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"records={len(report.records)} failures={report.failures}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.failures == 0 else EXIT_VIOLATION


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "bound": cmd_bound,
        "construct": cmd_construct,
        "verify": cmd_verify,
        "exact": cmd_exact,
        "gen": cmd_gen,
        "epsilon-opt": cmd_epsilon_opt,
        "harness": cmd_harness,
    }[args.command]
    try:
        return handler(args)
    except BoundMiss as exc:
        print(f"error: bound miss: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ForestBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        message = str(exc).partition("\n")[0]
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
