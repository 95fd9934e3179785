"""Command-line interface.

Subcommands
-----------
index
    Index of a seaweed (gl and sl values for series A, cycle/segment
    breakdown for series C/B), read off the reduction walk: no graph.

graph
    The meander graph of a seaweed as text, json, ascii art or graphviz dot.

reduce
    The reduction chain down to a parabolic, step by step;
    --closed-form switches to the collapsed steps.

census
    The table of Frobenius class counts by rank and central-arc count,
    counted by a memoized reduction DP: ranks 1-9 in well under a second,
    ranks 1-20 in about 1.8 s.

verify
    Cross-checks: graph vs reduction indices, the Kirillov-form oracle, and
    the structural properties of the census.  Exit status 1 on any mismatch.

Usage examples
--------------
  meandre index --series C --n 10 --top 3,3 --bottom 4,5
  meandre index --series A --top 5,2,2 --bottom 2,4,3
  meandre graph --series C --n 7 --top 2,3 --bottom "" --format ascii
  meandre reduce --series C --n 10 --top 3,3 --bottom 4,5 --closed-form
  meandre census --n 7
  meandre verify --max-n 5

Caps: census --n at most 20, verify --max-n and --census-max-n at most 8,
--oracle-max-n at most 6; they are constants, and larger ranks go through
the library.  verify draws 5 oracle samples per seaweed (a constant);
--seed seeds the sampling (default 0).  index answers at any rank.  graph
refuses a graph of more than 2,000,000 vertices (rank 10^6 for C/B;
io_render.document's cap) with exit 2, as do graph --format ascii, before
building a graph, on a drawing over 200 columns, reduce without
--closed-form above rank 10^5 and, in either flavour, reduce on a chain
that would print over 10,000,000 parts (a count-only walk measures it first).
Exit codes: 0 ok, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .composition import SeaweedA, SeaweedC, Series, make_seaweed_a, make_seaweed_c, parse_int
from .enumeration import frobenius_census
from .index import component_counts, reduction_steps, terminal_index_c, walk
from .io_render import (
    census_table,
    check_ascii_width,
    document,
    payload_head,
    to_ascii,
    to_dot,
    to_json,
)

CENSUS_MAX_N = 20  # the census DP: rows 1-20 in about 1.8 s
BRUTE_FORCE_MAX_N = 8  # verify's 4^n scans: about 3 s and 0.4 s at rank 8, 4x more per rank
STEPWISE_MAX_N = 100_000  # reduce's steps: (n-1 | n) takes n-1, 2.4 s and 9.4 MB at 10^5
REDUCE_MAX_PARTS = 10_000_000  # reduce's parts: (1^2828 | 2^2828) prints 10.0 M in 4.6 s
ORACLE_MAX_N = 6  # the oracle's exhaustive pass: about 2.3 s at rank 6, 11 s at 7 (2-core x86)


def _check_bounds(*flags: tuple[str, int, int]) -> None:
    """Reject a (name, value, cap) flag outside 1..cap."""
    for name, value, cap in flags:
        if not 1 <= value <= cap:
            raise ValueError(f"{name} must lie in 1..{cap}, got {value}")


def int_option(text: str) -> int:
    """`parse_int` for an argparse option, which then shows parse_int's message."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _build_descriptor(args: argparse.Namespace) -> SeaweedA | SeaweedC:
    if args.series == "A":
        q = make_seaweed_a(args.top, args.bottom)
        if q.size == 0:
            raise ValueError("series A needs a positive total (sl(0) is not an algebra)")
        if args.n is not None and args.n != q.size:
            raise ValueError(f"--n {args.n} does not match the composition total {q.size}")
        return q
    if args.n is None:
        raise ValueError("series C/B require --n")
    return make_seaweed_c(args.n, args.top, args.bottom, Series(args.series))


def _banner(q: SeaweedA | SeaweedC) -> str:
    rank = "" if isinstance(q, SeaweedA) else f" n={q.rank},"
    return (
        f"seaweed: type {q.series_label},{rank} top {q.top}, bottom {q.bottom}"
        f"  [{q.algebra_name}]"
    )


def cmd_index(args: argparse.Namespace) -> int:
    q = _build_descriptor(args)
    c = component_counts(q)  # builds no graph, so any rank answers
    counts = {"cycles": c.cycles, "segments": c.stable + c.loose}
    lines = [f"cycles: {c.cycles}", f"segments: {c.stable + c.loose}"]
    if isinstance(q, SeaweedA):
        fields = {"index_gl": c.index, "index_sl": c.index - 1, **counts}
        lines = [f"index (gl): {c.index}", f"index (sl): {c.index - 1}", *lines]
    else:
        fields = {"index": c.index, **counts, "sigma_stable_segments": c.stable}
        lines = [f"index: {c.index}", *lines]
        lines[-1] += f" (mirror-stable {c.stable}, other {c.loose})"
    if args.json:
        _print_json({**payload_head(q), **fields})
        return 0
    print(_banner(q))
    print("\n".join(lines))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    q = _build_descriptor(args)
    if args.format == "ascii":
        check_ascii_width(q)
    doc = document(q)
    if args.format == "json":
        print(to_json(doc))
    elif args.format == "ascii":
        print(to_ascii(doc))
    elif args.format == "dot":
        sys.stdout.write(to_dot(doc))
    else:
        print(_banner(q))
        print(f"vertices: {doc.graph.vertex_count}")
        print("top arcs:", " ".join(f"({i},{j})" for i, j in doc.graph.top_arcs))
        print("bottom arcs:", " ".join(f"({i},{j})" for i, j in doc.graph.bottom_arcs))
        print("components:")
        for comp in doc.report.components:
            verts = ",".join(str(v) for v in comp.vertices)
            tag = ""
            if doc.graph.symmetric and not comp.is_cycle:
                tag = " mirror-stable" if comp.sigma_stable else " not-mirror-stable"
            print(f"  {comp.kind} {{{verts}}}{tag}")
        print(f"index: {doc.index}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    q = _build_descriptor(args)
    if isinstance(q, SeaweedA):
        raise ValueError("reduce applies to series C/B descriptors")
    if not args.closed_form and q.rank:  # a step lowers the rank; rank 0 takes none
        _check_bounds(("--n without --closed-form", q.rank, STEPWISE_MAX_N))
    printed = 0  # the parts of each step's descriptor, plus one per step
    stacks = list(q.top.parts[::-1]), list(q.bottom.parts[::-1])
    for *_, (a, b) in walk(q.rank, *stacks, closed_form=args.closed_form):
        printed += len(a) + len(b) + 1
        if printed > REDUCE_MAX_PARTS:
            raise ValueError(f"the chain would print over {REDUCE_MAX_PARTS:,} parts")
    # Each step is printed (or turned into its JSON row) as it is taken and
    # then let go, so only the latest descriptors stay alive.
    terminal, total, rows = q, 0, []
    if not args.json:
        print(_banner(q))
    for pos, step in enumerate(reduction_steps(q, closed_form=args.closed_form), start=1):
        if args.json:
            rows.append(
                {
                    "rule": step.rule.value,
                    "swapped": step.swapped,
                    "p": step.witness_p,
                    "before": str(step.before),
                    "after": str(step.after),
                    "delta": step.index_delta,
                }
            )
        else:
            rule = step.rule.value
            if step.witness_p is not None:
                rule += f" p={step.witness_p}"
            if step.swapped:
                rule += " (swapped)"
            print(f"  {pos}. {rule:<26} {step.before}  ->  {step.after}  [+{step.index_delta}]")
        terminal, total = step.after, total + step.index_delta
    terminal_index = terminal_index_c(terminal)
    if args.json:
        _print_json(
            {
                **payload_head(q),
                "steps": rows,
                "terminal": str(terminal),
                "terminal_index": terminal_index,
                "index": total + terminal_index,
            }
        )
    else:
        print(f"terminal: {terminal} parabolic, index {terminal_index}")
        print(f"index: {total + terminal_index}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    _check_bounds(("--n", args.n, CENSUS_MAX_N))
    rows = [frobenius_census(n, ordered=args.ordered) for n in range(1, args.n + 1)]
    if args.json:
        _print_json([{"n": r.n, "by_k": list(r.by_k), "total": r.total} for r in rows])
    else:
        print(census_table(rows))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_bounds(
        ("--max-n", args.max_n, BRUTE_FORCE_MAX_N),
        ("--oracle-max-n", args.oracle_max_n, ORACLE_MAX_N),
        ("--census-max-n", args.census_max_n, BRUTE_FORCE_MAX_N),
    )
    from .verify import run_all  # loaded here: no other command needs it or the oracle

    results = run_all(
        max_n=args.max_n,
        oracle_max_n=args.oracle_max_n,
        census_max_n=args.census_max_n,
        seed=args.seed,
    )
    for result in results:
        print(result)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"verify: FAIL ({len(failed)} of {len(results)} checks)", file=sys.stderr)
        return 1
    print(f"verify: PASS ({len(results)} checks)")
    return 0


def _add_descriptor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--series",
        choices=("A", "C", "B"),
        default="C",
        help="A = gl(N); C = sp(2n); B = so(2n+1), same graphs and index as C",
    )
    parser.add_argument("--n", type=int_option, default=None, help="rank n (series C/B)")
    parser.add_argument("--top", default="", help='top composition, e.g. "3,3" ("" = empty)')
    parser.add_argument("--bottom", default="", help='bottom composition ("" = empty)')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandre",
        description="Meander graphs, seaweed indices and the Frobenius census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index of one seaweed")
    _add_descriptor_flags(p_index)
    p_index.add_argument("--json", action="store_true", help="machine-readable output")
    p_index.set_defaults(func=cmd_index)

    p_graph = sub.add_parser("graph", help="render the meander graph")
    _add_descriptor_flags(p_graph)
    p_graph.add_argument(
        "--format",
        choices=("text", "json", "ascii", "dot"),
        default="text",
        help="output format (default text)",
    )
    p_graph.set_defaults(func=cmd_graph)

    p_reduce = sub.add_parser("reduce", help="reduction chain down to a parabolic")
    _add_descriptor_flags(p_reduce)
    p_reduce.add_argument(
        "--closed-form",
        action="store_true",
        help="use the collapsed steps (one per leading part, with witness p)",
    )
    p_reduce.add_argument("--json", action="store_true", help="machine-readable output")
    p_reduce.set_defaults(func=cmd_reduce)

    p_census = sub.add_parser("census", help="Frobenius class counts by rank")
    p_census.add_argument("--n", type=int_option, required=True, help="last rank to tabulate")
    p_census.add_argument("--json", action="store_true", help="machine-readable output")
    p_census.add_argument(
        "--ordered",
        action="store_true",
        help="count ordered pairs instead of unordered classes (debugging aid)",
    )
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="run the cross-check suites")
    p_verify.add_argument(
        "--max-n", type=int_option, default=6, help="rank bound for the index cross-check"
    )
    p_verify.add_argument(
        "--oracle-max-n",
        type=int_option,
        default=3,
        help="exhaustive rank bound for the Kirillov oracle (plus 50 descriptors one rank up)",
    )
    p_verify.add_argument(
        "--census-max-n",
        type=int_option,
        default=7,
        help="rank bound for the per-element census checks "
        "(tail identities use rows up to max(9, this bound))",
    )
    p_verify.add_argument("--seed", type=int_option, default=0, help="random seed (default 0)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
