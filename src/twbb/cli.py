"""Command line interface.

Subcommands: solve, bounds, oracle, gen, bench.  Exit codes: 0 for a
proven-optimal result (or ordinary success), 2 when a time-limited solve
returns its best-so-far without proof, 1 for any error.

Importing this module loads only what ``tw solve`` runs: ``tw bench``
imports the benchmark harness when it is called.  Nothing configures
logging, so a warning (such as a header's edge count that does not match
the file) reaches stderr as its bare message through Python's
last-resort handler.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import mcs_lb, minor_min_width, minwidth_lb
from .decomposition import build_decomposition, validate_decomposition
from .formats import (
    ParseError,
    _content_lines,
    parse_dimacs_col,
    parse_pace_gr,
    write_pace_gr,
    write_pace_td,
)
from .generators import PartialKTreeSpec, RandomGraphSpec, _instance
from .graph import GraphError
from .oracle import DEFAULT_DP_LIMIT, exact_treewidth
from .solver import SolverConfig, solve

# tw solve without flags runs the library's default configuration.
DEFAULT = SolverConfig()
# (SolverConfig field, flag that turns the rule off, help)
RULE_FLAGS = (
    ("reductions", "--no-reduce", "disable forced eliminations"),
    ("edge_addition", "--no-edge-add", "disable forced edge addition"),
    (
        "prune_sibling_order",
        "--no-prune-sibling",
        "disable the explored-sibling (neighborhood snapshot) filter",
    ),
    (
        "prune_mutual_simplicial",
        "--no-prune-mutual",
        "disable the mutually-simplifying candidate filter",
    ),
    ("prune_fill_subset", "--no-prune-fill", "disable the dominated-fill-set candidate filter"),
    (
        "successor_restriction",
        "--no-successor",
        "branch on all vertices, not only non-neighbors of the last one",
    ),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_graph(path: str):
    """The graph in path (- for stdin).

    A .col file is DIMACS and a .gr file is PACE.  Any other input is PACE
    when its first content line's first two tokens are p and tw, and DIMACS
    otherwise.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"{path} is not UTF-8 text") from None
    if path.endswith(".col"):
        return parse_dimacs_col(text)
    if path.endswith(".gr") or next(_content_lines(text), (0, "", []))[2][:2] == ["p", "tw"]:
        return parse_pace_gr(text)
    return parse_dimacs_col(text)


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when there is no path."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solver_config(args) -> SolverConfig:
    rules = {field: getattr(args, field) for field, _, _ in RULE_FLAGS}
    return SolverConfig(time_limit=args.time_limit, **rules)


def _cmd_solve(args) -> int:
    g = _read_graph(args.file)
    cfg = _solver_config(args)
    improvements: list[dict] = []

    def on_improvement(elapsed, width, order):
        improvements.append(
            {"elapsed": round(elapsed, 6), "width": width, "order": list(order)}
        )

    report = solve(g, cfg, on_improvement=on_improvement)
    if args.td:
        td = build_decomposition(g, report.best_order.vertices)
        check = validate_decomposition(g, td)
        if not check:
            print(f"internal error: invalid decomposition: {check.problem}", file=sys.stderr)
            return 1
        _write(write_pace_td(td, g.n), args.td)
    if args.json:
        payload = {
            "file": args.file,
            "n": g.n,
            "m": g.num_edges(),
            "best_width": report.best_width,
            "best_order": list(report.best_order.vertices),
            "proven_lb": report.proven_lb,
            "optimal": report.optimal,
            "nodes_expanded": report.nodes_expanded,
            "elapsed": round(report.elapsed, 6),
            "anytime_trace": improvements,
        }
        print(json.dumps(payload))
    else:
        status = "optimal" if report.optimal else f"best found (lb {report.proven_lb})"
        print(f"{args.file}: n={g.n} m={g.num_edges()}")
        print(
            f"width {report.best_width} ({status}), "
            f"nodes {report.nodes_expanded}, {report.elapsed:.2f}s"
        )
        print("order: " + " ".join(str(v) for v in report.best_order.vertices))
        if len(report.anytime_trace) > 1:
            steps = " -> ".join(f"{w}@{t:.2f}s" for t, w in report.anytime_trace)
            print("trace: " + steps)
    return 0 if report.optimal else 2


def _cmd_bounds(args) -> int:
    g = _read_graph(args.file)
    if args.mcs_restarts < 1:
        raise GraphError("restarts must be at least 1")
    mw = minwidth_lb(g)
    # one sweep per start: the first is mcslb, the best mcslb_best
    mcs = [mcs_lb(g, s) for s in g.vertices[: args.mcs_restarts]]
    mcs1, mcs_best = (mcs[0], max(mcs)) if mcs else (0, 0)
    mmw = minor_min_width(g)
    if args.json:
        print(
            json.dumps(
                {
                    "file": args.file,
                    "n": g.n,
                    "m": g.num_edges(),
                    "mw": mw,
                    "mcslb": mcs1,
                    "mcslb_best": mcs_best,
                    "mmw": mmw,
                }
            )
        )
    else:
        print(f"{args.file}: n={g.n} m={g.num_edges()}")
        print(f"mw     {mw}")
        print(f"mcslb  {mcs1} (best of {len(mcs)} starts: {mcs_best})")
        print(f"mmw    {mmw}")
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    result = exact_treewidth(g, limit=args.limit)
    if args.json:
        print(json.dumps({"file": args.file, "treewidth": result.treewidth, "order": list(result.order)}))
    else:
        print(f"treewidth {result.treewidth}")
        print("order: " + " ".join(str(v) for v in result.order))
    return 0


def _add_families(parser, func) -> tuple[argparse.ArgumentParser, ...]:
    """Add a subparser per generated family to parser, each running func.

    Each sets args.family to its name, and args.make_spec to the function
    that builds its spec from the parsed options.
    """
    families = parser.add_subparsers(dest="family", required=True)
    pr = families.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.set_defaults(func=func, make_spec=lambda a: RandomGraphSpec(a.n, a.m, a.seed))
    pk = families.add_parser("pktree")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--p", type=int, default=0)
    pk.set_defaults(func=func, make_spec=lambda a: PartialKTreeSpec(a.n, a.k, a.p, a.seed))
    return pr, pk


def _cmd_gen(args) -> int:
    _write(write_pace_gr(_instance(args.make_spec(args))[1]), args.out)
    return 0


def _cmd_bench(args) -> int:
    from .bench import aggregate, records_to_csv, records_to_jsonl, run_family

    cfg = SolverConfig(time_limit=args.time_limit)
    records = list(run_family(args.make_spec(args), count=args.count, cfg=cfg))
    if args.format == "csv":
        text = records_to_csv(records)
        print(json.dumps({"aggregate": aggregate(records)}), file=sys.stderr)
    else:
        text = records_to_jsonl(records)
    _write(text, args.out)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tw", description="Exact anytime treewidth solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance exactly (anytime)")
    ps.add_argument("file", help=".col or .gr file, or - for stdin")
    ps.add_argument("--time-limit", type=float, default=None, metavar="S")
    for field, flag, help_ in RULE_FLAGS:
        ps.add_argument(
            flag, dest=field, action="store_false", default=getattr(DEFAULT, field), help=help_
        )
    ps.add_argument("--td", metavar="OUT.td", help="write the tree decomposition here")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bounds", help="print the three lower bounds")
    pb.add_argument("file")
    pb.add_argument("--mcs-restarts", type=int, default=1)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_bounds)

    po = sub.add_parser("oracle", help="exact treewidth by dynamic programming (small n)")
    po.add_argument("file")
    po.add_argument("--limit", type=int, default=DEFAULT_DP_LIMIT, help="max vertex count accepted")
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=_cmd_oracle)

    pg = sub.add_parser("gen", help="generate an instance in PACE .gr form")
    for family in _add_families(pg, _cmd_gen):
        family.add_argument("--seed", type=int, default=0)
        family.add_argument("--out")

    pn = sub.add_parser("bench", help="run a generated family and report records")
    for family in _add_families(pn, _cmd_bench):
        family.add_argument("--count", type=int, default=30)
        # the first instance's spec seed; the others follow it
        family.add_argument("--seed0", dest="seed", metavar="SEED0", type=int, default=0)
        family.add_argument("--time-limit", type=float, default=None)
        family.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        family.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
