"""Command line interface.

Subcommands: solve, bounds, oracle, gen, bench.  Exit codes: 0 for a
proven-optimal result (or ordinary success), 2 when a time-limited solve
returns its best-so-far without proof, 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .bench import (
    PartialKTreeSpec,
    RandomGraphSpec,
    aggregate,
    records_to_csv,
    records_to_jsonl,
    run_family,
)
from .bounds import mcs_lb, mcs_lb_max, minor_min_width, minwidth_lb
from .decomposition import build_decomposition, validate_decomposition
from .formats import (
    ParseError,
    parse_dimacs_col,
    parse_pace_gr,
    write_pace_gr,
    write_pace_td,
)
from .generators import gen_partial_ktree, gen_random
from .graph import GraphError
from .heuristics import HeuristicConfig
from .oracle import exact_treewidth
from .solver import LB_KINDS, SolverConfig, solve

UB_NAMES = {"minfill": "min-fill", "minwidth": "min-width", "mcs": "max-cardinality"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_graph(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    if path.endswith(".col"):
        return parse_dimacs_col(text)
    if path.endswith(".gr"):
        return parse_pace_gr(text)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p tw"):
            return parse_pace_gr(text)
        break
    return parse_dimacs_col(text)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        time_limit=args.time_limit,
        reductions=not args.no_reduce,
        edge_addition=not args.no_edge_add,
        prune_sibling_order=not args.no_prune_sibling,
        prune_mutual_simplicial=not args.no_prune_mutual,
        prune_fill_subset=not args.no_prune_fill,
        successor_restriction=not args.no_successor,
        ub_heuristic=HeuristicConfig(UB_NAMES[args.ub], runs=args.runs, seed=args.seed),
        lb_kind=args.lb,
    )


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
        with open(args.td, "w") as fh:
            fh.write(write_pace_td(td, g.n))
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
    mw = minwidth_lb(g)
    mcs1 = mcs_lb(g)
    mcs_best = mcs_lb_max(g, restarts=args.mcs_restarts)
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
        print(f"mcslb  {mcs1} (best of {args.mcs_restarts} starts: {mcs_best})")
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


def _cmd_gen(args) -> int:
    if args.family == "random":
        g = gen_random(RandomGraphSpec(args.n, args.m, args.seed))
    else:
        g = gen_partial_ktree(PartialKTreeSpec(args.n, args.k, args.p, args.seed))
    text = write_pace_gr(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    if args.family == "random":
        spec = RandomGraphSpec(args.n, args.m, 0)
    else:
        spec = PartialKTreeSpec(args.n, args.k, args.p, 0)
    heuristic = replace(SolverConfig().ub_heuristic, seed=args.seed)
    cfg = SolverConfig(time_limit=args.time_limit, ub_heuristic=heuristic)
    records = list(run_family(spec, count=args.count, seed0=args.seed0, cfg=cfg))
    if args.format == "csv":
        text = records_to_csv(records)
        agg = aggregate(records)
        print(json.dumps({"aggregate": agg}), file=sys.stderr)
    else:
        text = records_to_jsonl(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tw", description="Exact anytime treewidth solver.")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[], help="solve an instance exactly (anytime)")
    ps.add_argument("file", help=".col or .gr file, or - for stdin")
    ps.add_argument("--time-limit", type=float, default=None, metavar="S")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--no-reduce", action="store_true", help="disable forced eliminations")
    ps.add_argument("--no-edge-add", action="store_true", help="disable forced edge addition")
    ps.add_argument(
        "--no-prune-sibling",
        action="store_true",
        help="disable the explored-sibling (neighborhood snapshot) filter",
    )
    ps.add_argument(
        "--no-prune-mutual",
        action="store_true",
        help="disable the mutually-simplifying candidate filter",
    )
    ps.add_argument(
        "--no-prune-fill",
        action="store_true",
        help="disable the dominated-fill-set candidate filter",
    )
    ps.add_argument(
        "--no-successor",
        action="store_true",
        help="branch on all vertices, not only non-neighbors of the last one",
    )
    ps.add_argument("--lb", choices=LB_KINDS, default="mmw")
    ps.add_argument("--ub", choices=sorted(UB_NAMES), default="minfill")
    ps.add_argument("--runs", type=int, default=100, help="upper-bound heuristic restarts")
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
    po.add_argument("--limit", type=int, default=14, help="max vertex count accepted")
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=_cmd_oracle)

    pg = sub.add_parser("gen", help="generate an instance in PACE .gr form")
    gsub = pg.add_subparsers(dest="family", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--m", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out")
    gr.set_defaults(func=_cmd_gen)
    gk = gsub.add_parser("pktree")
    gk.add_argument("--n", type=int, required=True)
    gk.add_argument("--k", type=int, required=True)
    gk.add_argument("--p", type=int, default=0)
    gk.add_argument("--seed", type=int, default=0)
    gk.add_argument("--out")
    gk.set_defaults(func=_cmd_gen)

    pn = sub.add_parser("bench", help="run a generated family and report records")
    bsub = pn.add_subparsers(dest="family", required=True)
    br = bsub.add_parser("random")
    br.add_argument("--n", type=int, required=True)
    br.add_argument("--m", type=int, required=True)
    bk = bsub.add_parser("pktree")
    bk.add_argument("--n", type=int, required=True)
    bk.add_argument("--k", type=int, required=True)
    bk.add_argument("--p", type=int, default=0)
    for b in (br, bk):
        b.add_argument("--count", type=int, default=30)
        b.add_argument("--seed0", type=int, default=0)
        b.add_argument("--seed", type=int, default=0, help="solver heuristic seed")
        b.add_argument("--time-limit", type=float, default=None)
        b.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        b.add_argument("--out")
        b.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ParseError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
