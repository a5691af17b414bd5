"""Workload inputs and the correctness gate for every solved instance.

Every input is a pure function of the workload seed.  README.md gives the
reason for each workload; the comments here only say how inputs are made.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from twbb.decomposition import validate_decomposition
from twbb.formats import parse_pace_td, write_pace_gr
from twbb.generators import (
    PartialKTreeSpec,
    RandomGraphSpec,
    gen_partial_ktree,
    gen_random,
    mycielski,
    queen_graph,
)
from twbb.graph import Graph, GraphError, width_of_order

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Treewidths from the literature (DIMACS coloring instances).
LITERATURE = {"myciel3": 5, "myciel4": 10, "queen5-5": 18}

# G(25,50) graphs of the acceptance-5 family (sub-seeds 0..29) whose solve
# at the seed commit expanded between 100 and 2000 nodes.  Trivial graphs
# only exercise the heuristic; sub-seeds 0 and 15 (5748 and 4613 nodes)
# take 1.7 s to 10.7 s depending on vertex labels and would make one
# graph decide a pass.
RANDOM_SUBSEEDS = (5, 6, 10, 12, 17, 19, 20, 22, 24, 26, 28)

PKTREE_N, PKTREE_K, PKTREE_P, PKTREE_COUNT = 50, 10, 20, 5
HARD_N, HARD_M, HARD_TIME_LIMIT = 80, 1200, 3


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list[Instance]]  # seed -> instances
    solve_args: tuple[str, ...]
    exact: bool  # every instance must be proven optimal (exit code 0)
    deterministic: bool  # counts repeat exactly for one seed


def _myciel(k: int) -> Graph:
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    for _ in range(k - 2):
        g = mycielski(g)
    return g


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def exact_small(seed: int) -> list[Instance]:
    # The graphs are fixed and the seed relabels their vertices, which
    # changes every tie the heuristic and the search break by vertex id
    # but not the treewidth.
    base = [("myciel3", _myciel(3)), ("myciel4", _myciel(4)), ("queen5-5", queen_graph(5))]
    base += [
        (f"rand-n25-m50-s{s}", gen_random(RandomGraphSpec(25, 50, seed=s)))
        for s in RANDOM_SUBSEEDS
    ]
    return [Instance(name, _relabel(g, random.Random(f"{seed}:{name}"))) for name, g in base]


def ub_pktree(seed: int) -> list[Instance]:
    rng = random.Random(f"ub-pktree:{seed}")
    out = []
    for _ in range(PKTREE_COUNT):
        spec = PartialKTreeSpec(PKTREE_N, PKTREE_K, PKTREE_P, seed=rng.randrange(1 << 31))
        name = f"pktree-n{spec.n}-k{spec.k}-p{spec.p}-s{spec.seed}"
        out.append(Instance(name, gen_partial_ktree(spec)))
    return out


def anytime_hard(seed: int) -> list[Instance]:
    spec = RandomGraphSpec(HARD_N, HARD_M, seed=random.Random(f"anytime-hard:{seed}").randrange(1 << 31))
    return [Instance(f"rand-n{spec.n}-m{spec.m}-s{spec.seed}", gen_random(spec))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-small", exact_small, (), exact=True, deterministic=True),
        Workload("ub-pktree", ub_pktree, (), exact=True, deterministic=True),
        Workload(
            "anytime-hard",
            anytime_hard,
            ("--time-limit", str(HARD_TIME_LIMIT)),
            exact=False,
            deterministic=False,
        ),
    )
}


def write_inputs(instances: list[Instance], directory: Path) -> list[Path]:
    paths = []
    for inst in instances:
        path = directory / f"{inst.name}.gr"
        path.write_text(write_pace_gr(inst.graph))
        paths.append(path)
    return paths


def check(workload: Workload, inst: Instance, exit_code: int, out: dict, td_path: Path) -> list[str]:
    """Problems with one pipeline result, given its `tw solve --json`
    output; an empty list means it passed."""
    width, lb = out["best_width"], out["proven_lb"]
    problems = []
    if exit_code != (0 if out["optimal"] else 2):
        problems.append(f"exit {exit_code} with optimal={out['optimal']}")
    if workload.exact and not out["optimal"]:
        problems.append("not proven optimal")
    if not lb <= width:
        problems.append(f"proven_lb {lb} > best_width {width}")
    try:
        if width_of_order(inst.graph, out["best_order"]) != width:
            problems.append("best_order width differs from best_width")
        td, n = parse_pace_td(td_path.read_text())
    except (GraphError, ValueError, OSError, KeyError) as exc:
        return problems + [f"{type(exc).__name__}: {exc}"]
    if n != inst.graph.n:
        problems.append(f".td declares n={n}, graph has {inst.graph.n}")
    report = validate_decomposition(inst.graph, td)
    if not report:
        problems.append(f"written .td is invalid: {report.problem}")
    if td.width != width:
        problems.append(f".td width {td.width} != best_width {width}")
    expected = LITERATURE.get(inst.name, REFERENCE["widths"].get(inst.name))
    if expected is not None and width != expected:
        problems.append(f"width {width}, reference {expected}")
    if expected is not None and lb > expected:
        problems.append(f"proven_lb {lb} > reference width {expected}")
    if workload.name == "ub-pktree":
        # A partial k-tree has treewidth at most k, so a larger width is
        # not optimal and a larger proven_lb is an unsound proof.
        if width > PKTREE_K:
            problems.append(f"width {width} > k={PKTREE_K}")
        if lb > PKTREE_K:
            problems.append(f"proven_lb {lb} > k={PKTREE_K}, an upper bound on the treewidth")
    return problems
