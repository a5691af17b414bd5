"""Benchmark harness: run the solver over generated instance families.

A family is a generator spec repeated over consecutive seeds.  Each
instance yields one record with the solver outcome, the deterministic
min-fill width, and the paired lower bounds, all tagged with a hash of
the configuration so results stay attributable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, fields

from .bounds import mcs_lb, minor_min_width, minwidth_lb
from .generators import (
    PartialKTreeSpec,
    RandomGraphSpec,
    gen_partial_ktree,
    gen_random,
)
from .heuristics import min_fill_order
from .solver import SolverConfig, solve

__all__ = ["BenchRecord", "aggregate", "records_to_csv", "records_to_jsonl", "run_family"]

@dataclass(frozen=True)
class BenchRecord:
    """One solved instance; `config` is the solver-config hash."""

    instance: str
    n: int
    m: int
    best_width: int
    proven_lb: int
    mf_width: int
    optimal: bool
    nodes: int
    elapsed: float
    mw: int
    mcslb: int
    mmw: int
    config: str


FIELDS = tuple(f.name for f in fields(BenchRecord))


def config_hash(cfg: SolverConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _instances(spec, count: int, seed0: int):
    if isinstance(spec, RandomGraphSpec):
        for i in range(count):
            s = RandomGraphSpec(spec.n, spec.m, seed0 + i)
            yield f"random-n{s.n}-m{s.m}-s{s.seed}", gen_random(s)
    elif isinstance(spec, PartialKTreeSpec):
        for i in range(count):
            s = PartialKTreeSpec(spec.n, spec.k, spec.p, seed0 + i)
            yield f"pktree-n{s.n}-k{s.k}-p{s.p}-s{s.seed}", gen_partial_ktree(s)
    else:
        raise TypeError(f"unknown family spec: {spec!r}")


def run_family(spec, count: int = 30, seed0: int = 0, cfg: SolverConfig | None = None):
    """Yield one BenchRecord per instance, in instance order."""
    cfg = cfg or SolverConfig()
    tag = config_hash(cfg)
    for name, g in _instances(spec, count, seed0):
        report = solve(g, cfg)
        mf = min_fill_order(g).width or 0
        yield BenchRecord(
            instance=name,
            n=g.n,
            m=g.num_edges(),
            best_width=report.best_width,
            proven_lb=report.proven_lb,
            mf_width=mf,
            optimal=report.optimal,
            nodes=report.nodes_expanded,
            elapsed=round(report.elapsed, 6),
            mw=minwidth_lb(g),
            mcslb=mcs_lb(g),
            mmw=minor_min_width(g),
            config=tag,
        )


def aggregate(records: list[BenchRecord]) -> dict:
    """Means across a family, mirroring one benchmark table row."""
    if not records:
        return {"count": 0}
    count = len(records)
    return {
        "count": count,
        "mean_width": sum(r.best_width for r in records) / count,
        "mean_lb": sum(r.proven_lb for r in records) / count,
        "mean_mf": sum(r.mf_width for r in records) / count,
        "mean_nodes": sum(r.nodes for r in records) / count,
        "mean_elapsed": sum(r.elapsed for r in records) / count,
        "optimal_rate": sum(1 for r in records if r.optimal) / count,
        "config": records[0].config,
    }


def records_to_csv(records: list[BenchRecord]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow(asdict(r))
    return out.getvalue()


def records_to_jsonl(records: list[BenchRecord]) -> str:
    lines = [json.dumps(asdict(r), sort_keys=True) for r in records]
    lines.append(json.dumps({"aggregate": aggregate(records)}, sort_keys=True))
    return "\n".join(lines) + "\n"
