"""Instance generators and the benchmark harness."""

import csv
import io
import json

import pytest
from conftest import clique
from twbb import (
    Graph,
    GraphError,
    HeuristicConfig,
    PartialKTreeSpec,
    RandomGraphSpec,
    SolverConfig,
    gen_partial_ktree,
    gen_random,
    mycielski,
    queen_graph,
)
from twbb.bench import (
    FIELDS,
    aggregate,
    config_hash,
    records_to_csv,
    records_to_jsonl,
    run_family,
)
from twbb.oracle import exact_treewidth


def ktree_edges(n, k):
    return k * (k + 1) // 2 + (n - k - 1) * k


def test_gen_random_counts_and_determinism():
    spec = RandomGraphSpec(20, 35, seed=7)
    g = gen_random(spec)
    assert g.n == 20 and g.num_edges() == 35
    assert gen_random(spec) == g
    assert gen_random(RandomGraphSpec(20, 35, seed=8)) != g
    assert gen_random(RandomGraphSpec(4, 6)) == clique(4)
    assert gen_random(RandomGraphSpec(3, 0)).num_edges() == 0


def test_random_spec_validation():
    with pytest.raises(GraphError):
        RandomGraphSpec(-1, 0)
    with pytest.raises(GraphError):
        RandomGraphSpec(4, 7)
    with pytest.raises(GraphError):
        RandomGraphSpec(4, -1)


def test_pktree_spec_validation():
    with pytest.raises(GraphError):
        PartialKTreeSpec(3, 3, 0)
    with pytest.raises(GraphError):
        PartialKTreeSpec(10, -1, 0)
    with pytest.raises(GraphError):
        PartialKTreeSpec(10, 3, 101)
    with pytest.raises(GraphError):
        PartialKTreeSpec(10, 3, -5)


def test_full_ktree_treewidth_is_k():
    for n, k in ((5, 2), (8, 3), (10, 4), (12, 3), (5, 4)):
        g = gen_partial_ktree(PartialKTreeSpec(n, k, 0, seed=n * 31 + k))
        assert g.num_edges() == ktree_edges(n, k)
        assert exact_treewidth(g).treewidth == k
    assert gen_partial_ktree(PartialKTreeSpec(5, 4, 0)) == clique(5)


def test_pktree_removal_count():
    full = ktree_edges(12, 3)
    g = gen_partial_ktree(PartialKTreeSpec(12, 3, 25, seed=4))
    assert g.num_edges() == full - full * 25 // 100
    empty = gen_partial_ktree(PartialKTreeSpec(6, 2, 100, seed=1))
    assert empty.num_edges() == 0
    spec = PartialKTreeSpec(12, 3, 25, seed=4)
    assert gen_partial_ktree(spec) == g


def test_mycielski():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    my3 = mycielski(c5)
    assert my3.n == 11 and my3.num_edges() == 20
    # construction preserves triangle-freeness
    for u, v in my3.edges():
        assert (my3._adj[u] & my3._adj[v]) == 0
    # the Mycielskian of a single edge is the 5-cycle
    m = mycielski(Graph(2, [(0, 1)]))
    assert m.n == 5 and m.num_edges() == 5
    assert all(m.degree(v) == 2 for v in m.vertices)
    assert exact_treewidth(m).treewidth == 2


def test_queen_graphs():
    assert queen_graph(1).n == 1
    assert queen_graph(2) == clique(4)
    q = queen_graph(2, 3)
    assert q.n == 6 and q.num_edges() == 13
    q5 = queen_graph(5)
    assert q5.n == 25 and q5.num_edges() == 160


def test_run_family_records():
    records = list(run_family(RandomGraphSpec(8, 12), count=3, seed0=5))
    assert [r.instance for r in records] == [
        "random-n8-m12-s5",
        "random-n8-m12-s6",
        "random-n8-m12-s7",
    ]
    for r in records:
        assert r.n == 8 and r.m == 12
        assert r.optimal and r.proven_lb == r.best_width
        assert max(r.mw, r.mcslb, r.mmw) <= r.best_width <= r.mf_width
        assert len(r.config) == 12
    kt = next(iter(run_family(PartialKTreeSpec(8, 3, 0), count=1, seed0=2)))
    assert kt.instance == "pktree-n8-k3-p0-s2"
    assert kt.best_width == 3
    with pytest.raises(TypeError):
        list(run_family(object(), count=1))


def test_config_hash():
    a = config_hash(SolverConfig())
    assert a == config_hash(SolverConfig())
    assert a != config_hash(SolverConfig(reductions=False))
    reseeded = HeuristicConfig("min-fill", runs=100, seed=1)
    assert a != config_hash(SolverConfig(ub_heuristic=reseeded))


def test_aggregate():
    records = list(run_family(RandomGraphSpec(7, 10), count=4))
    agg = aggregate(records)
    assert agg["count"] == 4
    assert agg["mean_width"] == sum(r.best_width for r in records) / 4
    assert agg["optimal_rate"] == 1.0
    assert agg["config"] == records[0].config
    assert aggregate([]) == {"count": 0}


def test_csv_output():
    records = list(run_family(RandomGraphSpec(7, 10), count=2))
    text = records_to_csv(records)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == ",".join(FIELDS)
    assert len(rows) == 2
    assert rows[0]["instance"] == "random-n7-m10-s0"
    assert int(rows[0]["best_width"]) == records[0].best_width


def test_jsonl_output():
    records = list(run_family(RandomGraphSpec(7, 10), count=2))
    lines = records_to_jsonl(records).splitlines()
    assert len(lines) == 3
    assert set(json.loads(lines[0])) == set(FIELDS)
    assert json.loads(lines[-1]) == {"aggregate": aggregate(records)}
