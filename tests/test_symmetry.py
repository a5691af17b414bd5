"""Automorphism detection: every result is an automorphism, and small
groups are found whole."""

import itertools
import random
import time

import pytest
from conftest import complete_bipartite, cycle, grid, induced, myciel, petersen, shuffled
from twbb import Graph, RandomGraphSpec, gen_random, queen_graph
from twbb import symmetry
from twbb.symmetry import AUTOMORPHISMS, automorphisms


def checked(g):
    """g's automorphisms, after checking each maps edges onto edges and
    fixes the inactive ids, none is the identity and none repeats."""
    autos = automorphisms(g)
    edges = set(g.edges())
    active = set(g.vertices)
    for sigma in autos:
        assert len(sigma) == g.n and sorted(sigma) == list(range(g.n))
        assert sigma != tuple(range(g.n))
        assert {sigma[v] for v in active} == active
        assert all(sigma[v] == v for v in range(g.n) if v not in active)
        assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges
    assert len(set(autos)) == len(autos)
    assert automorphisms(g) == autos
    return autos


def group_order(g):
    vs = g.vertices
    edges = set(g.edges())
    count = 0
    for image in itertools.permutations(vs):
        sigma = dict(zip(vs, image))
        count += all(tuple(sorted((sigma[u], sigma[v]))) in edges for u, v in edges)
    return count


def test_small_groups_are_found_whole():
    rng = random.Random(30)
    for _ in range(200):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        p = rng.random()
        g = Graph(n, [e for e in pairs if rng.random() < p])
        if n > 2 and rng.random() < 0.3:
            g = induced(g, rng.sample(range(n), rng.randint(1, n)))
        assert len(checked(g)) + 1 == min(group_order(g), AUTOMORPHISMS + 1), g.edges()


@pytest.mark.parametrize(
    "g,order",
    [(cycle(n), 2 * n) for n in (3, 5, 8, 16)]
    + [
        (shuffled(grid(4, 4), 1), 8),
        (queen_graph(5), 8),
        (myciel(3), 10),
        (myciel(4), 10),
        (complete_bipartite(2, 3), 12),
    ],
    ids=["c3", "c5", "c8", "c16", "grid44", "queen5", "myciel3", "myciel4", "k23"],
)
def test_known_groups(g, order):
    assert len(checked(g)) + 1 == order


def test_a_large_group_stops_at_the_cap():
    # Petersen's group has 120 elements
    assert len(checked(petersen())) == AUTOMORPHISMS


def test_asymmetric_graphs_give_none():
    # the G(25,50) graphs of the benchmark's exact-small workload
    for seed in (5, 6, 10, 12, 17, 19, 20, 22, 24, 26, 28):
        assert checked(gen_random(RandomGraphSpec(25, 50, seed))) == []


def test_a_stop_that_fires_at_once_gives_none():
    assert automorphisms(queen_graph(5), stop=lambda: True) == []


def test_a_cut_budget_gives_a_prefix(monkeypatch):
    # the first refinement of Petersen finds nothing; a larger budget
    # finds more, and whatever is found is checked
    full = automorphisms(petersen())
    found = []
    for budget in range(1, 40):
        monkeypatch.setattr(symmetry, "REFINEMENTS", budget)
        autos = checked(petersen())
        assert autos == full[: len(autos)]
        found.append(len(autos))
    assert found[0] == 0 and found == sorted(found) and found[-1] == len(full)


def test_a_large_grid_is_fast():
    # The shuffled 50 x 50 grid of the deadline tests: its 7 automorphisms
    # take 0.12 s (2-core Xeon, Python 3.11), so the 1.0 s bound leaves a
    # margin of 8x.  Refining by rounds, every signature recomputed until
    # the colouring is stable, took 2.9 s here.
    g = shuffled(grid(50, 50), 0)
    t0 = time.perf_counter()
    autos = automorphisms(g)
    elapsed = time.perf_counter() - t0
    assert len(autos) == 7
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def random_cubic(n, seed):
    """A random 3-regular simple graph, by pairing 3n endpoints."""
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = {tuple(sorted(ends[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph(n, edges)


def test_a_large_regular_graph_is_fast():
    # Degrees split nothing here, so the search tries the other vertices
    # of the one cell against the first until its refinement budget runs
    # out.  A refinement that gives up once its splits depart from the
    # first vertex's returns [] after 0.3 s; refining each to the end took
    # 4.8 s (2-core Xeon, Python 3.11).  The 2 s bound is 6x the one and
    # under half the other.
    g = random_cubic(2000, 1)
    t0 = time.perf_counter()
    assert automorphisms(g) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f} s"
