"""End-to-end acceptance suite.

Nine checks, one test each, covering: solver exactness against the
dynamic-programming oracle across every rule toggle, lower-bound
soundness and dominance statistics, named benchmark instances, generated
family statistics, the anytime contract on a hard instance, validity of
every emitted decomposition file, and answer preservation under the
reduction rules.  Each test prints one PASS line with its measurements.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from twbb import (
    Graph,
    HeuristicConfig,
    PartialKTreeSpec,
    RandomGraphSpec,
    SolverConfig,
    connected_components,
    gen_partial_ktree,
    gen_random,
    mcs_lb,
    min_fill_order,
    minor_min_width,
    minwidth_lb,
    mycielski,
    parse_dimacs_col,
    parse_pace_td,
    queen_graph,
    reduce_state,
    solve,
    validate_decomposition,
    width_of_order,
    write_pace_gr,
)
from twbb.cli import main as cli_main
from twbb.oracle import exact_treewidth

RUNS1 = HeuristicConfig("min-fill", runs=1, seed=0)

TOGGLES = (
    "reductions",
    "edge_addition",
    "prune_sibling_order",
    "prune_mutual_simplicial",
    "prune_fill_subset",
    "successor_restriction",
)

# .td files emitted by earlier tests, each paired with its graph, so the
# decomposition-validity test can re-check every artifact this suite wrote
TD_FILES: list[tuple[Graph, Path]] = []


def cycle5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def is_connected(g):
    return len(connected_components(g)) == 1


def random_connected(n, count, seed):
    rng = random.Random(seed)
    out = []
    max_m = n * (n - 1) // 2
    while len(out) < count:
        m = rng.randint(n - 1, max_m)
        g = gen_random(RandomGraphSpec(n, m, seed=rng.randrange(1 << 30)))
        if is_connected(g):
            out.append(g)
    return out


@pytest.fixture(scope="module")
def sweep():
    """All connected graphs on up to 6 vertices plus seeded random
    connected graphs at n = 7 and 8, each paired with its oracle treewidth."""
    graphs = []
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            if is_connected(g):
                graphs.append(g)
    assert len(graphs) == 27476  # labeled connected graphs, n = 1..6
    for n in (7, 8):
        graphs.extend(random_connected(n, 200, seed=1000 + n))
    return [(g, exact_treewidth(g).treewidth) for g in graphs]


@pytest.fixture(scope="module")
def td_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("emitted")


def test_01_exact_treewidth_on_small_graph_sweep(sweep):
    configs = [SolverConfig(ub_heuristic=RUNS1)]
    configs += [SolverConfig(ub_heuristic=RUNS1, **{t: False}) for t in TOGGLES]
    solves = 0
    for cfg in configs:
        for g, tw in sweep:
            r = solve(g, cfg)
            assert r.optimal and r.best_width == tw, (
                f"width {r.best_width} (optimal={r.optimal}) != oracle {tw} "
                f"on n={g.n} edges={sorted(g.edges())} cfg={cfg}"
            )
            solves += 1
    print(
        f"\nacceptance 1 PASS: {solves} solves over {len(sweep)} connected graphs "
        f"x {len(configs)} rule configurations, all equal to the oracle"
    )


def test_02_lower_bounds_never_exceed_treewidth(sweep):
    checked = 0
    for g, tw in sweep:
        assert minwidth_lb(g) <= tw
        assert mcs_lb(g) <= tw
        assert minor_min_width(g) <= tw
        checked += 1
    print(f"\nacceptance 2 PASS: 3 bounds x {checked} graphs, zero violations")


def test_03_contraction_bound_dominates_visit_bound():
    stats = []
    for m in (200, 400, 800):
        wins = 0
        diff_sum = 0
        for seed in range(200):
            g = gen_random(RandomGraphSpec(100, m, seed=seed))
            a = minor_min_width(g)
            b = mcs_lb(g)
            wins += a >= b
            diff_sum += a - b
        rate = wins / 200
        mean_diff = diff_sum / 200
        assert rate >= 0.90, f"m={m}: rate {rate} below 0.90"
        assert mean_diff > 0, f"m={m}: mean difference {mean_diff} not positive"
        stats.append(f"m={m}: rate {rate:.3f}, mean gap {mean_diff:.2f}")
    print(f"\nacceptance 3 PASS: {'; '.join(stats)}")


def _myciel(k):
    g = cycle5()
    for _ in range(k - 2):
        g = mycielski(g)
    return g


def _find_col(name):
    for base in (Path(__file__).parent / "data", Path(os.environ.get("TW_DIMACS_DIR", "."))):
        p = base / f"{name}.col"
        if p.is_file():
            return p
    return None


def _solve_instance_file(path, td_path, g):
    t0 = time.monotonic()
    code = cli_main(["solve", str(path), "--json", "--td", str(td_path)])
    wall = time.monotonic() - t0
    TD_FILES.append((g, td_path))
    return code, wall


def test_04_named_benchmark_instances(td_dir, capsys):
    named = [
        ("myciel3", _myciel(3), 5),
        ("myciel4", _myciel(4), 10),
        ("queen5-5", queen_graph(5), 18),
    ]
    details = []
    for name, g, want in named:
        src = td_dir / f"{name}.gr"
        src.write_text(write_pace_gr(g))
        code, wall = _solve_instance_file(src, td_dir / f"{name}.td", g)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["optimal"]
        assert payload["best_width"] == want, f"{name}: {payload['best_width']} != {want}"
        assert wall < 60, f"{name}: {wall:.1f}s exceeds 60s"
        details.append(f"{name}={want} ({wall:.2f}s)")
    print(f"\nacceptance 4 PASS (constructed): {', '.join(details)}")


def test_04_named_benchmark_files(td_dir, capsys):
    wanted = {"huck": 10, "jean": 9, "anna": 12}
    root_lb_equal = {"huck": 10, "jean": 9}
    missing = [n for n in wanted if _find_col(n) is None]
    if missing:
        pytest.skip(
            "criterion partially skipped, not passed: DIMACS coloring files "
            f"{', '.join(m + '.col' for m in missing)} not found in tests/data "
            "or $TW_DIMACS_DIR; fetch the public graph-coloring instances to "
            "enable these checks"
        )
    details = []
    for name, want in wanted.items():
        g = parse_dimacs_col(_find_col(name).read_text())
        code, wall = _solve_instance_file(_find_col(name), td_dir / f"{name}.td", g)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["optimal"] and payload["best_width"] == want
        assert wall < 60
        if name in root_lb_equal:
            assert minor_min_width(g) == root_lb_equal[name]
        details.append(f"{name}={want} ({wall:.2f}s)")
    print(f"\nacceptance 4 PASS (files): {', '.join(details)}")


def test_05_random_graph_family_statistics():
    t0 = time.monotonic()
    widths = []
    for seed in range(30):
        g = gen_random(RandomGraphSpec(25, 50, seed=seed))
        r = solve(g)
        assert r.optimal, f"seed {seed} not proven optimal"
        widths.append(r.best_width)
    total = time.monotonic() - t0
    mean = sum(widths) / len(widths)
    assert 5.3 <= mean <= 7.3, f"mean width {mean} outside [5.3, 7.3]"
    assert total < 600, f"family took {total:.0f}s, over 10 minutes"
    print(
        f"\nacceptance 5 PASS: 30/30 optimal, mean width {mean:.2f} "
        f"in [5.3, 7.3], total {total:.1f}s"
    )


def test_06_partial_ktree_family_statistics():
    widths = []
    for seed in range(30):
        g = gen_partial_ktree(PartialKTreeSpec(50, 10, 20, seed=seed))
        r = solve(g)
        assert r.best_width <= 10, f"seed {seed}: width {r.best_width} exceeds 10"
        widths.append(r.best_width)
    mean = sum(widths) / len(widths)
    assert 9.7 <= mean <= 10.3, f"mean width {mean} outside 10.0 +/- 0.3"
    for n, k in ((6, 2), (8, 3), (11, 4), (14, 5)):
        for seed in (1, 2):
            g = gen_partial_ktree(PartialKTreeSpec(n, k, 0, seed=seed))
            assert exact_treewidth(g).treewidth == k
            assert solve(g).best_width == k
    print(
        f"\nacceptance 6 PASS: all 30 widths <= 10, mean {mean:.2f}; "
        "full construction widths match the oracle exactly"
    )


def test_07_anytime_run_on_hard_instance(td_dir):
    g = gen_random(RandomGraphSpec(80, 1200, seed=0))
    src = td_dir / "hard.gr"
    src.write_text(write_pace_gr(g))
    td_path = td_dir / "hard.td"
    pkg_root = str(Path(sys.modules["twbb"].__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "twbb.cli",
            "solve",
            str(src),
            "--time-limit",
            "180",
            "--json",
            "--td",
            str(td_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 2, f"exit {proc.returncode}, stderr: {proc.stderr}"
    payload = json.loads(proc.stdout)
    assert not payload["optimal"]
    widths = [step["width"] for step in payload["anytime_trace"]]
    assert widths and widths == sorted(set(widths), reverse=True)
    for step in payload["anytime_trace"]:
        assert width_of_order(g, step["order"]) == step["width"]
    assert payload["best_width"] == widths[-1]
    TD_FILES.append((g, td_path))
    print(
        f"\nacceptance 7 PASS: exit 2 after 180s cap, trace {widths} strictly "
        f"decreasing, all {len(widths)} reported orders re-validate"
    )


def test_08_every_emitted_decomposition_validates(td_dir, capsys):
    battery = [
        ("c5", cycle5()),
        ("petersen-like", gen_random(RandomGraphSpec(10, 15, seed=3))),
        ("rand25", gen_random(RandomGraphSpec(25, 50, seed=0))),
        ("pktree", gen_partial_ktree(PartialKTreeSpec(30, 5, 20, seed=0))),
        ("edgeless", Graph(4, [])),
    ]
    for name, g in battery:
        src = td_dir / f"extra-{name}.gr"
        src.write_text(write_pace_gr(g))
        td_path = td_dir / f"extra-{name}.td"
        code = cli_main(["solve", str(src), "--td", str(td_path)])
        capsys.readouterr()
        assert code in (0, 2)
        TD_FILES.append((g, td_path))
    assert TD_FILES, "no decompositions were emitted"
    for g, path in TD_FILES:
        td, n = parse_pace_td(path.read_text())
        assert n == g.n
        report = validate_decomposition(g, td)
        assert report, f"{path.name}: {report.problem}"
    print(f"\nacceptance 8 PASS: {len(TD_FILES)} emitted .td files all validate")


def test_09_reductions_preserve_treewidth_on_sweep(sweep):
    reduced_away = 0
    for g, tw in sweep:
        lb = minor_min_width(g)
        ub = min_fill_order(g).width
        out = reduce_state(g, lb=lb, ub=ub)
        again = reduce_state(out.graph, g_value=out.g_value, lb=lb, ub=ub)
        assert not again.changed, f"not a fixed point on {sorted(g.edges())}"
        rest = exact_treewidth(out.graph).treewidth if len(out.graph) else 0
        assert max(out.g_value, rest) == tw, (
            f"answer changed: {max(out.g_value, rest)} != {tw} "
            f"on n={g.n} edges={sorted(g.edges())}"
        )
        reduced_away += len(out.forced_prefix)
    print(
        f"\nacceptance 9 PASS: fixed point and exact answer preservation on "
        f"{len(sweep)} graphs ({reduced_away} forced eliminations checked)"
    )
