#!/usr/bin/env python3
"""Benchmark for the twbb solver pipeline: end-to-end metrics and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py                       # all workloads, end to end
    python3 perfbench/run.py --trace 1             # all workloads, per layer
    python3 perfbench/run.py --workload exact-small --seed 1 --trace 0

Each workload runs in a process of its own.  Every instance goes through
``twbb.cli.main(["solve", f.gr, "--json", "--td", f.td])`` in-process, so a
pass covers parsing, solving, building, validating and writing the
decomposition.  After an untimed warm-up pass the benchmark repeats passes
for run_seconds (BENCHMARK.json) and reports medians; every result is checked
(see workloads.check) and counted in "failed".  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact-small", "ub-pktree", "anytime-hard")
# The seed the benchmark runs by default, and a second one that a claimed
# gain must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 15
MIN_PASSES = 2
# The speed sampler runs calibrate() this often during a pass (and, more
# often, during a set-up probe); a pass or probe too short for this many
# samples gets the rest right after it.
SAMPLE_INTERVAL_S = 0.25
PROBE_SAMPLE_INTERVAL_S = 0.02
MIN_CAL_SAMPLES = 8
MIN_PROBE_CAL_SAMPLES = 4
# An instance is scaled by the samples taken while it ran, or by this many
# samples nearest to it when it ran for less than that.
NEAREST_SAMPLES = 4
# Median calibrate() time that reported times are scaled to; close to what
# it takes on the 2-core Xeon the workloads were sized on.
REFERENCE_CAL_S = 0.005


@dataclass
class Outcome:
    """One instance through the pipeline, after the correctness gate."""

    name: str
    latency: float
    speed: float  # speed factor of the samples nearest the instance
    width: int | None = None
    lb: int | None = None
    optimal: bool = False
    nodes: int | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    outcomes: list[Outcome]
    layers: dict | None = None
    spans: dict | None = None

    @property
    def wall(self) -> float:
        return sum(o.latency for o in self.outcomes)

    @property
    def speed(self) -> float:
        """The pass's own speed factor: its scaled wall over its wall."""
        return sum(o.latency * o.speed for o in self.outcomes) / self.wall


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile, which never interpolates between instances."""
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


# -- machine speed --------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key = key
        self.rank = rank


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that does not use twbb.

    Its mix resembles the solver's: bitmask arithmetic, list copies,
    small objects and dict stores.  The garbage collector is off while it
    runs, so that the size of the heap around it does not change its time.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        if gc_was_on:
            gc.enable()


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    adj = [((i * 2654435761) >> 3) & ((1 << 40) - 1) for i in range(40)]
    cells = {}
    acc = 0
    for r in range(280):
        a = list(adj)
        nb = a[r % 40]
        rest = nb
        while rest:
            low = rest & -rest
            u = (low.bit_length() - 1) % 40
            rest ^= low
            a[u] = (a[u] | nb) & ~low
            acc ^= (a[u] | acc).bit_count()
        cells[r & 127] = _Cell(tuple(a[:3]), len(cells))
        adj = [x ^ (r * 40503 & 0xFFFF) for x in a]
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs calibrate() every `interval` seconds, from SIGALRM, while entered.

    On a shared machine the speed of one core drifts by a quarter within
    a minute, and samples taken only between instances miss what happens
    during a long one.  Sampled inside the pipeline, the loop slows down
    with it, so times are reported scaled to REFERENCE_CAL_S.  `stolen`
    is the time the samples took, which the caller subtracts.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (when, calibrate() seconds)
        self.stolen = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, calibrate()))
        self.stolen += time.perf_counter() - t0

    def top_up(self, n: int) -> None:
        """Take samples now until there are n, for a span too short to hold them."""
        while len(self.samples) < n:
            self._sample()

    def speed(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """What a time measured in the window [t0, t1] is multiplied by to
        give it at the reference speed.  It uses the samples taken in the
        window, or the NEAREST_SAMPLES nearest to it if it holds fewer."""

        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)

        nearest = sorted(self.samples, key=distance)
        inside = sum(1 for x in nearest if distance(x) == 0.0)
        return REFERENCE_CAL_S / statistics.median(c for _, c in nearest[: max(inside, NEAREST_SAMPLES)])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scaled(value: float, unit: str, speed: float) -> float:
    """A measured time (or rate) at the reference speed."""
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


# -- set-up -------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> dict:
    """Import the package, make the inputs and write them.

    Runs in a fresh interpreter so that the import is really timed, with
    its own speed samples taken while it works.  Returns the seconds it
    took, less the time the samples took, and its speed factor.
    """
    workdir = BENCH_DIR / "work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with SpeedSampler(PROBE_SAMPLE_INTERVAL_S) as sampler:
            t0 = time.perf_counter()
            import twbb.cli  # noqa: F401  (the pipeline's own imports)
            import workloads

            workloads.write_inputs(workloads.WORKLOADS[workload].make(seed), workdir)
            seconds = time.perf_counter() - t0 - sampler.stolen
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sampler.top_up(MIN_PROBE_CAL_SAMPLES)
    return {"s": seconds, "speed": sampler.speed()}


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up probes in SETUP_REPEATS fresh processes."""
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


# -- passes -------------------------------------------------------------------


def run_pass(wl, instances, inputs, tracer=None) -> Pass:
    """Send every instance through the CLI pipeline, then check the results.

    Latencies exclude the time the speed samples took, and each
    instance gets the speed factor of the samples nearest to it.
    """
    import twbb.cli

    raw = []
    with SpeedSampler() as sampler, tracer or contextlib.nullcontext():
        for inst, gr in zip(instances, inputs):
            buf = io.StringIO()
            td = gr.with_suffix(".td")
            argv = ["solve", str(gr), "--json", "--td", str(td), *wl.solve_args]
            stolen = sampler.stolen
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = twbb.cli.main(argv)
            except Exception as exc:  # a crash fails this instance, not the run
                code, buf = None, io.StringIO(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            latency = t1 - t0 - (sampler.stolen - stolen)
            raw.append((inst, code, buf.getvalue(), latency, (t0, t1), td))
    sampler.top_up(MIN_CAL_SAMPLES)
    raw = [(inst, code, out, latency, sampler.speed(*window), td)
           for inst, code, out, latency, window, td in raw]
    p = Pass(checked(wl, raw))
    if tracer is not None:
        p.layers, p.spans = tracer.metrics(), tracer.spans()
    return p


def checked(wl, raw) -> list[Outcome]:
    import workloads

    outcomes = []
    for inst, code, stdout, latency, speed, td_path in raw:
        o = Outcome(inst.name, latency, speed)
        outcomes.append(o)
        if code is None:
            o.problems.append(f"crashed: {stdout}")
            continue
        try:
            out = json.loads(stdout)
            o.width, o.lb = out["best_width"], out["proven_lb"]
            o.optimal, o.nodes = out["optimal"], out["nodes_expanded"]
        except (json.JSONDecodeError, KeyError) as exc:
            o.problems.append(f"exit {code}, unreadable --json output: {exc!r}")
            continue
        o.problems = workloads.check(wl, inst, code, out, td_path)
    return outcomes


def timed_passes(wl, instances, inputs, seconds: float, trace: bool) -> tuple[Pass, list[Pass], list[Pass]]:
    """An untimed warm-up pass, then untraced passes (alternating with
    traced ones when trace is set) until seconds have gone by."""
    import layers

    warm = run_pass(wl, instances, inputs)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    need_traced = (2 if wl.deterministic else 1) if trace else 0
    need_untraced = 1 if trace else MIN_PASSES
    t_start = time.perf_counter()
    while (
        time.perf_counter() - t_start < seconds
        or len(untraced) < need_untraced
        or len(traced) < need_traced
    ):
        if trace and len(traced) < len(untraced):
            traced.append(run_pass(wl, instances, inputs, layers.Tracer()))
        else:
            untraced.append(run_pass(wl, instances, inputs))
    return warm, untraced, traced


def count_problems(wl, passes: list[Pass], traced: list[Pass]) -> list[str]:
    """Counts that must repeat exactly between runs of one seed."""
    if not wl.deterministic:
        return []
    import layers

    problems = []
    nodes = {tuple(o.nodes for o in p.outcomes) for p in passes}
    if len(nodes) > 1:
        problems.append(f"per-instance node counts differ between passes: {sorted(nodes)}")
    for name in layers.COUNT_METRICS:
        seen = {p.layers[name] for p in traced}
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(seen)}")
    return problems


def median(values):
    """Median that stays whole for counts: median_low picks an observed value."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(units, probes, untraced, traced, peak_rss_mb, scale):
    """Metric values.  With scale, each time is first scaled by the speed
    measured while it ran: that of its own pass or set-up probe."""

    def at(value, unit, speed):
        return scaled(value, unit, speed) if scale else value

    walls = [at(p.wall, "s", p.speed) for p in untraced]
    # One latency per instance, its median over the passes, so that one
    # slow pass cannot move a percentile.
    latencies = [
        statistics.median(at(p.outcomes[i].latency, "s", p.outcomes[i].speed) for p in untraced)
        for i in range(len(untraced[0].outcomes))
    ]
    out = {
        "setup_s": statistics.median(at(p["s"], "s", p["speed"]) for p in probes),
        "wall_s": statistics.median(walls),
        "instance_p50_s": percentile(latencies, 50),
        "instance_p95_s": percentile(latencies, 95),
        "width_sum": median(sum(o.width or 0 for o in p.outcomes) for p in untraced),
        "lb_sum": median(sum(o.lb or 0 for o in p.outcomes) for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        for m in traced[0].layers:
            out[m] = median(at(p.layers[m], units.get(m, "count"), p.speed) for p in traced)
        traced_wall = statistics.median(at(p.wall, "s", p.speed) for p in traced)
        out["trace.overhead_s"] = traced_wall - out["wall_s"]
    return out


# -- one workload ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    spec = _spec()
    probes = measure_setup(name, seed)

    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = BENCH_DIR / "work" / f"{name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        instances = wl.make(seed)
        inputs = workloads.write_inputs(instances, workdir)
        warm, untraced, traced = timed_passes(wl, instances, inputs, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    every = [warm, *untraced, *traced]
    outcomes = [o for p in every for o in p.outcomes]
    failures = [(o.name, msg) for o in outcomes for msg in o.problems]
    failed = sum(1 for o in outcomes if o.problems)
    repeat_problems = count_problems(wl, every, traced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = summarize(units, probes, untraced, traced, peak_rss_mb, scale=False)
    values = summarize(units, probes, untraced, traced, peak_rss_mb, scale=True)

    timed = [o for p in untraced for o in p.outcomes]
    extras = {
        "optimal_frac": sum(o.optimal for o in timed) / len(timed),
        "gap_sum": median(sum((o.width or 0) - (o.lb or 0) for o in p.outcomes) for p in untraced),
        "failed_frac": failed / len(outcomes),
        "instance_p50_s": values["instance_p50_s"],
        "instances_per_pass": len(instances),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "setup_probes_s": [p["s"] for p in probes],
        "setup_probe_speeds": [p["speed"] for p in probes],
        "pass_walls_s": [p.wall for p in untraced],
        "pass_speeds": [p.speed for p in untraced],
        "traced_pass_walls_s": [p.wall for p in traced],
        "traced_pass_speeds": [p.speed for p in traced],
    }
    if trace:
        # Informational: the first is 0 on every workload so far, and the
        # second can be negative, so neither is a per_layer metric.
        extras["heuristics.restart_win_ratio"] = values["heuristics.restart_win_ratio"]
        extras["trace.overhead_s"] = values["trace.overhead_s"]
        extras["trace_overhead_ratio"] = values["trace.overhead_s"] / values["wall_s"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures and not repeat_problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "result": result, "measured_unscaled": measured, "extras": extras,
        "instances": [o.__dict__ for o in untraced[0].outcomes],
        "spans": traced[0].spans if traced else None,
        "failures": failures[:50], "repeat_problems": repeat_problems,
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(
        f"{name} seed={seed} trace={int(trace)}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes after one warm-up pass, {len(instances)} instances "
        f"a pass; each instance latency is a median of {len(untraced)}; each instance is scaled "
        f"by the speed samples nearest it, and a pass's span times by the pass's own factor "
        f"(median {statistics.median(extras['pass_speeds']):.3f})"
    )
    for m, v in metrics.items():
        print(f"  {m:36s} {v['value']:<12.6g} {v['unit']:6s} (unscaled {measured[m]:.6g})")
    print(
        f"  also: instance_p50_s {values['instance_p50_s']:.6g} s, "
        f"optimal_frac {extras['optimal_frac']:.3f}, gap_sum {extras['gap_sum']:g}, "
        f"failed_frac {extras['failed_frac']:.3f} ({failed} of {len(outcomes)})"
    )
    if trace:
        print(
            f"  also: heuristics.restart_win_ratio {extras['heuristics.restart_win_ratio']:.6g}, "
            f"trace.overhead_s {extras['trace.overhead_s']:.6g} s "
            f"({extras['trace_overhead_ratio']:.1%} of untraced wall_s)"
        )
    for inst, msg in failures[:20]:
        print(f"FAILED {inst}: {msg}", file=sys.stderr)
    for msg in repeat_problems:
        print(f"NOT REPEATED {msg}", file=sys.stderr)
    print(f"  full record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


# -- all workloads ----------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a process of its own, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}/{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics instead of end-to-end ones")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    try:
        import twbb
    except ImportError as exc:
        print(f"error: cannot import twbb from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(twbb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: twbb was imported from {twbb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
