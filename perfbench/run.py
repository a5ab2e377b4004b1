"""Benchmark for bumpless: one workload per invocation, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ideal_sweep --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for the reasons and the
layer-to-metric map):

- ``ideal_sweep``: cold-cache Buchberger sweep over whole groups.
- ``poly_identities``: polynomial recurrences and tiling identities.
- ``query_stream``: a closed loop of in-process CLI queries, one client,
  against a disk cache warmed by a separate set-up process.

Every phase runs in a fresh interpreter with its own empty
``BUMPLESS_CACHE_DIR`` under ``.perfbench-work/`` in the checkout, which
is removed on exit; the user's cache is never read or written.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of one traced run, plus the tracing overhead against an untraced one.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (both stdlib-only; the library is never imported here)
import tracer  # noqa: E402

WORKLOADS = ("ideal_sweep", "poly_identities", "query_stream")
SETUP_REPEATS = 3
OVERHEAD_PREFIX_S = 5.0
DEADLINE_S = 170.0
SELF_SUM_TOLERANCE = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("pass_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


class Runner:
    """Spawns worker phases inside one work directory, under one deadline."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self._n = 0

    def fresh_dir(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}-{self._n}"

    def spawn(self, mode: str, cache: Path, *extra: str) -> tuple[dict, float]:
        """Run one worker phase; returns its JSON result and its wall time."""
        out = self.fresh_dir("out").with_suffix(".json")
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(self.root / "src"),
            BUMPLESS_CACHE_DIR=str(cache),
            BUMPLESS_WORKERS="1",
            PYTHONHASHSEED="0",
        )
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            mode,
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--out",
            str(out),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before the {mode} phase")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} phase ran past the deadline") from None
        wall = time.monotonic() - start
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(
                f"{mode} phase exited with code {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(out.read_text()), wall


def nominal(result: dict) -> tuple[list[float], float]:
    """Per-case times and the phase's wall time, at nominal machine speed."""
    intervals = list(zip(result["starts"], result["times"]))
    intervals.append((result["start"], result["wall"]))
    durations = speed.nominal_durations(result["speed"], intervals)
    return durations[:-1], durations[-1]


def _summary(results: list[dict], setup: list[float]) -> tuple[dict, int, list[str]]:
    phases = [nominal(r) for r in results]
    times = [t for case_times, _ in phases for t in case_times]
    failures = [f for r in results for f in r["failures"]]
    wall = sum(w for _, w in phases)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": len(times) / wall,
        "case_p50_ms": statistics.median(times) * 1000.0,
        "case_p90_ms": deciles[8] * 1000.0,
        "pass_frac": (len(times) - len(failures)) / len(times),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024.0,
    }
    return metrics, len(times), failures


def measure_batch(run: Runner, seconds: float):
    """Set-up samples, then whole passes until ``seconds`` are measured."""
    setup = []
    for _ in range(SETUP_REPEATS):
        _, wall = run.spawn("ready", run.fresh_dir("cache"))
        setup.append(wall)
    results = []
    while not results or sum(r["wall"] for r in results) < seconds:
        result, _ = run.spawn("pass", run.fresh_dir("cache"))
        results.append(result)
    return _summary(results, setup)


def measure_stream(run: Runner, seconds: float):
    """Set-up replays into fresh caches, then the timed stream on the last."""
    queries = run.work / "queries.json"
    setup, replays = [], []
    for _ in range(SETUP_REPEATS):
        cache = run.fresh_dir("cache")
        result, wall = run.spawn("replay", cache, "--queries", str(queries))
        setup.append(wall)
        replays.append(result)
    timed, _ = run.spawn(
        "stream", cache, "--queries", str(queries), "--seconds", str(seconds)
    )
    metrics, attempted, failures = _summary([timed], setup)
    failures += [f for r in replays for f in r["failures"]]
    return metrics, attempted, failures


def trace_batch(run: Runner):
    """An untraced prefix of the pass, for the overhead, then a traced pass."""
    plain, _ = run.spawn(
        "pass", run.fresh_dir("cache"), "--seconds", str(OVERHEAD_PREFIX_S)
    )
    traced, _ = run.spawn("pass", run.fresh_dir("cache"), "--trace")
    return plain, traced


def overhead(plain: dict, traced: dict) -> float:
    """Traced over untraced nominal time of the cases both ran, minus one."""
    plain_times, _ = nominal(plain)
    traced_times, _ = nominal(traced)
    shared = len(plain_times)
    return sum(traced_times[:shared]) / sum(plain_times) - 1.0


def trace_stream(run: Runner, seconds: float):
    queries = run.work / "queries.json"
    cache = run.fresh_dir("cache")
    replay, _ = run.spawn("replay", cache, "--queries", str(queries))
    plain, _ = run.spawn(
        "stream", cache, "--queries", str(queries), "--seconds", str(seconds)
    )
    traced, _ = run.spawn(
        "stream",
        cache,
        "--queries",
        str(queries),
        "--count",
        str(len(plain["times"])),
        "--trace",
    )
    traced["failures"] = replay["failures"] + traced["failures"]
    return plain, traced


def self_test(workload: str, layers: dict) -> list[str]:
    """What a trace must show, or the tracer missed a call path."""
    problems = [
        f"tracer self-test: {name} is zero on {workload}"
        for name in tracer.HEADLINES[workload]
        if not layers[name]
    ]
    ratio = layers["trace.self_sum_ratio"]
    if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
        problems.append(
            f"tracer self-test: self times sum to {ratio:.4f} of the traced wall time"
        )
    if workload == "query_stream" and layers["cache.hit_ratio"] != 1.0:
        problems.append(
            f"warm cache missed: hit ratio {layers['cache.hit_ratio']:.4f} on the timed phase"
        )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bumpless" / "__init__.py").is_file():
        print(
            "error: run from the root of a bumpless checkout (no src/bumpless here)",
            file=sys.stderr,
        )
        return 2

    work_root = root / ".perfbench-work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    run = Runner(root, work, args.workload, args.seed)
    try:
        if args.trace:
            if args.workload == "query_stream":
                plain, traced = trace_stream(run, args.seconds)
            else:
                plain, traced = trace_batch(run)
            layers = traced["layers"]
            layers["trace.overhead_frac"] = overhead(plain, traced)
            failures = plain["failures"] + traced["failures"]
            attempted = len(plain["times"]) + len(traced["times"])
            problems = self_test(args.workload, layers)
            table = list(tracer.METRICS)
            metrics = layers
        else:
            if args.workload == "query_stream":
                metrics, attempted, failures = measure_stream(run, args.seconds)
            else:
                metrics, attempted, failures = measure_batch(run, args.seconds)
            problems = []
            table = list(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for msg in (failures + problems)[:20]:
        print(f"FAIL {msg}")
    print(f"workload {args.workload}  seed {args.seed}  cases {attempted}")
    if not args.trace:
        print(f"{'failed_frac':36s} {len(failures) / attempted:.6f} ratio")
    for name, unit in table:
        print(f"{name:36s} {metrics[name]:.6g} {unit}")
    correct = not failures and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in table
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
