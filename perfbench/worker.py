"""One phase of one workload, in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and ``BUMPLESS_CACHE_DIR`` at a directory the benchmark owns.  Modes:

- ``ready``: import the library and build the case list, then exit.
  Its wall time, interpreter start included, is one set-up sample.
- ``pass``: run every case of a batch workload once, or, with
  ``--seconds``, start no case after that many seconds.
- ``replay``: build the query pool, write it out, and run each query
  once against the (empty) cache, filling it.
- ``stream``: run the seeded query stream against a warm cache for
  ``--seconds`` and at least ``MIN_QUERIES`` queries, or for exactly
  ``--count`` queries.

``--trace`` installs the tracer before the workload module is imported.
Results go to ``--out`` as JSON.

While ``pass`` and ``stream`` measure, ``speed.Speedometer`` samples the
machine's speed; ``run.py`` turns the raw times into nominal ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracer_mod


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _attempt(run, item, failures: list) -> None:
    try:
        msg = run(item)
    except Exception as exc:  # a crash is a failed case, not a dead benchmark
        msg = f"{item}: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    if msg is not None:
        failures.append(msg)


def _timed(items, run, tracer, stop=None) -> dict:
    """Run items in order, timing each, until ``stop(done, elapsed)``."""
    starts: list[float] = []
    times: list[float] = []
    failures: list[str] = []
    with speed.Speedometer() as meter:
        start = perf_counter()
        for item in items:
            if stop is not None and stop(len(times), perf_counter() - start):
                break
            t0 = perf_counter()
            starts.append(t0)
            if tracer is None:
                _attempt(run, item, failures)
            else:
                tracer.case(_attempt, run, item, failures)
            times.append(perf_counter() - t0)
        wall = perf_counter() - start
    return {
        "start": start,
        "starts": starts,
        "times": times,
        "failures": failures,
        "wall": wall,
        "speed": meter.samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("ready", "pass", "replay", "stream"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--queries", type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cache_dir = Path(os.environ["BUMPLESS_CACHE_DIR"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracer_mod.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    import workloads

    before = _dir_bytes(cache_dir)
    result: dict = {}
    if args.mode in ("ready", "pass"):
        build = {
            "ideal_sweep": workloads.ideal_sweep_cases,
            "poly_identities": workloads.poly_identities_cases,
        }[args.workload]
        cases = build(args.seed)
        if args.mode == "pass":
            stop = None
            if args.seconds:
                stop = lambda _done, elapsed: elapsed >= args.seconds
            result = _timed(cases, workloads.run_case, tracer, stop)
    elif args.mode == "replay":
        pool = workloads.query_pool(args.seed)
        args.queries.write_text(json.dumps(pool))
        result = _timed(workloads.flatten(pool), workloads.run_query, None)
    else:
        pool = json.loads(args.queries.read_text())
        queries = workloads.flatten(pool)
        stream = (queries[i] for i in workloads.query_stream(args.seed, pool))
        if args.count:
            stop = lambda done, _elapsed: done >= args.count
        else:
            stop = lambda done, elapsed: (
                done >= workloads.MIN_QUERIES and elapsed >= args.seconds
            )
        result = _timed(stream, workloads.run_query, tracer, stop)

    if tracer is not None and "wall" in result:
        from bumpless import schubert

        result["layers"] = tracer.metrics(
            result["wall"],
            {
                "cache.bytes_written": _dir_bytes(cache_dir) - before,
                "schubert.memo_entries": len(getattr(schubert, "_MEMO", ())),
            },
        )
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
