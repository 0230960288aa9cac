#!/usr/bin/env python3
"""dini benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1            # every workload, one fresh process each

One process runs one workload as a closed loop with a single caller: set-up,
then whole rounds of the workload's operations until the timed phase has
lasted --seconds. The timed phase is the sum of the operations' own wall
times; the checks on their outputs run between operations, untimed. The
last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics". With --trace 1 the metrics are the
per-layer figures (see bench/README.md), taken from spans around dini's
public names, for one set-up plus one round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep", "potential", "functionals")
# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import dini.cli; print(time.perf_counter() - t)"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_seconds() -> float:
    """Median import time of dini.cli (with numpy and scipy) in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _p50(durations: list, failed: int, timed: float) -> float:
    """Median latency, a failed operation counting as slower than any other.

    When most operations fail the median is unbounded; the whole timed phase
    then stands in for it, so that the figure stays a finite number.
    """
    p50 = statistics.median(durations + [math.inf] * failed)
    return p50 if math.isfinite(p50) else timed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    import_s = _import_seconds()
    import dini.cli  # noqa: F401  (the timed import above ran in fresh interpreters)

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    build = workloads.WORKLOADS[name]
    build_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        ops = build(seed)
        build_times.append(time.perf_counter() - start)
    setup_snapshot = tracer.snapshot() if tracer else None

    op_s = {op.label: [] for op in ops}
    attempted = failed = wrong = rounds = 0
    timed = 0.0
    while rounds == 0 or timed < seconds:
        for op in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # a refused operation is counted, and the run goes on
                timed += time.perf_counter() - start
                failed += 1
                sys.stderr.write(f"[{name}] {op.label} raised:\n{traceback.format_exc()}")
                continue
            elapsed = time.perf_counter() - start
            timed += elapsed
            try:
                op.check(result)
            except Exception as exc:  # any malformed output is a wrong output
                failed += 1
                wrong += 1
                sys.stderr.write(f"[{name}] {op.label} wrong output: {exc!r}\n")
                continue
            op_s[op.label].append(elapsed)
        rounds += 1

    durations = [d for times in op_s.values() for d in times]
    e2e = {
        "ops_per_s": (len(durations) / timed, "ops/s"),
        "op_p50_ms": (1e3 * _p50(durations, failed, timed), "ms"),
        "setup_s": (import_s + statistics.median(build_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"workload": name, "seed": seed, "rounds": rounds, "ops_per_round": len(ops),
              "timed_s": timed, "import_s": import_s, "build_s": build_times, "op_s": op_s}
    if tracer:
        tracer.uninstall()
        layer, table = spans.layer_metrics(tracer, setup_snapshot, SETUP_REPS, rounds)
        metrics = dict(layer)
        metrics["trace.ops_per_s"] = e2e["ops_per_s"]
        metrics["trace.op_p50_ms"] = e2e["op_p50_ms"]
        detail["spans"] = table
    else:
        metrics = e2e
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result | {"detail": detail}, indent=1, sort_keys=True) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dini" / "__init__.py").is_file():
        sys.stderr.write(f"no dini sources under {SRC}; run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    # One library thread: the timings then do not depend on whether another
    # CPU of a shared machine happens to be free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # Zero tables are built, never read from a cache directory.
    os.environ.pop("DINI_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
