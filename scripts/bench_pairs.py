#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, written as BENCH_<label>.json.

    python3 scripts/bench_pairs.py BASE_DIR HEAD_DIR --workload potential \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 --label 20

BASE_DIR is the parent commit's tree and HEAD_DIR the change's; each holds
its own bench/run.py, which builds what it runs from its own src/. For each
seed, one pair of runs: `python3 bench/run.py --workload W --seed S
--seconds T` in a fresh process in each tree, the parent first in even pairs
and the change first in odd ones. The file records every run's end-to-end
metrics, each side's median and quartiles and, per metric, how many pairs
the change won (better by the direction that HEAD_DIR/BENCHMARK.json gives;
ties count for neither). --out-dir is created if it is missing, and the file
is written again after every pair, holding the pairs run so far, so a run
cut short keeps them. Running again with the same --label and another
--workload adds that workload to the file. With --schema-of REF the written
file is checked to carry every key of REF (a BENCH_*.json), and a missing
key is exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Hand-assembled notes of BENCH_19.json that no paired run produces.
OPTIONAL_KEYS = {"preliminary_runs"}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON result of one bench/run.py process in tree."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=600 + 10 * seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    """Median and quartiles, interpolated between the sorted runs (one run
    is its own median and quartiles)."""
    q1, median, q3 = statistics.quantiles(values * (2 if len(values) == 1 else 1), n=4,
                                          method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_record(results: list) -> dict:
    metrics = results[0]["metrics"]
    runs = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
    return {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "runs": runs,
        "summary": {m: summary(v) for m, v in runs.items()},
    }


def run_pairs(base: Path, head: Path, workload: str, seeds: list, seconds: float,
              save) -> None:
    """Run one pair per seed and pass save the record of the pairs run so
    far after each one."""
    better = {m["name"]: m["better"]
              for m in json.loads((head / "BENCHMARK.json").read_text())["end_to_end"]}
    results = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run_once(base if side == "parent" else head, workload, seed,
                                          seconds))
        record = {"seeds": seeds[: i + 1], "pairs": i + 1, "first": list(first)}
        record |= {side: side_record(results[side]) for side in SIDES}
        wins = {}
        for m, direction in better.items():
            pairs = zip(record["parent"]["runs"][m], record["change"]["runs"][m])
            wins[m] = sum((c > p) if direction == "higher" else (c < p) for p, c in pairs)
        record["change_wins"] = wins
        save(record)
        sys.stderr.write(f"{workload} pair {i + 1}/{len(seeds)} (seed {seed}) done\n")


def machine() -> str:
    import numpy
    import scipy

    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{platform.machine()}, {model}, {os.cpu_count()} CPUs, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")


def commit(tree: Path) -> str:
    """The commit of tree, with "-dirty" if its tracked files differ from it."""
    done = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty",
                           "--abbrev=40"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def missing_keys(got, ref, path: str = "") -> list:
    """Key paths of ref (dicts only; a workload is checked against every
    workload of ref) that got lacks."""
    if not isinstance(ref, dict):
        return []
    if not isinstance(got, dict):
        return [path or "."]
    out = []
    for key, sub in ref.items():
        if path == "" and key in OPTIONAL_KEYS:
            continue
        if path == "workloads":
            out += [m for name in got for m in missing_keys(got[name], sub, f"workloads.{name}")]
        elif key not in got:
            out.append(f"{path}.{key}" if path else key)
        else:
            out += missing_keys(got[key], sub, f"{path}.{key}" if path else key)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path, help="the parent commit's source tree")
    ap.add_argument("head", type=Path, help="the change's source tree")
    ap.add_argument("--workload", required=True, help="one workload of bench/run.py")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one seed per pair")
    ap.add_argument("--seconds", type=float, required=True, help="timed phase of each run")
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--out-dir", type=Path, default=Path("."), help="where the file goes")
    ap.add_argument("--schema-of", type=Path, help="a BENCH_*.json whose keys the file must have")
    args = ap.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc.get("seconds", args.seconds) != args.seconds:
        raise SystemExit(f"{out} holds runs of {doc['seconds']} s, not {args.seconds} s")
    doc |= {
        "label": args.label,
        "what": args.what or doc.get("what", ""),
        "command": "python3 bench/run.py --workload W --seed S --seconds T (one fresh process "
                   "per run; parent and change alternate which runs first in each pair)",
        "seconds": args.seconds,
        "machine": machine(),
        "parent_commit": commit(base),
        "change_commit": commit(head),
    }
    def save(record: dict) -> None:
        doc.setdefault("workloads", {})[args.workload] = record
        out.write_text(json.dumps(doc, indent=1) + "\n")

    run_pairs(base, head, args.workload, args.seeds, args.seconds, save)
    if args.schema_of:
        missing = dict.fromkeys(missing_keys(doc, json.loads(args.schema_of.read_text())))
        if missing:
            print(f"{out} lacks keys of {args.schema_of}: {', '.join(missing)}")
            return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
