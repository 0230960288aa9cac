import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    """The script as a module, its runs faked: run k reads ops_per_s = k,
    and the run numbered ``fail_at`` exits as a failed bench/run.py does."""
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(seed)
        if len(calls) == mod.fail_at:
            raise SystemExit(f"{tree}: bench/run.py exited 1")
        return {"correct": True, "failed": 0, "attempted": 10,
                "metrics": {"ops_per_s": {"value": float(len(calls))}}}

    mod.fail_at = None
    monkeypatch.setattr(mod, "run_once", run_once)
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    return mod, tree


def args(tree, out_dir):
    return [str(tree), str(tree), "--workload", "sweep", "--seeds", "1", "2", "3",
            "--seconds", "1", "--label", "t", "--out-dir", str(out_dir)]


def test_missing_out_dir_is_created(bench_pairs, tmp_path):
    mod, tree = bench_pairs
    out_dir = tmp_path / "not" / "yet"
    assert mod.main(args(tree, out_dir)) == 0
    record = json.loads((out_dir / "BENCH_t.json").read_text())["workloads"]["sweep"]
    assert record["pairs"] == 3 and record["seeds"] == [1, 2, 3]
    # Runs 1..6 in the order parent, change | change, parent | parent, change.
    assert record["parent"]["runs"]["ops_per_s"] == [1.0, 4.0, 5.0]
    assert record["change"]["runs"]["ops_per_s"] == [2.0, 3.0, 6.0]
    assert record["change_wins"] == {"ops_per_s": 2}


def test_pairs_kept_when_a_later_run_fails(bench_pairs, tmp_path):
    mod, tree = bench_pairs
    mod.fail_at = 4  # the second run of the second pair
    with pytest.raises(SystemExit):
        mod.main(args(tree, tmp_path / "out"))
    record = json.loads((tmp_path / "out" / "BENCH_t.json").read_text())["workloads"]["sweep"]
    assert record["pairs"] == 1 and record["seeds"] == [1]
    assert record["parent"]["runs"]["ops_per_s"] == [1.0]
    assert record["change"]["runs"]["ops_per_s"] == [2.0]
