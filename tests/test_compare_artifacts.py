import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_artifacts.py"


def compare(a, b):
    done = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout + done.stderr


def write_dir(root: Path, name: str, value: float, extra: str = "x") -> Path:
    d = root / name
    d.mkdir()
    (d / "r.json").write_text(json.dumps({"worst": {"rellich": value}, "pass": True, "tag": extra}))
    (d / "c.csv").write_text(f"t,sup_error\n0.1,{value!r}\n")
    return d


def test_equal_within_rtol(tmp_path):
    a = write_dir(tmp_path, "a", 0.7499999999999999)
    b = write_dir(tmp_path, "b", 0.7500000000000001)
    assert compare(a, b)[0] == 0


@pytest.mark.parametrize("field", ["value", "text"])
def test_differences_exit_1(tmp_path, field):
    a = write_dir(tmp_path, "a", 0.75)
    b = write_dir(tmp_path, "b", 0.75 * (1 + 1e-10) if field == "value" else 0.75, extra="y")
    code, out = compare(a, b)
    assert code == 1
    assert "differ" in out


def test_missing_file_exit_1(tmp_path):
    a = write_dir(tmp_path, "a", 0.75)
    b = write_dir(tmp_path, "b", 0.75)
    (b / "c.csv").unlink()
    code, out = compare(a, b)
    assert code == 1
    assert "only in" in out


def test_usage_and_io_errors_exit_2(tmp_path):
    assert compare(tmp_path, tmp_path / "absent")[0] == 2
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, timeout=60)
    assert done.returncode == 2
    a = write_dir(tmp_path, "a", 0.75)
    b = write_dir(tmp_path, "b", 0.75)
    (b / "r.json").write_text("{not json")
    assert compare(a, b)[0] == 2


@pytest.mark.parametrize("rel,code", [(1e-14, 0), (3e-6, 1)])
def test_last_line_names_largest_difference(tmp_path, rel, code):
    a = write_dir(tmp_path, "a", 0.75)
    b = write_dir(tmp_path, "b", 0.75 * (1 + rel))
    (b / "r.json").write_text(json.dumps({"worst": {"rellich": 0.75 * (1 + rel / 3)},
                                          "pass": True, "tag": "x"}))
    got, out = compare(a, b)
    assert got == code
    last = out.strip().splitlines()[-1]
    assert last.startswith("largest relative difference: ")
    assert "c.csv[1][1]" in last
    assert float(last.split()[3]) == pytest.approx(rel, rel=1e-3)


def test_last_line_without_differences(tmp_path):
    a = write_dir(tmp_path, "a", 0.75)
    b = write_dir(tmp_path, "b", 0.75)
    got, out = compare(a, b)
    assert got == 0
    assert out.strip().splitlines()[-1] == "largest relative difference: 0"


def test_infinity_against_number_differs(tmp_path):
    a = write_dir(tmp_path, "a", float("inf"))
    b = write_dir(tmp_path, "b", 0.75)
    code, out = compare(a, b)
    assert code == 1
    assert out.strip().splitlines()[-1].startswith("largest relative difference: inf")
