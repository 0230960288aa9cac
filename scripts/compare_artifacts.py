#!/usr/bin/env python3
"""Compare two verification-suite output directories number by number.

Every file present in either directory must be present in both. JSON files
are compared structurally and CSV files cell by cell; numbers agree when
|a - b| <= RTOL * max(|a|, |b|) (NaN matches NaN), everything else must be
equal. Other files must be byte-identical.

Usage: python scripts/compare_artifacts.py DIR_A DIR_B

The last line names the largest relative difference seen between two
numbers, agreeing or not: its value, file and path, and both numbers.

Exit codes: 0 = the directories agree, 1 = they differ, 2 = usage or IO error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

RTOL = 1e-12
MAX_REPORTED = 20
USAGE = "usage: compare_artifacts.py DIR_A DIR_B\n"


def _relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal numbers and for two NaNs, inf for
    a NaN or an infinity against another number."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Comparison:
    """Disagreements as text lines, and the largest relative difference seen
    as (value, where, a, b)."""

    def __init__(self):
        self.diffs = []
        self.largest = (0.0, None, None, None)

    def numbers(self, a: float, b: float, where: str) -> None:
        rel = _relative_difference(a, b)
        if rel > RTOL:
            self.diffs.append(f"{where}: {a!r} != {b!r}")
        if rel > self.largest[0]:
            self.largest = (rel, where, a, b)

    def summary(self) -> str:
        rel, where, a, b = self.largest
        if where is None:
            return "largest relative difference: 0"
        return f"largest relative difference: {rel:.3e} at {where} ({a!r} vs {b!r})"


def compare_values(a, b, where: str, out: Comparison) -> None:
    """Record in ``out`` each place where a and b disagree."""
    if _is_number(a) and _is_number(b):
        out.numbers(float(a), float(b), where)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                out.diffs.append(f"{where}/{key}: present on one side only")
            else:
                compare_values(a[key], b[key], f"{where}/{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.diffs.append(f"{where}: length {len(a)} != {len(b)}")
        for i, (u, v) in enumerate(zip(a, b)):
            compare_values(u, v, f"{where}[{i}]", out)
    elif a != b:
        out.diffs.append(f"{where}: {a!r} != {b!r}")


def _csv_cells(path: Path) -> list:
    def cell(text: str):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


def compare_files(a: Path, b: Path, out: Comparison) -> None:
    if a.suffix == ".json":
        compare_values(json.loads(a.read_text()), json.loads(b.read_text()), a.name, out)
    elif a.suffix == ".csv":
        compare_values(_csv_cells(a), _csv_cells(b), a.name, out)
    elif a.read_bytes() != b.read_bytes():
        out.diffs.append(f"{a.name}: contents differ")


def compare_dirs(dir_a: Path, dir_b: Path) -> Comparison:
    """All disagreements between the two directories, and the largest
    relative difference between their numbers."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    out = Comparison()
    out.diffs += [f"{n}: only in {dir_a}" for n in sorted(names_a - names_b)]
    out.diffs += [f"{n}: only in {dir_b}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        compare_files(dir_a / name, dir_b / name, out)
    return out


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(USAGE)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            sys.stderr.write(f"error: {d} is not a directory\n")
            return 2
    try:
        result = compare_dirs(dir_a, dir_b)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    diffs = result.diffs
    for line in diffs[:MAX_REPORTED]:
        print(line)
    if len(diffs) > MAX_REPORTED:
        print(f"... and {len(diffs) - MAX_REPORTED} more")
    n_files = sum(1 for p in dir_a.rglob("*") if p.is_file())
    print(f"{'differ' if diffs else 'agree'}: {n_files} files, rtol {RTOL:g}, "
          f"{len(diffs)} difference(s)")
    print(result.summary())
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
