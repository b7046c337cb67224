"""Compare two ofetsim output directories file by file.

Every file under either directory is reported on one line: "identical"
(same bytes), "missing" (present on one side only), or, for a CSV whose
header and non-numeric cells match, the largest relative difference
|a - b| / max(|a|, |b|) over its numeric cells and the largest absolute
difference |a - b| with the column it occurs in.  The absolute figure
reads near-zero cells (gmin-level currents, say) whose relative difference
says nothing.  A cell that is NaN or infinite on one side only differs by
inf in both figures.  ``manifest.json`` files are
skipped, since they record timings and input paths.  Exits 1 when a file
is missing, a CSV header differs, or two files cannot be compared cell by
cell (different row counts, differing text cells, non-CSV content).

Run from anywhere:  python3 scripts/compare_outputs.py OUT_A OUT_B
"""

from __future__ import annotations

import csv
import math
import pathlib
import sys


def _files(root: pathlib.Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def _rows(path: pathlib.Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _diff(a: str, b: str) -> tuple[float, float] | None:
    """(absolute, relative) difference of two numeric cells, None if either
    is text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    d = abs(x - y)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(x), abs(y))


def compare_csv(a: pathlib.Path, b: pathlib.Path) -> tuple[str, bool]:
    """(verdict, ok) for two CSV files that are not byte-identical."""
    ra, rb = _rows(a), _rows(b)
    if not ra or not rb or ra[0] != rb[0]:
        return "header differs", False
    if len(ra) != len(rb) or any(len(x) != len(y) for x, y in zip(ra, rb)):
        return "shape differs", False
    worst_rel = worst_abs = 0.0
    where = ""
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for name, x, y in zip(ra[0], row_a, row_b):
            if x == y:
                continue
            diff = _diff(x, y)
            if diff is None:
                return f"text cell differs ({x!r} vs {y!r})", False
            if diff[0] > worst_abs:
                worst_abs, where = diff[0], f" in {name}"
            worst_rel = max(worst_rel, diff[1])
    return f"max rel diff {worst_rel:.3e}, max abs diff {worst_abs:.3e}{where}", True


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_outputs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    root_a, root_b = (pathlib.Path(p) for p in argv)
    for root in (root_a, root_b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    files_a, files_b = _files(root_a), _files(root_b)
    ok = True
    for rel in sorted(files_a | files_b):
        a, b = root_a / rel, root_b / rel
        if rel not in files_a or rel not in files_b:
            side = root_a if rel not in files_a else root_b
            verdict, good = f"missing in {side}", False
        elif a.read_bytes() == b.read_bytes():
            verdict, good = "identical", True
        elif a.suffix == ".csv":
            verdict, good = compare_csv(a, b)
        else:
            verdict, good = "differs (not a CSV)", False
        print(f"{rel}: {verdict}")
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
