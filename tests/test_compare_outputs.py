"""scripts/compare_outputs.py: per-file verdicts and exit status."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return root


def test_verdicts(tmp_path, compare, capsys):
    a = _tree(tmp_path / "a", {"x/same.csv": "v,i\n1,2\n",
                               "x/num.csv": "gate,v\nnand,1.0\nnor,0\n",
                               "x/manifest.json": "{}"})
    b = _tree(tmp_path / "b", {"x/same.csv": "v,i\n1,2\n",
                               "x/num.csv": "gate,v\nnand,1.5\nnor,0.0\n",
                               "x/manifest.json": "{\"t\": 1}"})
    assert compare([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x/num.csv: max rel diff 3.333e-01, max abs diff 5.000e-01 in v",
                   "x/same.csv: identical"]


def test_absolute_difference_names_its_column(tmp_path, compare, capsys):
    # the largest relative difference sits in a near-zero current cell, the
    # largest absolute one in the voltage column; a one-sided NaN is inf
    a = _tree(tmp_path / "a", {"s.csv": "vin,v(out),i(vin)\n0.0,5.0,1e-21\n1.0,4.0,-2e-21\n",
                               "t.csv": "t,v\n0,1.0\n"})
    b = _tree(tmp_path / "b", {"s.csv": "vin,v(out),i(vin)\n0.0,5.0,3e-21\n1.0,4.002,-2e-21\n",
                               "t.csv": "t,v\n0,nan\n"})
    assert compare([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "s.csv: max rel diff 6.667e-01, max abs diff 2.000e-03 in v(out)",
        "t.csv: max rel diff inf, max abs diff inf in v"]


@pytest.mark.parametrize("a_files,b_files,verdict", [
    ({"f.csv": "v\n1\n"}, {}, "missing in"),
    ({"f.csv": "v,i\n1,2\n"}, {"f.csv": "v,j\n1,2\n"}, "header differs"),
    ({"f.csv": "v\n1\n"}, {"f.csv": "v\n1\n2\n"}, "shape differs"),
    ({"f.csv": "g\nnand\n"}, {"f.csv": "g\nnor\n"}, "text cell differs"),
    ({"f.bin": "ab"}, {"f.bin": "ac"}, "differs (not a CSV)"),
])
def test_structural_differences_fail(tmp_path, compare, capsys,
                                     a_files, b_files, verdict):
    a = _tree(tmp_path / "a", a_files)
    b = _tree(tmp_path / "b", b_files)
    b.mkdir(exist_ok=True)
    assert compare([str(a), str(b)]) == 1
    assert verdict in capsys.readouterr().out
