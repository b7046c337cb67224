"""scripts/make_fixtures.py: its sweeps are the checked-in measurement CSVs."""

from __future__ import annotations

import csv
import importlib.util
from pathlib import Path

import numpy as np

from ofetsim import fixtures

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"


def _cells(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_generator_reproduces_the_checked_in_csvs(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    rng = np.random.default_rng(mod.SEED)   # one stream, in main's order
    for name, sweeps in (("reference_p_iv.csv", mod.reference_device(rng)),
                         ("batch_3dev_iv.csv", mod.batch_devices(rng))):
        mod.write_iv_csv(tmp_path / name, sweeps)
        got, want = _cells(tmp_path / name), _cells(fixtures.path(name))
        assert got[0] == want[0] and len(got) == len(want), name
        col = want[0].index("id_A")
        for n, (a, b) in enumerate(zip(got[1:], want[1:]), start=2):
            # the key cells and v exactly; the current within 1e-15 relative,
            # since the model's last bits have moved since the files were
            # written (by 4e-16 relative at most)
            assert a[:col] + a[col + 1:] == b[:col] + b[col + 1:], (name, n)
            i, j = float(a[col]), float(b[col])
            assert abs(i - j) <= 1e-15 * max(abs(i), abs(j)), (name, n)
