"""Checked-in circuit netlists and synthetic measurement data.

All .cir files are calibrated fixtures: topology and device dimensions are
fixed, and the handful of free values (parasitic caps, series gate
resistance, neuron component values) are tuned once so the simulated
metrics land in the documented target bands.  The CSV files are synthetic
sweeps generated by scripts/make_fixtures.py from known model cards.
"""

from importlib import resources
from pathlib import Path


def path(name: str) -> Path:
    """Filesystem path of a named fixture (e.g. "inverter_cmos.cir")."""
    p = resources.files(__package__).joinpath(name)
    if not p.is_file():
        raise FileNotFoundError(f"no fixture named {name!r}")
    return Path(str(p))


def read(name: str) -> str:
    return path(name).read_text(encoding="utf-8")
