"""Regenerate the synthetic measurement CSVs under src/ofetsim/fixtures.

Sweeps come from known model cards run through the forward model with a
seeded noise model (0.5% multiplicative plus 0.15 pA additive), so every
extraction and fitting test has an exact ground truth to compare against.
Run from the repository root:  python3 scripts/make_fixtures.py

The checked-in files stay as they are: the model's arithmetic has moved by
an ulp or two since they were written, so a rerun changes a few currents by
at most 4e-16 relative (every voltage and key cell is the same), and new
files would move every ``fit`` and ``extract`` output built on them.
``tests/test_make_fixtures.py`` holds the script to that agreement.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ofetsim.model import DeviceGeometry, OtftParams, drain_current_with_contacts
from ofetsim.extract import IvSweep, write_iv_csv

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "ofetsim" / "fixtures"
SEED = 20250611
COX = 3.5e-4  # F/m^2

REFERENCE_CARD = dict(polarity="p", mu0=2.35e-5, vth=-0.8, ss=0.18,
                      lam=0.015, gamma=0.0, rc=30e3, cox=COX)
REFERENCE_GEOM = DeviceGeometry(w=380e-6, l=35e-6, lov=5e-6)


def noisy(rng: np.random.Generator, i: np.ndarray) -> np.ndarray:
    return i * (1.0 + 0.005 * rng.standard_normal(i.shape)) \
        + 1.5e-13 * rng.standard_normal(i.shape)


def sweep(params: OtftParams, kind: str, device_id: str, v: np.ndarray,
          fixed: float, rng: np.random.Generator) -> IvSweep:
    if kind == "transfer":
        i = drain_current_with_contacts(params, v, fixed)
    else:
        i = drain_current_with_contacts(params, fixed, v)
    return IvSweep(kind=kind, device_id=device_id, geom=params.geom,
                   cox=params.cox, fixed_bias=fixed, v=v, i=noisy(rng, i))


def reference_device(rng: np.random.Generator) -> list[IvSweep]:
    p = OtftParams(geom=REFERENCE_GEOM, **REFERENCE_CARD)
    out = [sweep(p, "transfer", "ref-p", np.arange(0.0, -30.25, -0.25), -30.0, rng)]
    for vgs in (-10.0, -20.0, -30.0):
        out.append(sweep(p, "output", "ref-p", np.arange(0.0, -30.5, -0.5), vgs, rng))
    return out


def batch_devices(rng: np.random.Generator) -> list[IvSweep]:
    cards = [
        dict(REFERENCE_CARD, mu0=2.1e-5, vth=-0.75),
        dict(REFERENCE_CARD),
        dict(REFERENCE_CARD, mu0=2.6e-5, vth=-0.88, ss=0.21),
    ]
    out = []
    for k, card in enumerate(cards, start=1):
        p = OtftParams(geom=REFERENCE_GEOM, **card)
        out.append(sweep(p, "transfer", f"dev{k}", np.arange(0.0, -30.25, -0.25),
                         -30.0, rng))
    return out


def main() -> None:
    rng = np.random.default_rng(SEED)
    write_iv_csv(OUT / "reference_p_iv.csv", reference_device(rng))
    write_iv_csv(OUT / "batch_3dev_iv.csv", batch_devices(rng))
    print(f"wrote fixtures to {OUT}")


if __name__ == "__main__":
    main()
