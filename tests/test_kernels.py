"""Device kernel: the derivative rows must differentiate the current row."""

from __future__ import annotations

import numpy as np

from ofetsim import kernels


def _batch(seed: int, n: int = 4000):
    rng = np.random.default_rng(seed)
    vgs = rng.uniform(-35.0, 35.0, n)
    vds = rng.uniform(-35.0, 35.0, n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    kwl = 10.0 ** rng.uniform(-9.0, -6.0, n)
    mu0 = 10.0 ** rng.uniform(-5.5, -4.0, n)
    vthn = rng.uniform(0.1, 3.0, n)
    ss = rng.uniform(0.08, 0.6, n)
    gamma = rng.uniform(0.0, 1.0, n)
    lam = rng.uniform(0.0, 0.05, n)
    order = np.full(n, 3.0)
    return vgs, vds, sign, kwl, mu0, vthn, ss, gamma, lam, order


def test_derivative_rows_consistent():
    # row 1 and 2 of the kernel output must differentiate row 0
    args = _batch(99, n=500)
    out = kernels.otft_eval(*args)
    h = 1e-5
    lo = list(args)
    hi = list(args)
    lo[0] = args[0] - h
    hi[0] = args[0] + h
    fd = (kernels.otft_eval(*hi)[0] - kernels.otft_eval(*lo)[0]) / (2 * h)
    denom = np.maximum(np.abs(out[1]), 1e-3 * np.abs(out[1]).max())
    assert np.max(np.abs(out[1] - fd) / denom) < 1e-3
