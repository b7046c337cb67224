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


def test_parameter_rows_match_central_differences():
    # rows 3-5 of a 6-row call differentiate row 0 by ss, gamma and lam; the
    # batch mixes both polarities, swapped bias (vds of either sign), gamma
    # at 0 and above, and devices in full cutoff
    args = list(_batch(99))
    args[7][:1000] = 0.0
    out = kernels.otft_eval(*args, out=np.empty((6, args[0].size)))
    sign, vds, cut = args[2], args[1], out[0] == 0.0
    assert (sign * vds < 0.0).sum() > 1000 and (sign * vds > 0.0).sum() > 1000
    assert 100 < cut.sum() < 1000
    for row, k in ((3, 6), (4, 7), (5, 8)):
        h = 3e-6 * np.maximum(np.abs(args[k]), 0.1)
        hi, lo = list(args), list(args)
        hi[k] = args[k] + h
        lo[k] = args[k] - h
        fd = (kernels.otft_eval(*hi)[0] - kernels.otft_eval(*lo)[0]) / (2 * h)
        # relative to the derivative, or to the current where the derivative
        # vanishes (ss barely moves a device far above threshold)
        scale = np.maximum(np.abs(fd), np.abs(out[0]))
        err = np.abs(out[row] - fd)[~cut] / scale[~cut]
        assert err.max() < 1e-6, row
        assert np.all(out[row][cut] == 0.0) and np.all(fd[cut] == 0.0), row


def test_six_row_call_keeps_the_three_rows():
    args = _batch(5)
    three = kernels.otft_eval(*args)
    six = kernels.otft_eval(*args, out=np.empty((6, args[0].size)))
    assert np.array_equal(six[:3], three)


def test_scalar_parameters_broadcast():
    # a card's shared values may be passed as scalars (exponents as arrays)
    args = list(_batch(11, n=300))
    shared = (2, 3, 4, 5, 6, 8)
    for k in shared:
        args[k] = np.full(300, args[k][0])
    full = kernels.otft_eval(*args)
    for k in shared:
        args[k] = float(args[k][0])
    assert np.array_equal(kernels.otft_eval(*args), full)
