"""Device kernel: the derivative rows must differentiate the current row, and
the kernel must equal its reference body bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ofetsim import engine, fixtures, kernels, netlist


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


def _otft_eval_reference(vgs, vds, sign, kwl, mu0, vthn, ss, gamma, lam, order, out=None):
    """The kernel body that computes every card quantity per call and runs
    every np.where: the reference otft_eval must match bit for bit."""
    if out is None:
        out = np.empty((3, vgs.shape[0]))
    vg = sign * vgs
    vd = sign * vds
    swapped = vd < 0.0
    vg = np.where(swapped, vg - vd, vg)
    vd = np.abs(vd)
    phi = (2.0 + gamma) * ss / math.log(10.0)
    u = (vg - vthn) / phi
    sp = np.where(u > 40.0, u, np.log1p(np.exp(np.minimum(u, 40.0))))
    vov = phi * sp
    cut = vov < 1e-30
    vov = np.where(cut, 1.0, vov)
    sig = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(u, -700.0), 700.0)))
    mu = mu0 * vov ** gamma
    gz = gamma == 0.0
    dmu = np.where(gz, 0.0, gamma * mu0 * vov ** np.where(gz, 0.0, gamma - 1.0))
    r = vd / vov
    rm = r ** order
    rm1 = 1.0 + rm
    den = rm1 ** (1.0 / order)
    vde = vd / den
    dvde_dvd = 1.0 / (den * rm1)
    dvde_dvov = vde * rm / (rm1 * vov)
    f = (vov - 0.5 * vde) * vde
    vgap = vov - vde
    df_dvov = vde + dvde_dvov * vgap
    df_dvd = dvde_dvd * vgap
    lamf = 1.0 + lam * vd
    kmu = kwl * mu
    i0 = kmu * f
    idr = i0 * lamf
    kg = kwl * (dmu * f + mu * df_dvov)
    gm = kg * sig * lamf
    gds = kmu * df_dvd * lamf + i0 * lam
    idr_s = np.where(swapped, -idr, idr)
    gds_s = np.where(swapped, gm + gds, gds)
    gm_s = np.where(swapped, -gm, gm)
    out[0] = np.where(cut, 0.0, sign * idr_s)
    out[1] = np.where(cut, 0.0, gm_s)
    out[2] = np.where(cut, 0.0, gds_s)
    if out.shape[0] == 6:
        au = np.abs(u)
        e = np.exp(-au)
        did_dphi = kg * lamf * (np.log1p(e) + au * e / (1.0 + e)) / math.log(10.0)
        psign = np.where(cut, 0.0, np.where(swapped, -sign, sign))
        out[3] = psign * did_dphi * (2.0 + gamma)
        out[4] = psign * (did_dphi * ss + idr * np.log(vov))
        out[5] = psign * i0 * vd
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _kernel_cases():
    """(name, args): gamma none, all or some 0; scalar card values; batches
    with swapped and cut-off devices and one with neither."""
    n = 2000
    base = _batch(21, n)
    mixed = np.where(np.arange(n) % 3 == 0, 0.0, base[7])
    cases = [("gamma none 0", base)]
    cases.append(("gamma all 0", base[:7] + (np.zeros(n),) + base[8:]))
    cases.append(("gamma mixed", base[:7] + (mixed,) + base[8:]))
    scalar = list(_batch(11, n))
    for k in (2, 3, 4, 5, 6, 8):
        scalar[k] = float(scalar[k][0])
    cases.append(("scalar card values", tuple(scalar)))
    cases.append(("scalar exponents", tuple(scalar[:7]) + (0.0, scalar[8], 3.0)))
    cases.append(("scalar gamma 0.3", tuple(scalar[:7]) + (0.3, scalar[8], 2.0)))
    # n-type devices far on with vds > 0: no swap, no cut-off, every u > 40
    on = list(_batch(4, n))
    on[0], on[1], on[2] = np.full(n, 30.0), np.abs(on[1]), np.ones(n)
    cases.append(("forward and on", tuple(on)))
    return cases


@pytest.mark.parametrize("rows", [3, 6])
@pytest.mark.parametrize("name, args", _kernel_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_kernel_matches_reference_bit_for_bit(name, args, rows):
    n = args[0].size
    got = kernels.otft_eval(*args, out=np.empty((rows, n)))
    ref = _otft_eval_reference(*args, out=np.empty((rows, n)))
    assert np.array_equal(_bits(got), _bits(ref)), name
    # the card constants built once give the same bits as per call
    card = kernels.card_constants(args[4], args[6], args[7], args[9])
    again = kernels.otft_eval(*args, out=np.empty((rows, n)), card=card)
    assert np.array_equal(_bits(again), _bits(ref)), name


def test_kernel_cases_cover_every_mask():
    swapped, cut = {}, {}
    for name, args in _kernel_cases():
        sign, vds = np.asarray(args[2]), args[1]
        swapped[name] = bool(np.any(sign * vds < 0.0))
        cut[name] = bool(np.any(kernels.otft_eval(*args)[0] == 0.0))
    assert swapped["gamma none 0"] and cut["gamma none 0"]
    assert not swapped["forward and on"] and not cut["forward and on"]


@pytest.mark.parametrize("name", ["ro_pseudo_e.cir", "ro_cmos.cir"])
def test_ring_card_tables_match_reference(name):
    # the engine's stacked card arrays with the card constants of its table,
    # at biases over the ring's whole supply range
    c = netlist.parse(fixtures.read(name))
    tab = engine._System(c, engine.SolverConfig())._replicas(50)
    n = tab.m_par[0].size
    rng = np.random.default_rng(12)
    vgs, vds = rng.uniform(-60.0, 60.0, (2, n))
    for rows in (3, 6):
        got = kernels.otft_eval(vgs, vds, *tab.m_par, np.empty((rows, n)), card=tab.card)
        ref = _otft_eval_reference(vgs, vds, *tab.m_par, np.empty((rows, n)))
        assert np.array_equal(_bits(got), _bits(ref))
