"""Vectorized OTFT device equations: one numpy kernel for every caller.

``otft_eval`` evaluates drain current and its two small-signal derivatives
for a batch of devices in one call; the engine's Newton loop and the
contact-resistance solve in ``model`` both go through it.

All quantities are SI.  Inputs arrive polarity-normalized: ``vthn`` is the
threshold of the equivalent n-type device and ``sign`` maps external bias and
current back to the device polarity (+1 n-type, -1 p-type).
"""

from __future__ import annotations

import math

import numpy as np


def numba_enabled() -> bool:
    """Always False: the kernel has a single numpy implementation.

    Kept as a constant for callers that stamp the kernel backend into their
    run records.
    """
    return False


LN10 = math.log(10.0)

# Overdrive below this is treated as full cutoff; the analytic value there is
# below double-precision resolution of the on-state current.
_VOV_FLOOR = 1e-30


def otft_eval(vgs, vds, sign, kwl, mu0, vthn, ss, gamma, lam, order, out=None):
    """Drain current and small-signal derivatives for a batch of devices.

    ``vgs`` and ``vds`` are 1-d float64 arrays of equal length; every other
    parameter is such an array or a scalar shared by the whole batch.  Pass
    the exponents ``gamma`` and ``order`` as arrays to match a per-device
    call bit for bit: for a scalar exponent of 0.5, 2 or -1 numpy computes
    a power with sqrt, square or reciprocal, which round differently.
    Returns ``out``, by default a new (3, n) array: rows are drain current,
    d(id)/d(vgs) and d(id)/d(vds).  Given a (6, n) ``out``, rows 3-5 receive
    d(id)/d(ss), d(id)/d(gamma) and d(id)/d(lam) as well.  All rows are in
    the external sign convention of the device polarity and are 0 for a
    device in cutoff.
    """
    if out is None:
        out = np.empty((3, vgs.shape[0]))
    vg = sign * vgs
    vd = sign * vds
    swapped = vd < 0.0
    vg = np.where(swapped, vg - vd, vg)
    vd = np.abs(vd)
    phi = (2.0 + gamma) * ss / LN10
    u = (vg - vthn) / phi
    sp = np.where(u > 40.0, u, np.log1p(np.exp(np.minimum(u, 40.0))))
    vov = phi * sp
    cut = vov < _VOV_FLOOR
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
        # ss and gamma act through phi: d(vov)/d(phi) = softplus(u) - u*sigmoid(u),
        # written as log1p(e) + |u|*e/(1+e) with e = exp(-|u|) to avoid cancellation
        au = np.abs(u)
        e = np.exp(-au)
        did_dphi = kg * lamf * (np.log1p(e) + au * e / (1.0 + e)) / LN10
        psign = np.where(cut, 0.0, np.where(swapped, -sign, sign))
        out[3] = psign * did_dphi * (2.0 + gamma)
        out[4] = psign * (did_dphi * ss + idr * np.log(vov))
        out[5] = psign * i0 * vd
    return out
