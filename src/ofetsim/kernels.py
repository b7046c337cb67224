"""Vectorized OTFT device equations: one numpy kernel for every caller.

``otft_eval`` evaluates drain current and its two small-signal derivatives
for a batch of devices in one call; the engine's Newton loop and the
contact-resistance solve in ``model`` both go through it.

A circuit's transistors are a batch of 12-24 devices, where the cost of a
call is numpy's per-operation overhead, not arithmetic.  So the quantities
that depend only on the cards (the ``Card`` of ``card_constants``) are
computed once per device table by the engine instead of on every call, and
a mask that selects no device skips its ``np.where``.  Every remaining
operation runs in one fixed order, so the result is the same, bit for bit,
whichever masks are empty and wherever the card constants came from.

All quantities are SI.  Inputs arrive polarity-normalized: ``vthn`` is the
threshold of the equivalent n-type device and ``sign`` maps external bias and
current back to the device polarity (+1 n-type, -1 p-type).
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
_VOV_FLOOR = np.array(1e-30)

# Constant operands as 0-d arrays: numpy dispatches them faster than Python
# floats, through the same ufunc loops.  40 caps the softplus argument and
# +-700 clamps the sigmoid's.
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)
_SP_MAX, _EXP_MAX, _EXP_MIN = np.array(40.0), np.array(700.0), np.array(-700.0)


class Card(NamedTuple):
    """The quantities of ``otft_eval`` that depend only on the device cards.

    Built once per device table by ``card_constants``; every field is an
    array over the devices, or a scalar for a shared card value.
    """

    phi: np.ndarray          # (2 + gamma) * ss / ln 10, the softplus scale
    inv_order: np.ndarray    # 1 / order
    gexp: np.ndarray         # gamma - 1, and 0 where gamma is 0
    gmu0: np.ndarray         # gamma * mu0
    gz: np.ndarray           # gamma == 0
    gz_any: bool
    gz_all: bool


def card_constants(mu0, ss, gamma, order) -> Card:
    """Card-only quantities of ``otft_eval`` for these device parameters."""
    gz = np.asarray(gamma) == 0.0
    return Card(phi=(2.0 + gamma) * ss / LN10, inv_order=1.0 / order,
                gexp=np.where(gz, 0.0, gamma - 1.0), gmu0=gamma * mu0,
                gz=gz, gz_any=bool(gz.any()), gz_all=bool(gz.all()))


def otft_eval(vgs, vds, sign, kwl, mu0, vthn, ss, gamma, lam, order, out=None,
              card=None):
    """Drain current and small-signal derivatives for a batch of devices.

    ``vgs`` and ``vds`` are 1-d float64 arrays of equal length; every other
    parameter is such an array or a scalar shared by the whole batch.  Pass
    the exponents ``gamma`` and ``order`` as arrays to match a per-device
    call bit for bit: for a scalar exponent of 0.5, 2 or -1 numpy computes
    a power with sqrt, square or reciprocal, which round differently.
    ``card`` is ``card_constants(mu0, ss, gamma, order)``, computed here when
    not given; a caller that evaluates one device table many times builds it
    once.  Returns ``out``, by default a new (3, n) array: rows are drain
    current, d(id)/d(vgs) and d(id)/d(vds).  Given a (6, n) ``out``, rows 3-5
    receive d(id)/d(ss), d(id)/d(gamma) and d(id)/d(lam) as well.  All rows
    are in the external sign convention of the device polarity and are 0 for
    a device in cutoff.

    A mask that selects no device (swapped drain and source, softplus
    argument above 40, cutoff) is not applied; the rows are the same as with
    every mask applied.  ``out`` must not share memory with the inputs:
    rows 1 and 2 are written before the last input is read.
    """
    if card is None:
        card = card_constants(mu0, ss, gamma, order)
    if out is None:
        out = np.empty((3, vgs.shape[0]))
    vg = sign * vgs
    vd = sign * vds
    swapped = vd < _ZERO
    any_swapped = np.count_nonzero(swapped)
    if any_swapped:
        vg = np.where(swapped, vg - vd, vg)
    vd = np.abs(vd)
    phi = card.phi
    u = (vg - vthn) / phi
    sp = np.log1p(np.exp(np.minimum(u, _SP_MAX)))
    big = u > _SP_MAX
    if np.count_nonzero(big):
        sp = np.where(big, u, sp)
    vov = phi * sp
    cut = vov < _VOV_FLOOR
    any_cut = np.count_nonzero(cut)
    if any_cut:
        vov = np.where(cut, _ONE, vov)
    sig = _ONE / (_ONE + np.exp(-np.minimum(np.maximum(u, _EXP_MIN), _EXP_MAX)))
    if card.gz_all:
        # vov ** 0 is 1 for every vov, NaN included
        mu = mu0
        dmu = _ZERO   # still multiplies f below: 0 * inf is NaN
    else:
        mu = mu0 * vov ** gamma
        dmu = card.gmu0 * vov ** card.gexp
        if card.gz_any:
            dmu = np.where(card.gz, _ZERO, dmu)
    r = vd / vov
    rm = r ** order
    rm1 = _ONE + rm
    den = rm1 ** card.inv_order
    vde = vd / den
    dvde_dvd = _ONE / (den * rm1)
    dvde_dvov = vde * rm / (rm1 * vov)
    f = (vov - _HALF * vde) * vde
    vgap = vov - vde
    df_dvov = vde + dvde_dvov * vgap
    df_dvd = dvde_dvd * vgap
    lamf = _ONE + lam * vd
    kmu = kwl * mu
    i0 = kmu * f
    idr = i0 * lamf
    kg = kwl * (dmu * f + mu * df_dvov)
    # gm and gds go straight to their output rows
    gm = np.multiply(kg * sig, lamf, out=out[1])
    gds = np.add(kmu * df_dvd * lamf, i0 * lam, out=out[2])
    idr_s = idr
    if any_swapped:
        idr_s = np.where(swapped, -idr, idr)
        out[2] = np.where(swapped, gm + gds, gds)
        out[1] = np.where(swapped, -gm, gm)
    np.multiply(sign, idr_s, out=out[0])
    if any_cut:
        out[:3, cut] = 0.0
    if out.shape[0] == 6:
        # ss and gamma act through phi: d(vov)/d(phi) = softplus(u) - u*sigmoid(u),
        # written as log1p(e) + |u|*e/(1+e) with e = exp(-|u|) to avoid cancellation
        au = np.abs(u)
        e = np.exp(-au)
        did_dphi = kg * lamf * (np.log1p(e) + au * e / (_ONE + e)) / LN10
        psign = np.where(swapped, -sign, sign) if any_swapped else sign
        if any_cut:
            psign = np.where(cut, _ZERO, psign)
        out[3] = psign * did_dphi * (2.0 + gamma)
        out[4] = psign * (did_dphi * ss + idr * np.log(vov))
        out[5] = psign * i0 * vd
    return out
