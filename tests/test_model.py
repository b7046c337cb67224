"""Device-model unit and property tests.

Covers current monotonicity, polarity symmetry, seam smoothness, analytic
derivatives against finite differences, contact-limited evaluation, strain
transforms, and parameter validation.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from conftest import REF_GEOM, ref_params
from ofetsim import kernels
from ofetsim.model import (
    DeviceGeometry,
    OtftParams,
    ParameterError,
    StrainState,
    apply_strain,
    device_capacitances,
    drain_current,
    drain_current_with_contacts,
    kernel_args,
    load_strain_table,
    output_conductance,
    transconductance,
)

def random_cards(n: int, seed: int) -> list[OtftParams]:
    rng = np.random.default_rng(seed)
    cards = []
    for _ in range(n):
        pol = "p" if rng.random() < 0.5 else "n"
        sgn = -1.0 if pol == "p" else 1.0
        cards.append(OtftParams(
            polarity=pol,
            mu0=10.0 ** rng.uniform(-5.5, -4.0),
            vth=sgn * rng.uniform(0.2, 2.0),
            ss=rng.uniform(0.08, 0.5),
            lam=rng.uniform(0.0, 0.05),
            gamma=rng.uniform(0.0, 0.8),
            rc=rng.uniform(0.0, 100e3),
            cox=rng.uniform(1e-4, 6e-4),
            geom=DeviceGeometry(w=rng.uniform(50e-6, 5000e-6),
                                l=rng.uniform(5e-6, 50e-6),
                                lov=rng.uniform(0.0, 10e-6)),
        ))
    return cards


# -- monotonicity and symmetry ----------------------------------------------


@pytest.mark.parametrize("card_idx", range(8))
def test_current_monotone_in_overdrive(card_idx):
    p = random_cards(8, seed=101)[card_idx]
    sgn = p.sign
    vgs = sgn * np.linspace(0.0, 30.0, 400)
    for vds_mag in (0.5, 5.0, 30.0):
        i = np.abs(drain_current(p, vgs, np.full(vgs.size, sgn * vds_mag)))
        assert np.all(np.diff(i) > 0.0), "|ID| must grow with overdrive"


def test_polarity_mirror_symmetry():
    for pn in random_cards(6, seed=202):
        if pn.polarity == "p":
            pn = pn.replace(polarity="n", vth=-pn.vth)
        pp = pn.replace(polarity="p", vth=-pn.vth)
        rng = np.random.default_rng(7)
        vgs = rng.uniform(-30.0, 30.0, 200)
        vds = rng.uniform(-30.0, 30.0, 200)
        i_n = drain_current(pn, vgs, vds)
        i_p = drain_current(pp, -vgs, -vds)
        np.testing.assert_allclose(i_p, -i_n, rtol=0.0, atol=0.0)


def test_source_drain_exchange_antisymmetry(pcard):
    # swapping the terminals flips the current exactly
    vgs = np.linspace(-30.0, 5.0, 97)
    vds = np.linspace(-20.0, 20.0, 97)
    fwd = drain_current(pcard, vgs, vds)
    rev = drain_current(pcard, vgs - vds, -vds)
    np.testing.assert_allclose(rev, -fwd, rtol=1e-12, atol=1e-30)


# -- smoothness and derivatives ----------------------------------------------


def _max_d2(y: np.ndarray) -> float:
    return float(np.abs(y[2:] + y[:-2] - 2.0 * y[1:-1]).max())


def test_no_seam_jumps(pcard):
    # A value jump J at a grid point shows up in the second difference as ~J
    # independent of spacing, while smooth curvature contributes only h^2 f''.
    # "Relative" is anchored to the on-state scale; a jump below 1e-9 of the
    # on current is not resolvable by any double-precision model.
    i_scale = abs(drain_current(pcard, -30.0, -15.0))
    gm_scale = abs(transconductance(pcard, -30.0, -15.0))
    h = 3e-5
    vds = np.array(-15.0)
    for center in (pcard.vth, -20.0 - pcard.vth):  # threshold, sat knee
        vgs = center + h * np.arange(-5000, 5001)
        i = drain_current(pcard, vgs, np.broadcast_to(vds, vgs.shape))
        g = transconductance(pcard, vgs, np.broadcast_to(vds, vgs.shape))
        assert _max_d2(i) / i_scale < 1e-9
        assert _max_d2(g) / gm_scale < 1e-9
    vgs0 = np.array(-20.0)
    for center in (-19.2, 0.0):  # sat knee in vds, source-drain swap
        vds_g = center + h * np.arange(-5000, 5001)
        i = drain_current(pcard, np.broadcast_to(vgs0, vds_g.shape), vds_g)
        assert _max_d2(i) / i_scale < 1e-9
    # gds carries an allowed curvature kink at vds = 0 from the |vds| factor;
    # a tiny bracket scales that contribution to h while a true jump would not
    h2 = 1e-8
    vds_g = h2 * np.arange(-100, 101)
    g = output_conductance(pcard, np.broadcast_to(vgs0, vds_g.shape), vds_g)
    assert _max_d2(g) / np.abs(g).max() < 1e-9


def test_derivatives_match_finite_differences(pcard):
    # grid stops half a step short of vds = 0 so no central-difference
    # stencil straddles the source-drain swap (continuity there is tested
    # separately; a straddling stencil is not a valid derivative estimate)
    n = 50
    vgs, vds = np.meshgrid(np.linspace(-30.0, 0.0, n),
                           np.linspace(-30.0, -0.01, n))
    vgs, vds = vgs.ravel(), vds.ravel()
    h = 1e-4
    gm = transconductance(pcard, vgs, vds)
    gds = output_conductance(pcard, vgs, vds)
    fd_gm = (drain_current(pcard, vgs + h, vds)
             - drain_current(pcard, vgs - h, vds)) / (2.0 * h)
    fd_gds = (drain_current(pcard, vgs, vds + h)
              - drain_current(pcard, vgs, vds - h)) / (2.0 * h)
    for a, fd in ((gm, fd_gm), (gds, fd_gds)):
        # zero-current cells would make a pure relative error 0/0; the floor
        # ties "relative" to the largest derivative on the grid
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)),
                           1e-6 * np.abs(a).max())
        assert np.max(np.abs(a - fd) / denom) < 1e-6


def test_lambda_sets_saturation_slope(pcard):
    # deep in saturation the residual slope of the order-m clamp decays
    # algebraically; the lam term must dominate it and match i*lam/(1+lam|vds|)
    vgs = np.full(3, -5.0)
    vds = np.array([-24.0, -27.0, -30.0])
    g0 = np.abs(output_conductance(pcard.replace(lam=0.0), vgs, vds))
    g1 = np.abs(output_conductance(pcard, vgs, vds))
    assert np.all(g0 < 0.05 * g1), "lam=0 slope must vanish against the lam term"
    expected = np.abs(drain_current(pcard, vgs, vds)) * pcard.lam / (
        1.0 + pcard.lam * np.abs(vds))
    np.testing.assert_allclose(g1, expected, rtol=0.05)
    assert np.all(np.diff(g0) < 0.0), "clamp residual must keep shrinking"


# -- contact-limited evaluation ----------------------------------------------


def test_contacts_zero_rc_is_intrinsic(pcard):
    p0 = pcard.replace(rc=0.0)
    vgs = np.linspace(-30.0, 0.0, 61)
    vds = np.full(vgs.size, -10.0)
    np.testing.assert_allclose(drain_current_with_contacts(p0, vgs, vds),
                               drain_current(p0, vgs, vds), rtol=1e-12)


def test_contacts_reduce_current(pcard):
    vgs = np.linspace(-30.0, -5.0, 26)
    vds = np.full(vgs.size, -10.0)
    lossy = np.abs(drain_current_with_contacts(pcard, vgs, vds))
    ideal = np.abs(drain_current(pcard, vgs, vds))
    assert np.all(lossy < ideal)
    assert np.all(lossy > 0.55 * ideal)  # 30k on this device is a mild drop


def test_contacts_solve_consistency(pcard):
    # the reported current must satisfy the series-resistor KVL split
    vgs, vds = -25.0, -18.0
    i = float(drain_current_with_contacts(pcard, vgs, vds))
    drop = i * pcard.rc / 2.0
    i_check = float(drain_current(pcard, vgs - drop, vds - 2.0 * drop))
    assert abs(i - i_check) <= 1e-9 * abs(i)


def test_on_current_order_of_magnitude(pcard):
    i_on = abs(float(drain_current_with_contacts(pcard, -5.0, -5.0)))
    assert 0.3e-6 < i_on < 30e-6


# -- geometry, capacitance, dielectric ---------------------------------------


def test_device_capacitances_scale_with_width(pcard):
    cgs1, cgd1 = device_capacitances(pcard)
    wide = pcard.replace(geom=DeviceGeometry(w=2 * REF_GEOM.w, l=REF_GEOM.l,
                                             lov=REF_GEOM.lov))
    cgs2, cgd2 = device_capacitances(wide)
    assert cgs1 > 0.0 and cgd1 > 0.0
    assert abs(cgs2 - 2 * cgs1) < 1e-18 and abs(cgd2 - 2 * cgd1) < 1e-18


# -- strain ------------------------------------------------------------------


def test_strain_zero_is_identity(pcard):
    out = apply_strain(pcard, StrainState(0.0, "parallel"))
    assert out == pcard
    out = apply_strain(pcard, StrainState(0.0, "perpendicular"))
    assert out == pcard


def test_strain_parallel_mobility_drop(pcard):
    out = apply_strain(pcard, StrainState(0.5, "parallel"))
    assert out.mu0 == pytest.approx(pcard.mu0 * 0.67, rel=0.0, abs=0.0)


def test_strain_parallel_length_scale(pcard):
    out = apply_strain(pcard, StrainState(1.0, "parallel"))
    assert out.geom.l == pytest.approx(pcard.geom.l * 1.42, rel=1e-12)
    assert out.geom.lov == pytest.approx(pcard.geom.lov * 1.42, rel=1e-12)


def test_strain_perpendicular_keeps_mobility(pcard):
    for eps in (0.25, 0.5, 1.0):
        out = apply_strain(pcard, StrainState(eps, "perpendicular"))
        assert out.mu0 == pcard.mu0
        assert out.geom.w > pcard.geom.w  # width lies along the pull


def test_strain_deterministic(pcard):
    s = StrainState(0.37, "parallel")
    a = apply_strain(pcard, s)
    b = apply_strain(pcard, s)
    assert a == b


def test_strain_table_flat_extrapolation(pcard):
    curves = load_strain_table()
    assert set(curves) == {(q, o) for q in ("length_scale", "mobility_retention")
                           for o in ("parallel", "perpendicular")}
    for orientation in ("parallel", "perpendicular"):
        strains, values = curves["mobility_retention", orientation]
        assert np.interp(5.0, strains, values) == values[-1]
        assert apply_strain(pcard, StrainState(5.0, orientation)).mu0 == \
            apply_strain(pcard, StrainState(strains[-1], orientation)).mu0


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(mu0=-1e-5), dict(ss=0.0), dict(gamma=-0.1), dict(rc=-1.0),
    dict(cox=0.0), dict(lam=-0.01), dict(polarity="x"), dict(order=0.5),
    dict(vth=float("nan")),
])
def test_parameter_validation(bad):
    with pytest.raises(ParameterError):
        ref_params(**bad)


def test_geometry_validation():
    with pytest.raises(ParameterError):
        DeviceGeometry(w=0.0, l=1e-6)
    with pytest.raises(ParameterError):
        DeviceGeometry(w=1e-6, l=1e-6, lov=-1e-9)


def test_scalar_and_array_shapes(pcard):
    assert isinstance(drain_current(pcard, -10.0, -10.0), float)
    out = drain_current(pcard, np.zeros((3, 4)) - 10.0, np.zeros((3, 4)) - 5.0)
    assert out.shape == (3, 4)


def test_kernel_args_are_the_card_in_kernel_order():
    # each card argument sits at the otft_eval parameter it names, and
    # feeding them to the kernel gives the model's drain current bit for bit
    names = list(inspect.signature(kernels.otft_eval).parameters)[2:10]
    vg = np.linspace(-20.0, 20.0, 41)
    vd = np.linspace(15.0, -15.0, 41)
    for p in random_cards(6, seed=31):
        want = {"sign": p.sign, "kwl": p.geom.w / p.geom.l * p.cox, "mu0": p.mu0,
                "vthn": p.sign * p.vth, "ss": p.ss, "gamma": p.gamma, "lam": p.lam,
                "order": p.order}
        args = kernel_args(p)
        assert dict(zip(names, args)) == want
        sign, kwl, mu0, vthn, ss, gamma, lam, order = args
        got = kernels.otft_eval(vg, vd, sign, kwl, mu0, vthn, ss, np.full(41, gamma),
                                lam, np.full(41, order))[0]
        assert np.array_equal(got.view(np.int64), drain_current(p, vg, vd).view(np.int64))
