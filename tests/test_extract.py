"""Extraction and fitting tests: round trips, scale consistency, TLM,
CSV schema handling, and batch statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ref_params, synth_output, synth_transfer
from ofetsim import extract, fixtures, kernels
from ofetsim.extract import (
    FitError,
    IvSweep,
    SchemaError,
    TlmDataset,
    batch_statistics,
    contact_fraction,
    extract_saturation_mobility,
    extract_subthreshold_swing,
    extraction_report,
    fit_model,
    gm_max_per_width,
    on_off_ratio,
    read_iv_csv,
    tlm_contact_resistance,
    write_iv_csv,
)
from ofetsim.model import DeviceGeometry, OtftParams, drain_current_with_contacts


# -- round trips -------------------------------------------------------------


def test_noise_free_round_trip():
    p = ref_params(rc=0.0, lam=0.0)
    s = synth_transfer(p, vds=-30.0)
    sat = extract_saturation_mobility(s)
    mu = p.mu0  # gamma = 0, so the prefactor is the mobility
    assert abs(sat.mu_sat - mu) / mu < 0.01
    assert abs(sat.vth - p.vth) < 0.020
    # the window method reads SS off the deep exponential tail, so the sweep
    # must resolve it: 20 mV steps put whole 5-point windows below Vth
    fine = synth_transfer(p, vds=-30.0, step=0.02)
    ss = extract_subthreshold_swing(fine)
    assert abs(ss - p.ss) / p.ss < 0.02


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_round_trip(seed):
    p = ref_params(rc=0.0, lam=0.0)
    s = synth_transfer(p, vds=-30.0, noise=0.01, seed=seed)
    sat = extract_saturation_mobility(s)
    assert abs(sat.mu_sat - p.mu0) / p.mu0 < 0.10


def test_fit_recovers_all_free_parameters():
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0),
              synth_output(p, vgs=-20.0), synth_output(p, vgs=-30.0)]
    res = fit_model(sweeps, polarity="p")
    assert res.converged
    for name in ("mu0", "vth", "ss", "lam", "rc"):
        got, want = getattr(res.params, name), getattr(p, name)
        assert abs(got - want) <= 0.05 * abs(want), name


def test_fit_cost_monotone_and_positive():
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0, noise=0.005, seed=3),
              synth_output(p, vgs=-30.0, noise=0.005, seed=4)]
    try:
        res = fit_model(sweeps, polarity="p")
    except FitError as e:  # monotonicity must hold even on a stalled fit
        res = e.best
    hist = np.array(res.cost_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) < 0.0), "accepted steps must strictly decrease cost"
    assert res.cost == hist[-1]


def test_fit_with_held_threshold():
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0), synth_output(p, vgs=-30.0)]
    res = fit_model(sweeps, polarity="p", vth=p.vth)
    assert res.params.vth == p.vth


# finite-difference step floors for parameters that may sit at or near 0
_FD_FLOOR = {"vth": 1.0, "gamma": 0.1, "rc": 1e4}


@pytest.mark.parametrize("rc", [30e3, 0.0])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
@pytest.mark.parametrize("held_vth", [False, True])
def test_fit_jacobian_matches_differences(rc, gamma, held_vth):
    # the implicit-differentiation Jacobian against differences of the
    # residuals through the contact solve; two geometries make two batches
    p = ref_params(rc=rc, gamma=gamma, mu0=2.2e-5, vth=-0.7, ss=0.2, lam=0.02)
    short = p.replace(geom=DeviceGeometry(w=380e-6, l=10e-6, lov=5e-6))
    sweeps = [synth_transfer(p, vds=-30.0), synth_transfer(p, vds=-2.0),
              synth_output(p, vgs=-20.0), synth_output(short, vgs=-30.0)]
    groups = extract._bias_groups(sweeps)
    assert [g.vg.size for g in groups] == [303, 61]
    fields = [f for f in extract.FIT_FIELDS if not (held_vth and f == "vth")]
    r, im = extract._residuals(p, groups, 1e-9)
    jac = extract._jacobian(p, fields, groups, im, 1e-9)
    assert jac.shape == (r.size, len(fields))
    for j, f in enumerate(fields):
        x = getattr(p, f)
        h = 1e-5 * max(abs(x), _FD_FLOOR.get(f, 0.0))

        def res(d):
            return extract._residuals(p.replace(**{f: x + d}), groups, 1e-9)[0]

        if x == 0.0:  # on the lower bound: one-sided, second order
            fd = (-3.0 * r + 4.0 * res(h) - res(2.0 * h)) / (2.0 * h)
        else:
            fd = (res(h) - res(-h)) / (2.0 * h)
        assert np.abs(jac[:, j] - fd).max() <= 1e-6 * np.abs(fd).max(), f


def test_fit_converges_where_gamma_trades_off_rc(tmp_path):
    # gamma 0.26 and rc 22.75 kOhm with 0.5 % + 0.15 pA noise from stream 0:
    # clamping after each step crawled along a bound and ran out of
    # iterations here; holding bound-pinned parameters converges
    card = OtftParams(polarity="p", mu0=2.2565e-5, vth=-0.69167, ss=0.18548,
                      lam=0.016665, gamma=0.26478, rc=22750.0, cox=3.5e-4,
                      geom=DeviceGeometry(w=380e-6, l=35e-6, lov=5e-6))
    rng = np.random.default_rng(0)

    def noisy(i):
        return i * (1.0 + 0.005 * rng.standard_normal(i.shape)) \
            + 1.5e-13 * rng.standard_normal(i.shape)

    v = np.arange(0.0, -30.25, -0.25)
    sweeps = [IvSweep("transfer", "d", card.geom, card.cox, -30.0, v,
                      noisy(drain_current_with_contacts(card, v, -30.0)))]
    v = np.arange(0.0, -30.5, -0.5)
    for vgs in (-10.0, -20.0, -30.0):
        sweeps.append(IvSweep("output", "d", card.geom, card.cox, vgs, v,
                              noisy(drain_current_with_contacts(card, vgs, v))))
    path = tmp_path / "iv.csv"
    write_iv_csv(path, sweeps)
    sweeps = read_iv_csv(path)
    res = fit_model(sweeps, polarity="p")
    assert res.converged and res.iterations < 20
    r, _ = extract._residuals(card, extract._bias_groups(sweeps), 1e-9)
    assert res.cost <= float(r @ r)


def test_reference_fit_kernel_budget(monkeypatch):
    calls = []
    kernel = kernels.otft_eval

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(kernels, "otft_eval", counted)
    res = fit_model(read_iv_csv(fixtures.path("reference_p_iv.csv")), polarity="p")
    assert len(calls) <= 200
    assert res.converged
    assert res.params.gamma == 0.0 and res.at_bound == ("gamma",)


def test_scale_consistency():
    p = ref_params(rc=0.0, lam=0.0)
    s = synth_transfer(p, vds=-30.0, step=0.02)
    a = extract_saturation_mobility(s)
    ss_a = extract_subthreshold_swing(s)
    for c in (10.0, 0.01):
        scaled = IvSweep(device_id=s.device_id, kind=s.kind, geom=s.geom,
                         cox=s.cox, fixed_bias=s.fixed_bias, v=s.v, i=s.i * c)
        b = extract_saturation_mobility(scaled)
        assert abs(b.mu_sat - c * a.mu_sat) < 1e-9 * c * a.mu_sat
        assert abs(b.vth - a.vth) < 1e-9
        # the absolute noise floor is the one deliberate scale breaker, so it
        # is scaled along with the currents here
        ss_b = extract_subthreshold_swing(scaled, floor=1e-13 * c)
        assert abs(ss_b - ss_a) < 1e-9


def test_gm_per_width_order_of_magnitude():
    # linear-regime transconductance per width for the calibrated card must
    # land within a decade of 3.7e-4 S/m at |VDS| = 5 V
    s = synth_transfer(ref_params(), vds=-5.0)
    g = gm_max_per_width(s)
    assert 3.7e-5 < g < 3.7e-3


def test_dual_branch_csv_keeps_forward(tmp_path):
    # a single up-down pass in the CSV is split and the forward branch kept
    p = ref_params(rc=0.0, lam=0.0)
    s = synth_transfer(p, vds=-30.0)
    path = tmp_path / "hyst.csv"
    with open(path, "w") as fh:
        fh.write(",".join(extract.CSV_COLUMNS) + "\n")
        vs = np.concatenate([s.v, s.v[::-1][1:]])
        cs = np.concatenate([s.i, s.i[::-1][1:] * 1.05])  # return branch off
        for v, i in zip(vs, cs):
            fh.write(f"d,transfer,380,35,5,35,-30,{float(v)!r},{float(i)!r}\n")
    back = read_iv_csv(path)
    assert len(back) == 1
    assert back[0].v.size == s.v.size
    np.testing.assert_allclose(back[0].i, s.i, rtol=0, atol=0)


# -- TLM ---------------------------------------------------------------------


def test_tlm_exact_on_clean_lines():
    rc_w = 8.0e-3   # ohm * m
    sheet = 1.0e8   # channel resistance slope, ohm * m / m
    lengths = (2e-6, 5e-6, 15e-6, 35e-6)
    rows = tuple((l, rc_w + sheet * l) for l in lengths)
    fit = tlm_contact_resistance(TlmDataset(v_ov=-20.0, rows=rows))
    assert abs(fit.rc_w - rc_w) < 1e-9 * rc_w
    assert abs(fit.r_sheet - sheet) < 1e-9 * sheet
    assert fit.r2 > 1.0 - 1e-12
    assert not fit.suspect_intercept


def test_tlm_from_forward_model():
    p = ref_params(lam=0.0)
    vgs, vds = -30.0, -0.5
    rc_w_true = p.rc * p.geom.w  # ohm * m
    ls, rows = [], []
    for l_um in (2.0, 5.0, 15.0, 35.0):
        geom = p.geom
        pl = p.replace(geom=geom.__class__(w=geom.w, l=l_um * 1e-6,
                                           lov=geom.lov))
        i = float(drain_current_with_contacts(pl, vgs, vds))
        ls.append(l_um * 1e-6)
        rows.append((l_um * 1e-6, abs(vds / i) * geom.w))
    fit = tlm_contact_resistance(TlmDataset(v_ov=vgs - ref_params().vth,
                                            rows=tuple(rows)))
    assert abs(fit.rc_w - rc_w_true) / rc_w_true < 0.05
    fracs = [contact_fraction(fit, l) for l in ls]
    assert fracs == sorted(fracs, reverse=True), \
        "contact share must grow as L shrinks"
    assert fracs[0] > fracs[2]  # below 15 um the contacts dominate more


def test_tlm_needs_three_lengths():
    with pytest.raises(ValueError):
        TlmDataset(v_ov=-20.0, rows=((5e-6, 1.0), (15e-6, 2.0)))


# -- figures of merit and reports --------------------------------------------


def test_on_off_and_report():
    s = synth_transfer(ref_params(), vds=-30.0)
    assert on_off_ratio(s) > 1e5
    rep = extraction_report(s)
    assert rep.on_off > 1e5 and rep.ss > 0.0 and rep.mu_sat > 0.0
    assert rep.fit_window[0] < rep.fit_window[1]
    assert rep.diagnostics["r2"] > 0.999


def test_batch_statistics_histograms():
    reports = []
    for k, mu in enumerate((2.0e-5, 2.4e-5, 2.8e-5)):
        s = synth_transfer(ref_params(mu0=mu, rc=0.0), vds=-30.0,
                           device_id=f"d{k}")
        reports.append(extraction_report(s))
    summary = batch_statistics(reports)
    assert summary.count == 3
    st = summary.metrics["mu_sat"]
    assert st.std > 0.0
    assert sum(st.counts) == 3
    assert summary.metrics["on_off"].log_bins


def test_batch_statistics_degenerate_single():
    s = synth_transfer(ref_params(), vds=-30.0)
    summary = batch_statistics([extraction_report(s)])
    for st in summary.metrics.values():
        assert st.std == 0.0
        assert sum(st.counts) == 1


# -- CSV schema --------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0, device_id="a"),
              synth_output(p, vgs=-20.0, device_id="a")]
    path = tmp_path / "iv.csv"
    write_iv_csv(path, sweeps)
    back = read_iv_csv(path)
    assert len(back) == 2
    for x, y in zip(sweeps, back):
        assert x.kind == y.kind and x.device_id == y.device_id
        np.testing.assert_allclose(x.v, y.v, rtol=0, atol=0)
        np.testing.assert_allclose(x.i, y.i, rtol=0, atol=0)
        # geometry passes through a um conversion, so exact to rounding only
        assert x.geom.w == pytest.approx(y.geom.w, rel=1e-12)
        assert x.geom.l == pytest.approx(y.geom.l, rel=1e-12)


_HEADER = "device_id,kind,W_um,L_um,LOV_um,cox_nF_cm2,fixed_bias_V,v_V,id_A\n"


def _sweep_rows(n, dev="d", cox=35, v=None, i="-1e-9"):
    """n transfer rows of one sweep; v cycles through the given values, or runs 0, -0.5, ..."""
    vs = [-0.5 * k for k in range(n)] if v is None else [v[k % len(v)] for k in range(n)]
    return "".join(f"{dev},transfer,380,35,5,{cox},-30,{x},{i}\n" for x in vs)


@pytest.mark.parametrize("body,needle", [
    ("device_id,kind\n", "missing column"),
    (_HEADER + "d,transfer,380,35,5,35,-30,abc,1e-9\n", "line 2"),
    (_HEADER + "d,bogus,380,35,5,35,-30,0,1e-9\n", "kind"),
    (_HEADER + "d,transfer,380,35,5,35,-30,0\n", "cells"),
    ("# only comments\n", "empty"),
    # sweep-level errors point at the sweep's first line
    (_HEADER + _sweep_rows(7), "line 2: transfer sweep of 'd': sweep needs >= 8 points"),
    # a second direction reversal is an error where it starts, not a silent cut
    (_HEADER + _sweep_rows(10) + _sweep_rows(10, dev="e", v=[0, 1]),
     "line 14: transfer sweep of 'e': second direction reversal"),
    (_HEADER + _sweep_rows(28, v=[-0.5 * k for k in range(10)]
                           + [-0.5 * k for k in range(8, -1, -1)]
                           + [-0.5 * k for k in range(1, 10)]),
     "line 20: transfer sweep of 'd': second direction reversal"),
    (_HEADER + _sweep_rows(10, i="nan"),
     "line 2: transfer sweep of 'd': sweep contains non-finite"),
    (_HEADER + _sweep_rows(10, cox=0), "line 2: column cox_nF_cm2: must be positive, got 0.0"),
    (_HEADER + _sweep_rows(10, cox=-35), "line 2: column cox_nF_cm2: must be positive, got -35.0"),
])
def test_csv_schema_errors(tmp_path, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(SchemaError) as err:
        read_iv_csv(path)
    assert needle.lower() in str(err.value).lower()


def test_csv_comments_and_blank_lines(tmp_path):
    lines = ["# instrument log line", _HEADER.strip(), ""]
    for k in range(10):
        lines.append(f"d,transfer,380,35,5,35,-30,{-k * 0.5},-1e-{9 + k}")
    lines.insert(6, "# midstream comment")
    path = tmp_path / "c.csv"
    path.write_text("\n".join(lines) + "\n")
    sweeps = read_iv_csv(path)
    assert len(sweeps) == 1 and sweeps[0].v.size == 10


def test_fit_error_carries_best_result():
    # a subthreshold-only scrap cannot constrain five parameters; the fit
    # either stalls honestly or raises with its best attempt attached
    v = -0.05 * np.arange(10)
    s = IvSweep(device_id="d", kind="transfer", geom=ref_params().geom,
                cox=3.5e-4, fixed_bias=-30.0,
                v=v, i=-1e-13 * np.exp(-v / 0.2))
    try:
        res = fit_model([s], polarity="p")
        assert res.converged or "stagnated" in res.message
    except (FitError, extract.ExtractionError) as e:
        if isinstance(e, FitError):
            assert not e.best.converged
