"""Extraction and fitting tests: round trips, scale consistency, TLM,
CSV schema handling, and batch statistics.  The one-pass CSV reader and the
all-windows line fits are checked against the row-by-row reader and the
per-window np.polyfit loop they replace, kept here as references."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ofetsim.model import (
    DeviceGeometry,
    OtftParams,
    ParameterError,
    drain_current_with_contacts,
)


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


@pytest.mark.parametrize("vth", [1e308, -1e308, 1e100, -100.5, math.nan])
def test_held_threshold_outside_bounds(vth):
    # the fit's own vth bounds also hold a fixed vth; 1e308 raised from the
    # kernel, -1e308 as a NaN mobility, and 1e100 was fitted and returned
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0), synth_output(p, vgs=-30.0)]
    with pytest.raises(ParameterError, match=r"held vth must be within \[-100, 100\] V, got "):
        fit_model(sweeps, polarity="p", vth=vth)


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


# ids with a comma or a quote are written in quotes, as csv.QUOTE_MINIMAL
# does; unquoted, a quote only opens a quoted cell at the cell's start
@pytest.mark.parametrize("dev", ["a", "dev,1", 'de"v', '"dev'])
def test_csv_round_trip(tmp_path, dev):
    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0, device_id=dev),
              synth_output(p, vgs=-20.0, device_id=dev)]
    path = tmp_path / "iv.csv"
    write_iv_csv(path, sweeps)
    # each sweep's key cells are formatted once: the bytes are still those
    # of one csv.writer row per point
    want = io.StringIO()
    rows = csv.writer(want, lineterminator="\n")
    rows.writerow(extract.CSV_COLUMNS)
    for s in sweeps:
        g = s.geom
        rows.writerows((s.device_id, s.kind, g.w * 1e6, g.l * 1e6, g.lov * 1e6, s.cox * 1e5,
                        s.fixed_bias, v, i) for v, i in zip(s.v.tolist(), s.i.tolist()))
    assert path.read_bytes() == want.getvalue().encode()
    back = read_iv_csv(path)
    assert len(back) == 2
    for x, y in zip(sweeps, back):
        assert x.kind == y.kind and x.device_id == y.device_id
        np.testing.assert_allclose(x.v, y.v, rtol=0, atol=0)
        np.testing.assert_allclose(x.i, y.i, rtol=0, atol=0)
        # geometry passes through a um conversion, so exact to rounding only
        assert x.geom.w == pytest.approx(y.geom.w, rel=1e-12)
        assert x.geom.l == pytest.approx(y.geom.l, rel=1e-12)


@pytest.mark.parametrize("dev", ["a\nb", "a\rb"])
def test_sweep_id_may_not_hold_a_line_break(dev):
    # written, such an id would span two lines, which the reader rejects
    with pytest.raises(ValueError, match="device id may not hold a line break"):
        synth_transfer(ref_params(), vds=-30.0, device_id=dev)


_HEADER = "device_id,kind,W_um,L_um,LOV_um,cox_nF_cm2,fixed_bias_V,v_V,id_A\n"


def _sweep_rows(n, dev="d", cox=35, v=None, i="-1e-9", geom="380,35,5", fb=-30):
    """n transfer rows of one sweep; v cycles through the given values, or runs 0, -0.5, ..."""
    vs = [-0.5 * k for k in range(n)] if v is None else [v[k % len(v)] for k in range(n)]
    return "".join(f"{dev},transfer,{geom},{cox},{fb},{x},{i}\n" for x in vs)


_SCHEMA_CASES = [
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
    # a non-finite fixed bias is an error at its sweep's first line, before
    # the point count (a NaN split each row into a sweep of one point)
    (_HEADER + _sweep_rows(10, fb="nan"),
     "line 2: transfer sweep of 'd': fixed bias must be finite, got nan"),
    (_HEADER + _sweep_rows(10) + _sweep_rows(10, fb="inf"),
     "line 12: transfer sweep of 'd': fixed bias must be finite, got inf"),
    (_HEADER + _sweep_rows(3, fb="-inf"),
     "line 2: transfer sweep of 'd': fixed bias must be finite, got -inf"),
    # a finite bias beyond 1 MV, before the point count
    (_HEADER + _sweep_rows(3, fb="-1e300"),
     "line 2: transfer sweep of 'd': fixed bias must be at most 1e+06 V in magnitude, "
     "got -1e+300"),
    (_HEADER + _sweep_rows(10) + _sweep_rows(10, dev="e", v=[-0.5 * k for k in range(9)] + [-2e6]),
     "line 12: transfer sweep of 'e': swept voltage must be at most 1e+06 V in magnitude, "
     "got -2000000.0 at point 10"),
    (_HEADER + _sweep_rows(10, cox=-35), "line 2: column cox_nF_cm2: must be positive, got -35.0"),
    # geometry is checked in the CSV's units, at the sweep's first line
    (_HEADER + _sweep_rows(10) + _sweep_rows(10, geom="0,35,5"),
     "line 12: column W_um: must be positive, got 0.0"),
    (_HEADER + _sweep_rows(10, geom="380,-35,5"), "line 2: column L_um: must be positive, got -35.0"),
    (_HEADER + _sweep_rows(10, geom="nan,35,5"), "line 2: column W_um: must be positive, got nan"),
    (_HEADER + _sweep_rows(10, geom="380,35,-1"), "line 2: column LOV_um: must be >= 0, got -1.0"),
    (_HEADER + _sweep_rows(10, geom="380,35,nan"), "line 2: column LOV_um: must be >= 0, got nan"),
    # a second reversal, then cox, then geometry
    (_HEADER + _sweep_rows(10, cox=0, geom="0,0,-1"),
     "line 2: column cox_nF_cm2: must be positive, got 0.0"),
    (_HEADER + _sweep_rows(10, v=[0, 1], geom="0,35,5"),
     "line 4: transfer sweep of 'd': second direction reversal"),
    (_HEADER + _sweep_rows(10, geom="380,0,-1"), "line 2: column L_um: must be positive, got 0.0"),
    # a cell past csv's 131,072-character field limit
    pytest.param(_HEADER + _sweep_rows(3) + "d,transfer,380,35,5,35,-30,-2,-1"
                 + "0" * 140000 + "\n", "line 5: field larger than field limit (131072)",
                 id="cell-past-field-limit"),
    # two errors in one file: the earlier check wins wherever it sits
    (_HEADER + "d,transfer,380,35,5,35,-30,abc,1e-9\n" + "d,transfer,380,35,5,35,-30,0\n",
     "line 3: expected 9 cells, got 8"),
    (_HEADER + _sweep_rows(7) + "d,transfer,380,35,5,35,-30,0,1e-9,7\n",
     "line 9: expected 9 cells, got 10"),
    (_HEADER + _sweep_rows(10, i="nan") + "d,transfer,380,35,5,35,-30,-6,x\n",
     "line 12: column id_A: not a number: 'x'"),
    (_HEADER + "d,transfer,380,35,5,35,-30,0,bad\n" + "d,sideways,380,35,5,35,-30,0,1e-9\n",
     "line 2: column id_A: not a number: 'bad'"),
    (_HEADER + "d,sideways,380,35,5,35,-30,0,1e-9\n" + "d,transfer,380,35,5,35,-30,x,1e-9\n",
     "line 2: column kind: must be transfer or output, got 'sideways'"),
    # within a row the cells are checked in schema order, not file order
    ("id_A,v_V,fixed_bias_V,cox_nF_cm2,LOV_um,L_um,W_um,kind,device_id\n"
     "x,y,-30,35,5,35,w,transfer,d\n", "line 2: column W_um: not a number: 'w'"),
    ("missing,header\n" + "d,transfer,380,35,5,35,-30,abc\n", "line 1: missing column"),
    (_HEADER + _sweep_rows(10) + _sweep_rows(10, dev="e", v=[0, 1])
     + "\n# late\ne,transfer,380,35,5,35,-30,0,-1e-9,9\n",
     "line 24: expected 9 cells, got 10"),
]


@pytest.mark.parametrize("body,needle", _SCHEMA_CASES)
def test_csv_schema_errors(tmp_path, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(SchemaError) as err:
        read_iv_csv(path)
    assert needle.lower() in str(err.value).lower()


def test_csv_repeated_column(tmp_path):
    # a second v_V column was read as nothing; now it names the column
    path = tmp_path / "dup.csv"
    path.write_text("# repeated v_V\n" + _HEADER.strip() + ",v_V\n"
                    + _sweep_rows(10).replace("\n", ",1\n"))
    with pytest.raises(SchemaError) as err:
        read_iv_csv(path)
    assert str(err.value) == "line 2: repeated column(s) v_V"
    assert err.value.line == 2


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


# -- one-pass reader against the row-by-row reference -------------------------


def _serial_read_iv_csv(path, device=None):
    """Row by row: one csv.reader and seven checked float() calls per row,
    each row's key compared with its sweep's first row; a NaN in it, which
    equals nothing, continues the sweep only where the key cells read as
    the row before's.  The reference for read_iv_csv, which reads the same
    file column by column.  With a device id, every other row is skipped
    unchecked and ends the sweep before it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                cells = next(csv.reader([line]))
            except csv.Error as e:
                raise SchemaError(str(e), lineno) from None
            if header is None:
                header = [c.strip() for c in cells]
                missing = [c for c in extract.CSV_COLUMNS if c not in header]
                if missing:
                    raise SchemaError(f"missing column(s) {', '.join(missing)}", lineno)
                unknown = [c for c in header if c not in extract.CSV_COLUMNS]
                if unknown:
                    raise SchemaError(f"unknown column(s) {', '.join(unknown)}", lineno)
                idx = {c: header.index(c) for c in extract.CSV_COLUMNS}
                continue
            d = idx["device_id"]
            if device is not None and (len(cells) <= d or cells[d].strip() != device):
                rows.append((lineno, None))
                continue
            if len(cells) != len(header):
                raise SchemaError(
                    f"expected {len(header)} cells, got {len(cells)}", lineno)
            rows.append((lineno, cells))
    if header is None:
        raise SchemaError("empty file: no header row")

    def fval(cells, col, lineno):
        text = cells[idx[col]].strip()
        try:
            return float(text)
        except ValueError:
            raise SchemaError(f"column {col}: not a number: {text!r}", lineno) from None

    groups = []   # key, lines, v, i
    before = None   # the key cells of the row before
    for lineno, cells in rows:
        if cells is None:   # another device's row
            groups.append((None, [], [], []))
            before = None
            continue
        kind = cells[idx["kind"]].strip().lower()
        if kind not in ("transfer", "output"):
            raise SchemaError(f"column kind: must be transfer or output, got {kind!r}", lineno)
        key = (cells[idx["device_id"]].strip(), kind,
               *(fval(cells, c, lineno) for c in extract.CSV_COLUMNS[2:7]))
        v = fval(cells, "v_V", lineno)
        i = fval(cells, "id_A", lineno)
        text = [cells[idx[c]] for c in extract.CSV_COLUMNS[:7]]
        if not groups or groups[-1][0] != key and text != before:
            groups.append((key, [], [], []))
        before = text
        groups[-1][1].append(lineno)
        groups[-1][2].append(v)
        groups[-1][3].append(i)

    sweeps = []
    for (dev, kind, w, l, lov, cox, fb), lines, vs, cs in (g for g in groups if g[0]):
        first = lines[0]
        v = np.array(vs)
        i = np.array(cs)
        dv = np.diff(v)
        if len(v) >= 3 and not (np.all(dv > 0) or np.all(dv < 0)):
            sgn = np.sign(dv[0])
            turn = int(np.argmax(np.sign(dv) != sgn)) + 1
            back = np.nonzero(np.sign(dv[turn:]) == sgn)[0]
            if back.size:
                raise SchemaError(f"{kind} sweep of {dev!r}: second direction "
                                  "reversal; split the sweep", lines[turn + back[0]])
            v, i = v[:turn], i[:turn]
        if not cox > 0.0:
            raise SchemaError(f"column cox_nF_cm2: must be positive, got {cox}", first)
        if not w > 0.0:
            raise SchemaError(f"column W_um: must be positive, got {w}", first)
        if not l > 0.0:
            raise SchemaError(f"column L_um: must be positive, got {l}", first)
        if not lov >= 0.0:
            raise SchemaError(f"column LOV_um: must be >= 0, got {lov}", first)
        try:
            geom = DeviceGeometry(w=w * 1e-6, l=l * 1e-6, lov=lov * 1e-6)
            sweeps.append(IvSweep(kind=kind, device_id=dev, geom=geom, cox=cox * 1e-5,
                                  fixed_bias=fb, v=v, i=i))
        except ValueError as e:
            raise SchemaError(f"{kind} sweep of {dev!r}: {e}", first) from None
    return sweeps


def _read_both(path, device=None):
    """What each reader makes of the file (of one device's rows, given its
    id): its sweeps, or its error's message and line."""
    out = []
    for read in (read_iv_csv, _serial_read_iv_csv):
        try:
            out.append(read(path, device))
        except SchemaError as e:
            out.append((type(e), str(e), e.line))
    return out


def _assert_same_reading(path):
    _assert_same_sweeps(*_read_both(path))


def _assert_same_sweeps(got, want):
    """The same sweeps, bit for bit, or the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, list) and len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.kind, a.device_id, a.geom, a.cox, a.fixed_bias) \
            == (b.kind, b.device_id, b.geom, b.cox, b.fixed_bias)
        assert type(a.cox) is float and type(a.fixed_bias) is float
        for x, y in ((a.v, b.v), (a.i, b.i)):
            assert x.dtype == y.dtype == np.float64
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


def _batch_like_benchmark(path):
    """13 devices of one transfer and three output sweeps, 3,952 rows."""
    sweeps = []
    for k in range(13):
        p = ref_params(mu0=2.35e-5 * (1.0 + 0.02 * k), vth=-0.8 + 0.01 * k)
        sweeps.append(synth_transfer(p, vds=-30.0, noise=0.005, seed=k, device_id=f"dev{k}"))
        sweeps += [synth_output(p, vgs=vgs, noise=0.005, seed=k, device_id=f"dev{k}")
                   for vgs in (-10.0, -20.0, -30.0)]
    write_iv_csv(path, sweeps)


@pytest.mark.parametrize("name", ["reference_p_iv.csv", "batch_3dev_iv.csv", "batch_13dev"])
def test_reader_matches_serial_reference_on_fixtures(tmp_path, name):
    if name == "batch_13dev":
        path = tmp_path / "batch.csv"
        _batch_like_benchmark(path)
        assert len(path.read_text().splitlines()) == 3953
    else:
        path = fixtures.path(name)
    _assert_same_reading(path)
    assert len(read_iv_csv(path)) > 1


def test_reader_reads_an_open_quote_line_by_line(tmp_path):
    # one csv.reader over the whole file would run the open quote on into
    # the following lines, here past csv's 128 KiB field limit
    rows = _sweep_rows(4000).splitlines()
    rows[0] = rows[0].replace(",-1e-9", ',"-1e-9')
    path = tmp_path / "open.csv"
    path.write_text(_HEADER + "\n".join(rows) + "\n")
    assert len(path.read_text()) > csv.field_size_limit()
    _assert_same_reading(path)
    assert read_iv_csv(path)[0].v.size == 4000


def test_reader_reads_open_quotes_at_chunk_edges(tmp_path):
    # kept line k + 1 holds data row k: open quotes on the last line of the
    # first chunk, on the first and on the last line of the second
    edge = extract._CHUNK_LINES
    rows = _sweep_rows(3 * edge).splitlines()
    for k in (edge - 2, edge - 1, 2 * edge - 2):
        rows[k] = rows[k].replace(",-1e-9", ',"-1e-9')
    path = tmp_path / "open.csv"
    path.write_text(_HEADER + "\n".join(rows) + "\n")
    for device in (None, "d"):
        _assert_same_sweeps(*_read_both(path, device))
    assert read_iv_csv(path)[0].v.size == 3 * edge
    # a cell past csv's field size limit in the second chunk, at its line
    rows[edge + 500] += "9" * csv.field_size_limit()
    path.write_text(_HEADER + "\n".join(rows) + "\n")
    got, want = _read_both(path)
    assert want == (SchemaError, f"line {edge + 502}: field larger than field limit "
                                 f"({csv.field_size_limit()})", edge + 502)
    assert got == want


def test_reader_opens_an_open_quote_file_once(tmp_path, monkeypatch):
    # the line-by-line re-read of an open quote works on the lines already
    # read, for the whole file and for one device's rows
    rows = _sweep_rows(20).splitlines()
    rows[0] = rows[0].replace(",-1e-9", ',"-1e-9')
    path = tmp_path / "open.csv"
    path.write_text(_HEADER + _sweep_rows(10, dev="e") + "\n".join(rows) + "\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(extract, "open", counting_open, raising=False)
    for device, sizes in ((None, [10, 20]), ("d", [20])):
        opened.clear()
        assert [s.v.size for s in read_iv_csv(path, device)] == sizes
        assert opened == [path]


@pytest.mark.parametrize("body,needle", _SCHEMA_CASES)
def test_schema_errors_match_serial_reference(tmp_path, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    got, want = _read_both(path)
    assert isinstance(want, tuple) and want[0] is SchemaError and got == want


def _cell(rng, text):
    """One cell as a file might hold it: padded, quoted, or both."""
    text = rng.choice(["", " ", "  ", "\t", "\x1f"]) + text + rng.choice(["", " ", "\t "])
    return f'"{text}"' if "," in text or rng.random() < 0.3 else text


def _number(rng, x):
    forms = [repr(x), f"{x:.17g}", f"{x:.17e}"]
    if math.isfinite(x) and x == int(x):
        forms.append(str(int(x)))
    return _cell(rng, str(rng.choice(forms)))


@st.composite
def measurement_csv(draw):
    """A schema-v1 file with comments, blank lines, CRLF or LF line ends,
    padded and quoted cells, numbers written several ways, hysteresis
    sweeps and several devices; and, in some files, one corrupted cell, an
    extra or a lost cell, a quote left open, or a sweep whose fixed bias is
    not finite (an error at the sweep's first line)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = draw(st.permutations(extract.CSV_COLUMNS))
    lines = [",".join(_cell(rng, c) for c in order)]
    for k in range(draw(st.integers(1, 4))):
        dev = str(rng.choice(["dev1", "dev 2", "d,3", "x"]))
        kind = str(rng.choice(["transfer", "output", "Transfer", "OUTPUT"]))
        n = int(rng.integers(8, 15))
        v = np.linspace(0.0, -0.5 * (n - 1), n)
        if rng.random() < 0.5:
            v = v[::-1]
        if rng.random() < 0.5:   # up-down pass: the forward branch is kept
            v = np.concatenate([v, v[::-1][1:int(rng.integers(2, n + 1))]])
        i = -rng.lognormal(-20.0, 3.0, v.size)
        fixed_bias = (-10.0 - k if rng.random() >= 0.05
                      else float(rng.choice([math.nan, math.inf, -math.inf])))
        key = {}
        for x, y in zip(v.tolist(), i.tolist()):
            if not key or rng.random() < 0.2:   # mostly the same text down a sweep
                key = {"device_id": _cell(rng, dev), "kind": _cell(rng, kind),
                       "W_um": _number(rng, 380.0), "L_um": _number(rng, 35.0),
                       "LOV_um": _number(rng, 5.0), "cox_nF_cm2": _number(rng, 35.0),
                       "fixed_bias_V": _number(rng, fixed_bias)}
            cells = {**key, "v_V": _number(rng, x), "id_A": _number(rng, y)}
            lines.append(",".join(cells[c] for c in order))
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "   ", '# comment, with "quote', "#"])))
    rows = [r for r in range(1, len(lines)) if lines[r].strip()[:1] not in ("", "#")]
    r = int(rng.choice(rows))
    cells = next(csv.reader([lines[r]]))
    fault = draw(st.sampled_from(["none"] * 6 + ["cell", "extra", "lost", "open quote"]))
    if fault == "cell":
        cells[int(rng.integers(len(cells)))] = str(rng.choice(
            ["abc", "", "nan", "-0", "1e999", "sideways", "transfer"]))
    elif fault == "extra":
        cells.append("0")
    elif fault == "lost":
        cells.pop()
    if fault != "none":
        lines[r] = ",".join(f'"{c}"' for c in cells)
    if fault == "open quote":   # ends a row inside a quoted cell
        lines[r] = lines[r][:-1]
    end = str(rng.choice(["\n", "\r\n"]))
    return end.join(lines) + str(rng.choice(["", end]))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(measurement_csv())
def test_reader_matches_serial_reference_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("gen") / "iv.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_reading(path)


# -- one device's rows ----------------------------------------------------------


def _assert_device_parity(path, extra=("nosuch",)):
    """Each device's read is, bit for bit, its share of the full read."""
    full = read_iv_csv(path)
    for d in sorted({s.device_id for s in full}) + list(extra):
        got, want = _read_both(path, d)
        _assert_same_sweeps(got, [s for s in full if s.device_id == d])
        _assert_same_sweeps(got, want)


@pytest.mark.parametrize("name", ["reference_p_iv.csv", "batch_3dev_iv.csv", "batch_13dev"])
def test_device_reader_matches_full_reader_on_fixtures(tmp_path, name):
    if name == "batch_13dev":
        path = tmp_path / "batch.csv"
        _batch_like_benchmark(path)
    else:
        path = fixtures.path(name)
    # "dev" and "ref" are substrings of ids, not ids
    _assert_device_parity(path, extra=("nosuch", "dev", "ref", ""))


def test_reader_skips_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    plain = fixtures.path("batch_3dev_iv.csv")
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for device in (None, "dev2"):
        _assert_same_sweeps(read_iv_csv(path, device), read_iv_csv(plain, device))


def test_device_reader_keeps_the_file_order_of_sweeps(tmp_path):
    # x's rows on both sides of y's, or of "xx"'s, are two sweeps; a comment
    # or a blank line between two rows is not a row and does not split one
    path = tmp_path / "xyx.csv"
    x = _sweep_rows(20, dev="x").splitlines(keepends=True)
    for between in ("y", "xx"):
        path.write_text(_HEADER + "".join(x[:10]) + _sweep_rows(10, dev=between)
                        + "".join(x[10:15]) + "# note\n\n" + "".join(x[15:]))
        _assert_device_parity(path)
        assert [s.v.size for s in read_iv_csv(path, "x")] == [10, 10]


def test_device_reader_on_quoted_ids(tmp_path):
    # a quote in the id is doubled in the file, a comma is quoted; "d" is
    # in every other id's lines; dev1 is written quoted in pieces, which
    # csv reads as dev1, so its lines do not hold its text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [dev, "transfer", 380, 35, 5, 35, -30, -0.5 * k, -1e-9]
        for dev in ('d,"1', "d", 'a,"b', "d", "dev1") for k in range(10))
    text = _HEADER + out.getvalue().replace("dev1,", '"de"v1,')
    path = tmp_path / "quoted.csv"
    assert '"d,""1"' in text and '"de"v1' in text
    path.write_text(text)
    _assert_device_parity(path, extra=("nosuch", '"', ""))
    assert [s.device_id for s in read_iv_csv(path, "d")] == ["d", "d"]


def test_device_reader_reads_an_open_quote_line_by_line(tmp_path):
    rows = _sweep_rows(4000).splitlines()
    rows[0] = rows[0].replace(",-1e-9", ',"-1e-9')
    path = tmp_path / "open.csv"
    path.write_text(_HEADER + _sweep_rows(10, dev="e") + "\n".join(rows) + "\n")
    _assert_device_parity(path)
    assert read_iv_csv(path, "d")[0].v.size == 4000


@pytest.mark.parametrize("body,needle", _SCHEMA_CASES)
def test_device_schema_errors_match_serial_reference(tmp_path, body, needle):
    # every line of these files holds "d" and "e", so both readers parse
    # every line (the serial reference reports a line csv cannot split
    # wherever it is)
    path = tmp_path / "bad.csv"
    path.write_text(body)
    for device in ("d", "e"):
        _assert_same_sweeps(*_read_both(path, device))
    full = _read_both(path)[0]
    first = body.splitlines()[full[2] - 1] if full[2] else ""
    if not first.startswith("e,"):
        # the file's first fault is in its header or in d's rows
        assert _read_both(path, "d")[0] == full


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(measurement_csv())
def test_device_reader_matches_serial_reference_on_generated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("gen") / "iv.csv"
    path.write_bytes(text.encode("utf-8"))
    full = _read_both(path)[0]
    for device in ("dev1", "dev 2", "d,3", "x", "dev", "nosuch"):
        got, want = _read_both(path, device)
        _assert_same_sweeps(got, want)
        if isinstance(full, list):
            _assert_same_sweeps(got, [s for s in full if s.device_id == device])


def test_device_reader_skips_other_devices_faults(tmp_path):
    # y's rows between x's two sweeps hold, in turn, each kind of fault the
    # full reader reports; x reads as if they were sound
    x = _sweep_rows(20, dev="x").splitlines(keepends=True)
    tail = "".join(x[10:])
    sound = tmp_path / "sound.csv"
    sound.write_text(_HEADER + "".join(x[:10]) + _sweep_rows(10, dev="y") + tail)
    want = [s for s in read_iv_csv(sound) if s.device_id == "x"]
    assert len(want) == 2
    path, ref = tmp_path / "bad.csv", tmp_path / "ref.csv"
    for fault in ("y,transfer,380,35,5,35,-30,0\n",
                  "y,sideways,380,35,5,35,-30,0,1e-9\n",
                  "y,transfer,380,35,5,35,-30,-2,-1" + "0" * 140000 + "\n",
                  _sweep_rows(10, dev="y", v=[0, 1]),
                  _sweep_rows(10, dev="y", cox=0),
                  _sweep_rows(5, dev="y")):
        path.write_text(_HEADER + "".join(x[:10]) + fault + tail)
        with pytest.raises(SchemaError):
            read_iv_csv(path)
        _assert_same_sweeps(read_iv_csv(path, "x"), want)
        # a fault in x's own rows is the full reader's error for the file
        # with y's rows made comments
        for old, new in (("-1e-9", "-1e-9,0"), ("-1e-9", "abc"), ("transfer", "sideways")):
            head = _HEADER + "".join(x[:4]) + x[4].replace(old, new) + "".join(x[5:10])
            path.write_text(head + fault + tail)
            ref.write_text(head + "# y\n" * fault.count("\n") + tail)
            got = _read_both(path, "x")[0]
            assert got == _read_both(ref)[0] and got[2] == 6


# -- window fits against a per-window polyfit loop -----------------------------


def _serial_saturation_windows(s):
    """Per-window np.polyfit lines of sqrt|ID| on VGS: {start: (slope,
    intercept, R^2)} over the usable windows, and the first start with the
    largest R^2.  The reference for extract_saturation_mobility."""
    sw = s.ascending
    ai = np.abs(sw.i)
    if not np.any(ai > 0.0):
        raise extract.ExtractionError("all currents are zero")
    y = np.sqrt(ai)
    width = max(4, math.ceil(0.4 * sw.v.size))
    on = np.max(ai)
    fits, best = {}, None
    for start in range(0, sw.v.size - width + 1):
        if np.mean(ai[start:start + width]) < 0.05 * on:
            continue
        xs = sw.v[start:start + width]
        ys = y[start:start + width]
        sst = float(((ys - ys.mean()) ** 2).sum())
        if sst <= 0.0:
            continue
        slope, icpt = np.polyfit(xs, ys, 1)
        ssr = float(((ys - (slope * xs + icpt)) ** 2).sum())
        fits[start] = (float(slope), float(icpt), 1.0 - ssr / sst)
        if best is None or fits[start][2] > fits[best][2]:
            best = start
    if best is None or fits[best][0] == 0.0:
        raise extract.ExtractionError("no usable linear region in sqrt|ID|")
    return fits, best, width


def _serial_swing_windows(s, floor=1e-13):
    """Per-window np.polyfit slopes of VGS on log10|ID|: {start: swing} over
    the valid windows.  The reference for extract_subthreshold_swing."""
    sw = s.ascending
    ai = np.abs(sw.i)
    rng = np.max(ai) / max(float(np.min(ai)), floor)
    if rng < 1e3:
        raise extract.ExtractionError(
            f"dynamic range {rng:.3g} below the 3-decade minimum")
    mask = ai > floor
    swings = {}
    for start in range(0, sw.v.size - 4):
        sl = slice(start, start + 5)
        if not np.all(mask[sl]):
            continue
        x = np.log10(ai[sl])
        if np.ptp(x) <= 0.0:
            continue
        swing = abs(float(np.polyfit(x, sw.v[sl], 1)[0]))
        if swing > 0.0:
            swings[start] = swing
    if not swings:
        raise extract.ExtractionError("no valid 5-point window above the noise floor")
    return swings


def _transfer_sweeps():
    out = [s for name in ("reference_p_iv.csv", "batch_3dev_iv.csv")
           for s in read_iv_csv(fixtures.path(name)) if s.kind == "transfer"]
    for seed in range(6):
        p = ref_params(rc=(0.0, 30e3)[seed % 2], lam=0.0 if seed < 2 else 0.015)
        s = synth_transfer(p, vds=(-30.0, -5.0)[seed % 2], noise=0.01, seed=seed,
                           step=(0.25, 0.1, 0.5)[seed % 3])
        # an additive floor of 0.15 pA puts the off-state in the noise
        floor = 1.5e-13 * np.random.default_rng(seed).standard_normal(s.i.size)
        out.append(IvSweep("transfer", "syn", s.geom, s.cox, s.fixed_bias, s.v, s.i + floor))
    out.append(synth_transfer(ref_params(polarity="n", vth=0.8), vds=30.0, noise=0.02))
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("k", range(len(_transfer_sweeps())))
def test_window_fits_match_polyfit_loop(k):
    s = _transfer_sweeps()[k]
    sw = s.ascending
    fits, best, width = _serial_saturation_windows(s)
    slope, icpt, ssr, sst = extract._window_lines(sw.v, np.sqrt(np.abs(sw.i)), width)
    for start, (m, c, r2) in fits.items():
        assert _rel(slope[start], m) <= 1e-9 and _rel(icpt[start], c) <= 1e-9
        assert _rel(1.0 - ssr[start] / sst[start], r2) <= 1e-9
    sat = extract_saturation_mobility(s)
    m, c, r2 = fits[best]
    assert sat.window == (sw.v[best], sw.v[best + width - 1])
    assert _rel(sat.mu_sat, 2.0 * s.geom.l / (s.geom.w * s.cox) * m * m) <= 1e-9
    assert _rel(sat.vth, -c / m) <= 1e-9 and _rel(sat.r2, r2) <= 1e-9

    swings = _serial_swing_windows(s)
    ai = np.abs(sw.i)
    x = np.log10(np.where(ai > 1e-13, ai, 1.0))
    got = np.abs(extract._window_lines(x, sw.v, 5)[0])
    for start, swing in swings.items():
        assert _rel(got[start], swing) <= 1e-9
    first = min(swings, key=swings.get)
    ss = extract_subthreshold_swing(s)
    assert _rel(ss, swings[first]) <= 1e-9
    assert min(swings, key=lambda j: abs(got[j] - ss)) == first


def _sweep(i, v=None):
    v = -0.25 * np.arange(len(i)) if v is None else v
    return IvSweep("transfer", "d", ref_params().geom, 3.5e-4, -30.0, v, np.asarray(i))


@pytest.mark.parametrize("needle,sweep", [
    ("all currents are zero", _sweep(np.zeros(20))),
    # one spike: every 24-point window averages under 5 % of it
    ("no usable linear region", _sweep(np.where(np.arange(60) == 30, -1e-6, -1e-12))),
    ("below the 3-decade minimum", _sweep(-1e-6 * (1.0 + 0.05 * np.arange(20)))),
    # never 5 points in a row above the 1e-13 floor
    ("no valid 5-point window", _sweep(np.where(np.arange(40) % 4 == 0, -1e-14,
                                                -1e-9 * (1.0 + np.arange(40))))),
])
def test_window_fits_fail_where_polyfit_loop_fails(needle, sweep):
    errors = []
    for fit, serial in ((extract_saturation_mobility, _serial_saturation_windows),
                        (extract_subthreshold_swing, _serial_swing_windows)):
        try:
            serial(sweep)
        except extract.ExtractionError as e:
            errors.append(str(e))
            with pytest.raises(extract.ExtractionError) as err:
                fit(sweep)
            assert str(err.value) == str(e)
        else:
            fit(sweep)
    assert any(needle in e for e in errors)
    with pytest.raises(extract.ExtractionError):
        extraction_report(sweep)
