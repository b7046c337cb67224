"""Release gate: one test per shipped capability, run with pytest -v.

Each test prints as a single pass/fail line and binds the quantitative
tolerance the capability is sold with.  Slow end-to-end cases live here,
not in the per-module files.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import REF_GEOM, ref_params, synth_output, synth_transfer
from test_engine import _random_linear_net

from ofetsim import analyses, extract, fixtures, model, netlist
from ofetsim.engine import (
    SolverConfig,
    dc_operating_point,
    dc_sweep,
    transient,
)
from ofetsim.model import (
    StrainState,
    apply_strain,
    drain_current,
    drain_current_with_contacts,
    output_conductance,
    transconductance,
)


def _max_d2(y: np.ndarray) -> float:
    return float(np.abs(np.diff(y, 2)).max())


def test_c01_linear_dc_matches_dense_oracle_under_1s():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    for _ in range(100):
        text, want = _random_linear_net(rng)
        op = dc_operating_point(netlist.parse(text))
        scale = max(1.0, max(abs(v) for v in want.values()))
        for node, v in want.items():
            assert abs(op[node] - v) <= 1e-12 * scale
    assert time.perf_counter() - t0 < 1.0


def test_c02_rc_transient_accuracy_and_order():
    c = netlist.parse("rc\nv1 in 0 dc 5\nr1 in out 10k\nc1 out 0 100n\n"
                      ".tran 10u 5m\n.end")
    tau = 1e-3
    w = transient(c, c.analyses[0], SolverConfig(lte_tol=1e-4), ic={"out": 0.0})
    want = 5.0 * (1.0 - np.exp(-w.axis / tau))
    assert np.max(np.abs(w.columns["v(out)"] - want)) < 0.001 * 5.0

    errs, hs = [], []
    for frac in (20, 40, 80, 160):
        d = netlist.Tran(step=tau / frac, stop=2 * tau)
        wf = transient(c, d, SolverConfig(method="trap", fixed_step=True),
                       ic={"out": 0.0})
        errs.append(np.max(np.abs(wf.columns["v(out)"]
                                  - 5.0 * (1.0 - np.exp(-wf.axis / tau)))))
        hs.append(tau / frac)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_c03_analytic_derivatives_and_seam_continuity():
    p = ref_params()
    n = 50
    vgs, vds = np.meshgrid(np.linspace(-30.0, 0.0, n),
                           np.linspace(-30.0, -0.01, n))
    vgs, vds = vgs.ravel(), vds.ravel()
    h = 1e-4
    gm = transconductance(p, vgs, vds)
    gds = output_conductance(p, vgs, vds)
    fd_gm = (drain_current(p, vgs + h, vds)
             - drain_current(p, vgs - h, vds)) / (2 * h)
    fd_gds = (drain_current(p, vgs, vds + h)
              - drain_current(p, vgs, vds - h)) / (2 * h)
    for a, fd in ((gm, fd_gm), (gds, fd_gds)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)),
                           1e-6 * np.abs(a).max())
        assert np.max(np.abs(a - fd) / denom) < 1e-6

    # continuity at the regime seams, anchored to the on-state scale
    i_scale = abs(drain_current(p, -30.0, -15.0))
    hs = 3e-5
    for center in (p.vth, -20.0 - p.vth):
        vg = center + hs * np.arange(-5000, 5001)
        i = drain_current(p, vg, np.full(vg.shape, -15.0))
        assert _max_d2(i) / i_scale < 1e-9
    for center in (-19.2, 0.0):
        vd = center + hs * np.arange(-5000, 5001)
        i = drain_current(p, np.full(vd.shape, -20.0), vd)
        assert _max_d2(i) / i_scale < 1e-9


def test_c04_extraction_round_trip_under_10s():
    t0 = time.perf_counter()
    # the slope method assumes an ideal square-law device, so its error
    # budget is stated against one; the LM fit below carries lam and rc
    ideal = ref_params(rc=0.0, lam=0.0)
    clean = synth_transfer(ideal, vds=-30.0, noise=0.0)
    sat = extract.extract_saturation_mobility(clean)
    assert abs(sat.mu_sat - ideal.mu0) <= 0.01 * ideal.mu0
    assert abs(sat.vth - ideal.vth) <= 0.020
    fine = synth_transfer(ideal, vds=-30.0, step=0.02, noise=0.0)
    ss = extract.extract_subthreshold_swing(fine)
    assert abs(ss - ideal.ss) <= 0.02 * ideal.ss

    for seed in (1, 2, 3):
        noisy = synth_transfer(ideal, vds=-30.0, noise=0.01, seed=seed)
        mu_n = extract.extract_saturation_mobility(noisy).mu_sat
        assert abs(mu_n - ideal.mu0) <= 0.10 * ideal.mu0

    p = ref_params()
    sweeps = [synth_transfer(p, vds=-30.0, noise=0.0),
              synth_output(p, vgs=-20.0, noise=0.0),
              synth_output(p, vgs=-30.0, noise=0.0)]
    fit = extract.fit_model(sweeps, polarity="p")
    for field in ("mu0", "vth", "ss", "lam", "rc"):
        got, want = getattr(fit.params, field), getattr(p, field)
        assert abs(got - want) <= 0.05 * abs(want), field
    assert time.perf_counter() - t0 < 10.0


def test_c05_fitted_card_reproduces_reference_data():
    sweeps = extract.read_iv_csv(fixtures.path("reference_p_iv.csv"))
    fit = extract.fit_model(sweeps, polarity="p")
    assert 2.15e-5 < fit.params.mu0 < 2.55e-5  # 0.235 +- 0.020 cm^2/Vs
    for s in sweeps:
        card = fit.params.replace(geom=s.geom, cox=s.cox)
        if s.kind == "transfer":
            im = drain_current_with_contacts(card, s.v,
                                             np.full(s.v.size, s.fixed_bias))
        else:
            im = drain_current_with_contacts(card,
                                             np.full(s.v.size, s.fixed_bias), s.v)
        rms = np.sqrt(np.mean((im - s.i) ** 2))
        assert rms < 0.05 * np.abs(s.i).max(), (s.kind, s.fixed_bias)
    transfer = max((s for s in sweeps if s.kind == "transfer"),
                   key=lambda s: abs(s.fixed_bias))
    assert extract.on_off_ratio(transfer) > 1e5


def test_c06_tlm_contact_resistance():
    p = ref_params()
    w = REF_GEOM.w
    v_ov = -20.0
    rows = []
    for l_um in (2.0, 5.0, 15.0, 35.0):
        card = p.replace(geom=model.DeviceGeometry(w, l_um * 1e-6, REF_GEOM.lov))
        vgs = p.vth + v_ov
        i = float(drain_current_with_contacts(card, vgs, -0.5))
        rows.append((l_um * 1e-6, (-0.5 / i) * w))  # total R * W in linear regime
    fit = extract.tlm_contact_resistance(extract.TlmDataset(v_ov=v_ov,
                                                            rows=tuple(rows)))
    assert abs(fit.rc_w - p.rc * w) <= 0.05 * p.rc * w
    fracs = [extract.contact_fraction(fit, l) for l, _ in rows]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert fracs[0] > 3.0 * fracs[-1]  # short channels are contact-limited


def test_c07_inverter_gain_and_single_crossing():
    cfg = SolverConfig()
    pe = netlist.parse(fixtures.read("inverter_pseudo_e.cir"))
    w = dc_sweep(pe, pe.analyses[0], cfg)
    m = analyses.vtc_metrics(w, vdd=30.0)
    assert m.gain >= 20.0
    d = w.columns["v(out)"] - w.axis
    assert int(np.sum(np.diff(np.sign(d)) != 0)) == 1

    cm = netlist.parse(fixtures.read("inverter_cmos.cir"))
    cm3 = cm.with_source_level("vdd", 3.0)
    w3 = dc_sweep(cm3, netlist.DcSweep("vin", 0.0, 3.0, 0.01), cfg)
    m3 = analyses.vtc_metrics(w3, vdd=3.0)
    assert m3.gain >= 10.0
    d3 = w3.columns["v(out)"] - w3.axis
    assert int(np.sum(np.diff(np.sign(d3)) != 0)) == 1

    # static map: fresh point solves must land on the swept curve, so a
    # return sweep cannot trace a different branch
    for vin in np.linspace(0.0, 30.0, 21):
        op = dc_operating_point(pe.with_source_level("vin", float(vin)), cfg)
        assert abs(op["out"] - np.interp(vin, w.axis, w.columns["v(out)"])) < 1e-5 * 30.0


def test_c08_oscillators_track_supply():
    cfg = SolverConfig()
    pe = netlist.parse(fixtures.read("ro_pseudo_e.cir"))
    curve = analyses.vco_curve(pe, [3.0 * k for k in range(1, 11)], cfg)
    freqs = [f for _, f in curve]
    assert all(a < b for a, b in zip(freqs, freqs[1:]))
    ratio = freqs[-1] / freqs[0]
    assert 3.6 / 2.0 <= ratio <= 3.6 * 2.0

    cm = netlist.parse(fixtures.read("ro_cmos.cir"))
    (vdd, f60), = analyses.vco_curve(cm, [60.0], cfg)
    assert 1e3 <= f60 <= 1e4


def test_c09_neuron_rate_coding():
    c = netlist.parse(fixtures.read("neuron.cir"))
    cfg = SolverConfig()
    rates = []
    for amp in (9e-9, 20e-9, 50e-9, 100e-9, 500e-9):
        t0 = time.perf_counter()
        (pair,), _ = analyses.neuron_fi_curve(c, [amp], cfg)
        assert time.perf_counter() - t0 < 30.0, f"point {amp} too slow"
        rates.append(pair[1])
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(1.0 <= r <= 100.0 for r in rates)

    quiet = c.with_source_level("iex", 0.0)
    w = transient(quiet, netlist.Tran(step=1e-3, stop=0.3), cfg)
    st = analyses.spike_train(w, threshold=1.5)
    assert len(st.times) == 0


def test_c10_logic_gates_truth_tables():
    nand = netlist.parse(fixtures.read("nand_pseudo_e.cir"))
    nor = netlist.parse(fixtures.read("nor_pseudo_e.cir"))
    assert analyses.logic_truth_table(nand) == {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert analyses.logic_truth_table(nor) == {
        (0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}


def test_c11_strain_response():
    p = ref_params()
    assert apply_strain(p, StrainState(0.0, "parallel")) == p  # bit-exact
    half = apply_strain(p, StrainState(0.5, "parallel"))
    assert half.mu0 == pytest.approx(0.67 * p.mu0, rel=1e-12)
    full = apply_strain(p, StrainState(1.0, "parallel"))
    assert full.geom.l == pytest.approx(1.42 * p.geom.l, rel=1e-12)
    assert full.geom.lov == pytest.approx(1.42 * p.geom.lov, rel=1e-12)

    pe = netlist.parse(fixtures.read("inverter_pseudo_e.cir"))
    cfg = SolverConfig()

    def vm(cv):
        w = dc_sweep(cv, cv.analyses[0], cfg)
        return analyses.vtc_metrics(w, vdd=30.0).vm

    out = analyses.strain_study(pe, [0.0, 0.5], "parallel", vm)
    assert abs(out[1][1] - out[0][1]) <= 0.10 * 30.0


def test_c12_monte_carlo_reproducible_yield():
    c = netlist.parse(
        "mc target\n"
        ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 lambda=0.015 "
        "cox=3.5e-4 w=380u l=35u\n"
        "vdd vdd 0 dc -20\nrload vdd d 1meg\nm1 d vdd 0 pm\n.op\n.end")

    def vd(cv):
        return dc_operating_point(cv)["d"]

    base = vd(c)
    exact = analyses.monte_carlo(
        c, netlist.Mc(count=5, seed=3, dists=(("vth", "normal", -0.8, 0.0),)), vd)
    assert all(m == base for m in exact.metrics)

    mc = netlist.Mc(count=100, seed=77, dists=(("vth", "normal", -0.8, 0.08),))

    # inside the draws' spread (v(d) from -8.10 to -7.93 V), so some
    # replicas pass and some fail
    def predicate(v):
        return v < -8.02

    r1 = analyses.monte_carlo(c, mc, vd, predicate)
    r2 = analyses.monte_carlo(c, mc, vd, predicate)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.yield_ == r2.yield_
    hits = sum(
        predicate(vd(c.with_otft_overrides(
            analyses.mc_overrides(r1.samples[k], r1.devices, r1.params))))
        for k in range(mc.count))
    assert r1.yield_ == hits / mc.count
    assert 0.0 < r1.yield_ < 1.0


def test_c13_netlist_corpus_round_trips():
    names = ("inverter_pseudo_e.cir", "inverter_cmos.cir", "nand_pseudo_e.cir",
             "nor_pseudo_e.cir", "ro_pseudo_e.cir", "ro_cmos.cir", "neuron.cir")
    for name in names:
        c1 = netlist.parse(fixtures.read(name))
        s1 = netlist.serialize(c1)
        c2 = netlist.parse(s1)
        assert netlist.serialize(c2) == s1, name
        assert not [d for d in netlist.validate(c2) if d.severity == "error"]
    for name in ("ro_pseudo_e.cir", "ro_cmos.cir"):
        c = netlist.parse(fixtures.read(name))
        assert sum(1 for e in c.elements if e.kind == "M") == 12, name

    for text, line in (("t\nr1 a 0 xyz\n.end", 2),
                       ("t\nv1 a 0 dc 1\n.dc v1 5 1 0.5\n.end", 3),
                       ("t\n.subckt s a\nr1 a 0 1k\n.end", 2)):
        with pytest.raises(netlist.NetlistError) as e:
            netlist.parse(text)
        assert any(d.line == line for d in e.value.diagnostics), text
