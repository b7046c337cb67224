"""Waveform reductions and circuit-level studies against synthetic oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ofetsim import fixtures, netlist
from ofetsim.analyses import (
    AnalysisError,
    SpikeTrain,
    VtcMetrics,
    logic_truth_table,
    mc_overrides,
    monte_carlo,
    oscillation_frequency,
    spike_train,
    strain_study,
    vco_curve,
    vtc_metrics,
)
from ofetsim.engine import Waveform, dc_operating_point
from ofetsim.model import ParameterError
from ofetsim.netlist import Mc


def _wave(t, v, name="out"):
    return Waveform(axis_name="time", axis=np.asarray(t, float),
                    columns={f"v({name})": np.asarray(v, float)})


# -- oscillation_frequency ---------------------------------------------------


def test_sine_frequency_recovered():
    t = np.linspace(0.0, 2.0, 2001)  # 20 periods, 100 samples each
    r = oscillation_frequency(_wave(t, 1.5 + 0.8 * np.sin(2 * np.pi * 10.0 * t)))
    assert r.settled
    assert r.frequency == pytest.approx(10.0, rel=5e-3)
    assert r.amplitude == pytest.approx(1.6, rel=0.02)


def test_dc_signal_not_settled():
    t = np.linspace(0.0, 1.0, 500)
    r = oscillation_frequency(_wave(t, np.full_like(t, 2.5)))
    assert not r.settled and r.frequency is None


def test_chirp_not_settled():
    # instantaneous frequency ramps 10 -> 40 Hz; period drift must trip
    # the stability gate even though the amplitude is constant
    t = np.linspace(0.0, 2.0, 4001)
    phase = 2 * np.pi * (10.0 * t + 7.5 * t ** 2)
    r = oscillation_frequency(_wave(t, np.sin(phase)))
    assert not r.settled and r.frequency is None


def test_growing_envelope_not_settled():
    t = np.linspace(0.0, 2.0, 4001)
    r = oscillation_frequency(_wave(t, np.exp(t) * np.sin(2 * np.pi * 10 * t)))
    assert not r.settled


def test_settled_result_needs_frequency():
    with pytest.raises(ValueError):
        from ofetsim.analyses import OscillationResult
        OscillationResult(frequency=None, amplitude=1.0, settled=True,
                          window=(0.0, 1.0))


# -- vtc_metrics -------------------------------------------------------------


def test_vtc_piecewise_linear_oracle():
    vin = np.linspace(0.0, 5.0, 501)
    vout = np.clip(5.0 - 5.0 * (vin - 2.0), 0.0, 5.0)
    m = vtc_metrics(_wave(vin, vout), vdd=5.0)
    assert m.gain == pytest.approx(5.0, rel=0.02)
    assert m.vm == pytest.approx(2.5, abs=0.01)   # 5 - 5(vin-2) = vin
    assert m.swing == pytest.approx(5.0, abs=1e-9)
    # unity-gain inputs sit at the kinks: NML ~ 2 - 0, NMH ~ 5 - 3
    assert m.nml == pytest.approx(2.0, abs=0.1)
    assert m.nmh == pytest.approx(2.0, abs=0.1)


def test_vtc_subunity_line_has_no_margins():
    vin = np.linspace(0.0, 5.0, 101)
    m = vtc_metrics(_wave(vin, 4.5 - 0.9 * vin), vdd=5.0)
    assert m.gain == pytest.approx(0.9, rel=1e-9)
    assert m.vm == pytest.approx(4.5 / 1.9, abs=1e-9)
    assert m.nml == 0.0 and m.nmh == 0.0


def test_vtc_rejects_curve_without_crossing():
    vin = np.linspace(0.0, 5.0, 101)
    with pytest.raises(AnalysisError):
        vtc_metrics(_wave(vin, vin + 1.0), vdd=7.0)


def test_vtc_rejects_short_sweep():
    with pytest.raises(AnalysisError):
        vtc_metrics(_wave([0.0, 1.0, 2.0], [2.0, 1.0, 0.0]), vdd=2.0)


def test_vtc_invariants():
    with pytest.raises(ValueError):
        VtcMetrics(gain=10.0, vm=-0.5, nmh=1.0, nml=1.0, swing=4.0, vdd=5.0)
    with pytest.raises(ValueError):
        VtcMetrics(gain=10.0, vm=2.5, nmh=1.0, nml=1.0, swing=6.0, vdd=5.0)


# -- spike_train -------------------------------------------------------------


def _pulse_record(spike_times, width=2e-3, fs=20e3, span=1.0):
    t = np.arange(0.0, span, 1.0 / fs)
    v = np.zeros_like(t)
    for ts in spike_times:
        v += 5.0 * np.exp(-0.5 * ((t - ts) / width) ** 2)
    return _wave(t, v)


def test_spike_train_rate():
    times = [0.1, 0.3, 0.5, 0.7, 0.9]
    st = spike_train(_pulse_record(times), threshold=2.5)
    assert len(st.times) == 5
    # crossing leads each Gaussian peak by width * sqrt(2 ln 2)
    lead = 2e-3 * math.sqrt(2 * math.log(2))
    np.testing.assert_allclose(st.times, np.array(times) - lead, atol=1e-4)
    assert st.rate == pytest.approx(5.0, rel=1e-3)
    assert st.isi_std < 1e-4


def test_spike_train_refractory_merges_double_crossing():
    t = np.arange(0.0, 0.1, 1e-5)
    v = np.zeros_like(t)
    # one event that wobbles across threshold twice 0.3 ms apart
    v += 5.0 * np.exp(-0.5 * ((t - 0.050) / 1e-4) ** 2)
    v += 5.0 * np.exp(-0.5 * ((t - 0.0503) / 1e-4) ** 2)
    st = spike_train(_wave(t, v), threshold=2.5)
    assert len(st.times) == 1
    assert st.rate == 0.0 and math.isnan(st.isi_mean)


def test_spike_times_must_increase():
    with pytest.raises(ValueError):
        SpikeTrain(times=np.array([0.2, 0.1]), rate=0.0,
                   isi_mean=0.0, isi_std=0.0)


# -- logic_truth_table -------------------------------------------------------


def test_nand_truth_table():
    c = netlist.parse(fixtures.read("nand_pseudo_e.cir"))
    table = logic_truth_table(c)
    assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_forbidden_band_raises():
    # output pinned mid-rail by a divider, independent of the inputs
    c = netlist.parse("stuck gate\nvdd vdd 0 dc 5\nva a 0 dc 0\nvb b 0 dc 0\n"
                      "r1 vdd out 1k\nr2 out 0 1k\n"
                      "r3 a 0 1meg\nr4 b 0 1meg\n.end")
    with pytest.raises(AnalysisError, match="forbidden band"):
        logic_truth_table(c)


# -- strain_study ------------------------------------------------------------


INV_NET = fixtures.read("inverter_pseudo_e.cir")


def test_zero_strain_is_identity():
    c = netlist.parse("one device\n"
                      ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 lambda=0.015 "
                      "cox=3.5e-4 w=380u l=35u\n"
                      "vd d 0 dc -20\nvg g 0 dc -10\nm1 d g 0 pm\n.op\n.end")
    base = dc_operating_point(c)
    out = strain_study(c, [0.0, 0.5], "parallel",
                       metric=lambda cv: dc_operating_point(cv)["d"])
    assert out[0][1] == base["d"]  # bit-exact, not merely close
    assert out[0][1] == out[1][1]  # ideal source pins the node either way


def test_strain_shifts_inverter_threshold():
    c = netlist.parse(INV_NET)

    def vm(cv):
        from ofetsim.engine import dc_sweep, SolverConfig
        w = dc_sweep(cv, cv.analyses[0], SolverConfig())
        return vtc_metrics(w, vdd=30.0).vm

    out = strain_study(c, [0.0, 0.5], "parallel", metric=vm)
    assert out[0][1] != out[1][1]
    assert abs(out[1][1] - out[0][1]) <= 3.0  # drift within 10% of VDD


# -- Monte Carlo -------------------------------------------------------------


MC_NET = """\
mismatch target
.model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 lambda=0.015 cox=3.5e-4 w=380u l=35u
vdd vdd 0 dc -20
rload vdd d 1meg
m1 d vdd 0 pm
.op
.end
"""


def _vd(cv):
    return dc_operating_point(cv)["d"]


def test_mc_zero_sigma_is_exact():
    c = netlist.parse(MC_NET)
    base = _vd(c)
    mc = Mc(count=5, seed=7, dists=(("vth", "normal", -0.8, 0.0),))
    res = monte_carlo(c, mc, _vd)
    assert all(m == base for m in res.metrics)
    assert res.yield_ == 1.0


def test_mc_seed_reproducible():
    c = netlist.parse(MC_NET)
    mc = Mc(count=8, seed=123, dists=(("vth", "normal", -0.8, 0.05),
                                      ("mu0", "lognormal", 2.35e-5, 0.1)))
    r1 = monte_carlo(c, mc, _vd)
    r2 = monte_carlo(c, mc, _vd)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.metrics == r2.metrics
    assert np.std([float(m) for m in r1.metrics]) > 0


def test_mc_replica_draws_independent_of_count():
    c = netlist.parse(MC_NET)
    dists = (("vth", "normal", -0.8, 0.05),)
    big = monte_carlo(c, Mc(count=10, seed=42, dists=dists), _vd)
    small = monte_carlo(c, Mc(count=4, seed=42, dists=dists), _vd)
    assert np.array_equal(big.samples[:4], small.samples)
    assert big.metrics[:4] == small.metrics


def test_mc_yield_matches_replay():
    c = netlist.parse(MC_NET)
    mc = Mc(count=12, seed=2024, dists=(("vth", "normal", -0.8, 0.08),))

    # inside the draws' spread (v(d) from -8.08 to -7.98 V)
    def predicate(v):
        return v < -8.02

    res = monte_carlo(c, mc, _vd, predicate)
    # replay each replica from its recorded sample block
    hits = 0
    for r in range(mc.count):
        ov = mc_overrides(res.samples[r], res.devices, res.params)
        if predicate(_vd(c.with_otft_overrides(ov))):
            hits += 1
    assert res.yield_ == hits / mc.count
    assert 0.0 < res.yield_ < 1.0


def test_mc_directive_drives_monte_carlo():
    # the parsed .mc record is the experiment: no second spec to build
    c = netlist.parse(MC_NET.replace(".op", ".op\n.mc 10 42 vth=normal -1 0.05"))
    mc = [a for a in c.analyses if isinstance(a, Mc)][0]
    assert mc == Mc(10, 42, (("vth", "normal", -1.0, 0.05),))
    assert type(mc.count) is int and type(mc.seed) is int
    res = monte_carlo(c, mc, _vd)
    assert res.samples.shape == (10, 1, 1) and res.params == ("vth",)
    assert res.yield_ == 1.0


# replica 15 draws ss = -0.0447, which the model's card rules reject
MC_OUTSIDE_RULES = """\
mc outside the card rules
.model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u
vdd d 0 dc -20
m1 d d 0 pm
.mc 20 1 mu0=normal 2.35e-5 2e-5 ss=normal 0.18 0.2
.end
"""


def test_mc_draw_outside_card_rules_names_replica_and_device():
    c = netlist.parse(MC_OUTSIDE_RULES)
    ran = []
    with pytest.raises(ParameterError, match=r"^line 5: \.mc replica 15: m1: subthreshold "
                       r"swing must be positive, got -0\.0447"):
        monte_carlo(c, c.analyses[0], ran.append)
    assert ran == []   # checked before any replica runs


MC_OVERFLOW = """\
mc draw that overflows
.model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u
vdd d 0 dc -20
m1 d d 0 pm
.mc 3 1 {}=lognormal 1 1000
.end
"""


@pytest.mark.parametrize("param", ["vth", "mu0", "ss"])
def test_mc_draw_that_overflows_names_replica_and_device(param):
    # replica 0's exp(1000 z) overflows a float; the card rules alone would
    # take mu0 or ss = inf
    c = netlist.parse(MC_OVERFLOW.format(param))
    ran = []
    with pytest.raises(ParameterError, match=rf"^line 5: \.mc replica 0: m1: {param} draw "
                       r"must be finite, got inf from lognormal 1 1000$"):
        monte_carlo(c, c.analyses[0], ran.append)
    assert ran == []


# -- fixture plumbing --------------------------------------------------------


def test_vco_requires_tran_directive():
    c = netlist.parse("no tran here\nv1 a 0 dc 1\nr1 a 0 1k\n.end")
    with pytest.raises(AnalysisError):
        vco_curve(c, [3.0])


def test_neuron_rejects_negative_drive():
    from ofetsim.analyses import neuron_fi_curve
    c = netlist.parse(fixtures.read("neuron.cir"))
    with pytest.raises(ValueError):
        neuron_fi_curve(c, [-1e-9])
