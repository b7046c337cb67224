"""Solver tests: linear oracle, transient accuracy and order, energy sanity,
determinism, waveform serialization, and failure modes."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ofetsim import engine, netlist
from ofetsim.engine import (
    ConvergenceError,
    SolverConfig,
    Waveform,
    dc_operating_point,
    dc_sweep,
    read_waveform_binary,
    read_waveform_csv,
    small_signal_gain,
    transient,
    write_waveform_binary,
    write_waveform_csv,
)
from ofetsim.model import drain_current
from ofetsim import fixtures


# -- linear DC oracle --------------------------------------------------------


def _random_linear_net(rng):
    """Random connected R/V/I network text plus an independent dense solve."""
    n = int(rng.integers(2, 11))  # node count including ground
    lines = ["random linear net"]
    branches = []  # (kind, a, b, value)
    # spanning tree of resistors guarantees a DC path everywhere
    for k in range(1, n):
        other = int(rng.integers(0, k))
        r = 10.0 ** rng.uniform(2.0, 5.0)
        branches.append(("R", k, other, r))
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        branches.append(("R", int(a), int(b), 10.0 ** rng.uniform(2.0, 5.0)))
    vs_nodes = rng.choice(np.arange(1, n), size=min(int(rng.integers(1, 3)),
                                                    n - 1), replace=False)
    for a in vs_nodes:
        branches.append(("V", int(a), 0, float(rng.uniform(-10.0, 10.0))))
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(n, size=2, replace=False)
        branches.append(("I", int(a), int(b), float(rng.uniform(-1e-3, 1e-3))))

    for k, (kind, a, b, val) in enumerate(branches):
        name = {"R": "r", "V": "v", "I": "i"}[kind] + str(k)
        na = "0" if a == 0 else f"n{a}"
        nb = "0" if b == 0 else f"n{b}"
        if kind == "V":
            lines.append(f"{name} {na} {nb} dc {val!r}")
        elif kind == "I":
            lines.append(f"{name} {na} {nb} dc {val!r}")
        else:
            lines.append(f"{name} {na} {nb} {val!r}")
    lines.append(".op")
    lines.append(".end")

    nv = sum(1 for k, *_ in branches if k == "V")
    dim = (n - 1) + nv
    a_mat = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    vrow = n - 1
    for kind, a, b, val in branches:
        ia, ib = a - 1, b - 1
        if kind == "R":
            g = 1.0 / val
            if ia >= 0:
                a_mat[ia, ia] += g
            if ib >= 0:
                a_mat[ib, ib] += g
            if ia >= 0 and ib >= 0:
                a_mat[ia, ib] -= g
                a_mat[ib, ia] -= g
        elif kind == "I":
            if ia >= 0:
                rhs[ia] -= val  # current flows a -> b through the source
            if ib >= 0:
                rhs[ib] += val
        else:
            if ia >= 0:
                a_mat[ia, vrow] += 1.0
                a_mat[vrow, ia] += 1.0
            if ib >= 0:
                a_mat[ib, vrow] -= 1.0
                a_mat[vrow, ib] -= 1.0
            rhs[vrow] = val
            vrow += 1
    sol = np.linalg.solve(a_mat, rhs)
    want = {f"n{k}": sol[k - 1] for k in range(1, n)}
    want["0"] = 0.0
    return "\n".join(lines), want


def test_linear_dc_oracle_100_networks():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    for _ in range(100):
        text, want = _random_linear_net(rng)
        op = dc_operating_point(netlist.parse(text))
        scale = max(1.0, max(abs(v) for v in want.values()))
        for node, v in want.items():
            assert abs(op[node] - v) <= 1e-12 * scale, (node, text)
    assert time.perf_counter() - t0 < 1.0


# -- transient accuracy ------------------------------------------------------


RC_NET = """\
rc charging step
v1 in 0 dc 5
r1 in out 10k
c1 out 0 100n
.tran 10u 5m
.end
"""
RC_TAU = 10e3 * 100e-9


def test_rc_charging_matches_analytic():
    c = netlist.parse(RC_NET)
    w = transient(c, c.analyses[0], SolverConfig(lte_tol=1e-4), ic={"out": 0.0})
    v = w.columns["v(out)"]
    want = 5.0 * (1.0 - np.exp(-w.axis / RC_TAU))
    assert np.max(np.abs(v - want)) < 0.001 * 5.0


@pytest.mark.parametrize("method,slope_lo,slope_hi",
                         [("trap", 1.8, 2.2), ("be", 0.8, 1.2)])
def test_transient_convergence_order(method, slope_lo, slope_hi):
    c = netlist.parse(RC_NET)
    errs, hs = [], []
    for frac in (20, 40, 80, 160):
        h = RC_TAU / frac
        d = netlist.Tran(step=h, stop=RC_TAU * 2)
        cfg = SolverConfig(method=method, fixed_step=True)
        w = transient(c, d, cfg, ic={"out": 0.0})
        want = 5.0 * (1.0 - np.exp(-w.axis / RC_TAU))
        errs.append(np.max(np.abs(w.columns["v(out)"] - want)))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope_lo <= slope <= slope_hi, (method, slope, errs)


def test_rc_energy_never_increases():
    # autonomous discharge: stored energy must be monotone non-increasing
    c = netlist.parse("rc discharge\nr1 a 0 10k\nc1 a 0 100n\n"
                      "r2 a b 1k\nc2 b 0 50n\n.tran 5u 3m\n.end")
    w = transient(c, c.analyses[0], SolverConfig(), ic={"a": 5.0, "b": 1.0})
    e = (0.5 * 100e-9 * w.columns["v(a)"] ** 2
         + 0.5 * 50e-9 * w.columns["v(b)"] ** 2)
    assert np.all(np.diff(e) <= 1e-15)


def test_pulse_timing():
    c = netlist.parse("pulse into rc\nv1 in 0 pulse 0 5 1m 0 0 0 0\n"
                      "r1 in out 1k\nc1 out 0 10n\n.tran 5u 3m\n.end")
    w = transient(c, c.analyses[0], SolverConfig())
    v = w.columns["v(out)"]
    assert np.all(np.abs(v[w.axis <= 0.99e-3]) < 1e-9)
    assert v[-1] > 4.9


def test_transient_determinism():
    c = netlist.parse(fixtures.read("ro_pseudo_e.cir"))
    d = netlist.Tran(step=50e-6, stop=5e-3)
    w1 = transient(c, d, SolverConfig())
    w2 = transient(c, d, SolverConfig())
    assert np.array_equal(w1.axis, w2.axis)
    for k in w1.columns:
        assert np.array_equal(w1.columns[k], w2.columns[k])


# -- nonlinear DC ------------------------------------------------------------


OTFT_NET = """\
diode-connected transistor with series resistor
.model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 lambda=0.015 cox=3.5e-4 w=380u l=35u
v1 top 0 dc -20
r1 top d 100k
m1 d d 0 pm
.op
.end
"""


SHARED_NET = """\
two transistors sharing drain and source, one diode-connected
.model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 lambda=0.015 cox=3.5e-4 w=380u l=35u
.model pw otftp mu0=1.5e-5 vth=-1.2 ss=0.2 lambda=0.02 cox=3.5e-4 w=200u l=20u
v1 top 0 dc -20
vg g 0 dc -8
r1 top d 100k
m1 d d s pm
m2 d g s pw
r2 s 0 10k
.op
.end
"""


def test_nonlinear_kcl_residual():
    c = netlist.parse(OTFT_NET)
    cfg = SolverConfig()
    op = dc_operating_point(c, cfg)
    vd = op["d"]
    i_r = (op["top"] - vd) / 100e3
    card = c.model_card("pm")
    i_m = float(drain_current(card, vd, vd))  # rc = 0 on this card
    scale = max(abs(i_r), abs(i_m))
    assert abs(i_r - i_m) <= cfg.abstol + 10.0 * cfg.reltol * scale

    # rc = 0 on both cards, so the two channels stamp the same matrix entries
    c = netlist.parse(SHARED_NET)
    op = dc_operating_point(c, cfg)
    vd, vg, vs = op["d"], op["g"], op["s"]
    i_top, i_s = (op["top"] - vd) / 100e3, vs / 10e3
    i_1 = float(drain_current(c.model_card("pm"), vd - vs, vd - vs))
    i_2 = float(drain_current(c.model_card("pw"), vg - vs, vd - vs))
    assert abs(i_1) > 1e-7 and abs(i_2) > 1e-7  # both channels conduct
    scale = max(abs(i_top), abs(i_s), abs(i_1), abs(i_2))
    for i_r in (i_top, i_s):  # KCL at the shared drain and the shared source
        assert abs(i_r - i_1 - i_2) <= cfg.abstol + 10.0 * cfg.reltol * scale


def test_stamp_table_replays_element_loops():
    # the flat stamps must add in the order of a per-element loop (matrix
    # stamps) or of one scatter per entry kind (transistor Jacobian), so that
    # every sum, and with it every waveform, is bit-identical to those loops
    c = netlist.parse(SHARED_NET.replace(".op", "c1 d s 1n\nc2 d 0 2n\ni1 0 s dc 1u\n.op"))
    sys = engine._System(c, SolverConfig())
    n_g = sys.cond_g.size
    ref = np.zeros((sys.dim0, sys.dim0))
    for a, b, g in zip(sys.lin_a[:n_g], sys.lin_b[:n_g], sys.cond_g):
        ref[a, a] += g
        ref[b, b] += g
        ref[a, b] -= g
        ref[b, a] -= g
    for k, name in enumerate(sys.vsource_names):
        a, b = (sys.node_index[n] for n in c.element(name).nodes)
        row = sys.branch0 + k
        ref[a, row] += 1.0
        ref[b, row] -= 1.0
        ref[row, a] += 1.0
        ref[row, b] -= 1.0
    assert np.array_equal(ref, sys.a_static)

    rng = np.random.default_rng(3)
    geq = 10.0 ** rng.uniform(-12.0, 3.0, sys.cap_c.size)
    got = ref.copy()
    np.add.at(got.reshape(-1), sys.cap_stamp, (geq[:, None] * engine._G_SIGNS).ravel())
    for a, b, g in zip(sys.cap_a, sys.cap_b, geq):
        ref[a, a] += g
        ref[b, b] += g
        ref[a, b] -= g
        ref[b, a] -= g
    assert np.array_equal(ref, got)

    gm, gds = 10.0 ** rng.uniform(-12.0, 3.0, (2, sys.m_d.size))
    d, g, s = sys.m_d, sys.m_g, sys.m_s
    np.add.at(got.reshape(-1), sys.m_jac,
              np.concatenate((gds, gm, -(gm + gds), -gds, -gm, gm + gds)))
    for (r, q), v in zip(((d, d), (d, g), (d, s), (s, d), (s, g), (s, s)),
                         (gds, gm, -(gm + gds), -gds, -gm, gm + gds)):
        np.add.at(ref, (r, q), v)
    assert np.array_equal(ref, got)


def test_gmin_shunts_bound_off_state():
    # with the gate hard off the only drain current is the solver shunt
    c = netlist.parse("off state\n"
                      ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u\n"
                      "v1 d 0 dc -30\nvg g 0 dc 5\nm1 d g 0 pm\n.op\n.end")
    op = dc_operating_point(c)
    assert abs(op["d"] + 30.0) < 1e-6


def test_vtc_sweep_monotone():
    c = netlist.parse(fixtures.read("inverter_pseudo_e.cir"))
    w = dc_sweep(c, c.analyses[0], SolverConfig())
    vout = w.columns["v(out)"]
    assert w.axis_name == "vin"
    assert np.all(np.diff(vout) < 1e-6), "VTC must be monotone non-increasing"
    assert vout[0] > 29.9 and vout[-1] < 2.0


def test_secondary_sweep_labels():
    c = netlist.parse("two source sweep\nv1 a 0 dc 0\nv2 b 0 dc 0\n"
                      "r1 a mid 1k\nr2 mid b 1k\n"
                      ".dc v1 0 1 0.5 v2 0 1 1\n.end")
    out = dc_sweep(c, c.analyses[0], SolverConfig())
    assert isinstance(out, list) and len(out) == 2
    assert out[0].label == "v2=0" and out[1].label == "v2=1"
    # divider midpoint: (v1 + v2)/2
    np.testing.assert_allclose(out[1].columns["v(mid)"],
                               (out[1].axis + 1.0) / 2.0, atol=1e-9)


def test_small_signal_gain_linear():
    c = netlist.parse("divider\nv1 in 0 dc 3\nr1 in mid 1k\nr2 mid 0 3k\n.end")
    g = small_signal_gain(c, "v1", "mid", bias=3.0)
    assert g == pytest.approx(0.75, rel=1e-6)


def test_unknown_sweep_source_raises():
    c = netlist.parse(RC_NET)
    with pytest.raises(ConvergenceError):
        dc_sweep(c, netlist.DcSweep("vxx", 0.0, 1.0, 0.1), SolverConfig())
    with pytest.raises(ConvergenceError):
        dc_sweep(c, netlist.DcSweep("v1", 0.0, 1.0, 0.5, "vxx", 0.0, 1.0, 1.0))
    # the secondary override would replace the swept value at every point
    with pytest.raises(ConvergenceError, match="swept source"):
        dc_sweep(c, netlist.DcSweep("v1", 0.0, 1.0, 0.5, "V1", 5.0, 6.0, 1.0))


def test_conflicting_sources_raise():
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 dc 2\n.end")
    with pytest.raises(ConvergenceError):
        dc_operating_point(c)


# -- waveform container and files --------------------------------------------


def test_waveform_axis_must_increase():
    with pytest.raises(ValueError):
        Waveform(axis_name="t", axis=np.array([0.0, 1.0, 0.5]),
                 columns={"v(a)": np.zeros(3)})
    with pytest.raises(ValueError):
        Waveform(axis_name="t", axis=np.array([0.0, 1.0]),
                 columns={"v(a)": np.zeros(3)})


def test_waveform_csv_round_trip(tmp_path):
    w = Waveform(axis_name="time", axis=np.linspace(0.0, 1e-3, 7),
                 columns={"v(out)": np.sin(np.arange(7.0)),
                          "i(v1)": np.full(7, -1e-6)})
    path = tmp_path / "w.csv"
    write_waveform_csv(w, path)
    back = read_waveform_csv(path)
    assert back.axis_name == "time"
    assert np.array_equal(back.axis, w.axis)
    for k in w.columns:
        assert np.array_equal(back.columns[k], w.columns[k])


def test_waveform_binary_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    w = Waveform(axis_name="vin", axis=np.sort(rng.random(33)),
                 columns={"v(out)": rng.standard_normal(33)})
    path = tmp_path / "w.wfb"
    write_waveform_binary(w, path)
    back = read_waveform_binary(path)
    assert back.axis_name == "vin"
    assert np.array_equal(back.axis, w.axis)
    assert np.array_equal(back.columns["v(out)"], w.columns["v(out)"])


def test_waveform_binary_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wfb"
    path.write_bytes(b"not a waveform at all")
    with pytest.raises(ValueError):
        read_waveform_binary(path)
