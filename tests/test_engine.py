"""Solver tests: linear oracle, transient accuracy and order, energy sanity,
determinism, waveform serialization, and failure modes."""

from __future__ import annotations

import math
import time
from dataclasses import replace

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


def test_unknown_sweep_source_raises():
    # bad input, not a numerics failure
    c = netlist.parse(RC_NET)
    with pytest.raises(KeyError, match="'vxx'"):
        dc_sweep(c, netlist.DcSweep("vxx", 0.0, 1.0, 0.1), SolverConfig())
    with pytest.raises(KeyError, match="'vxx'"):
        dc_sweep(c, netlist.DcSweep("v1", 0.0, 1.0, 0.5, "vxx", 0.0, 1.0, 1.0))
    # the secondary override would replace the swept value at every point
    with pytest.raises(ValueError, match="swept source"):
        dc_sweep(c, netlist.DcSweep("v1", 0.0, 1.0, 0.5, "V1", 5.0, 6.0, 1.0))


def test_conflicting_sources_raise():
    # the source-stepping rung fails first at alpha = 0.1, from x = 0, where
    # the second source's branch row is 0.1 * 2 V off
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 dc 2\n.end")
    with pytest.raises(ConvergenceError, match=r"largest residual 0\.2 at i\(v2\)") as e:
        dc_operating_point(c)
    assert e.value.residual == pytest.approx(0.2)
    assert e.value.at == pytest.approx(0.1)
    # a transient names the residual of the step solve that failed
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 dc 2\nc1 a 0 1n\n.end")
    for fixed in (True, False):
        with pytest.raises(ConvergenceError, match=r"largest residual 2 at i\(v2\)") as e:
            transient(c, netlist.Tran(step=1e-6, stop=1e-5),
                      SolverConfig(fixed_step=fixed), ic={})
        assert e.value.residual == 2.0


# -- Newton work per solve ----------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """Running count of kernels.otft_eval calls."""
    calls = [0]
    kernel = engine.kernels.otft_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(engine.kernels, "otft_eval", counted)
    return calls


@pytest.mark.parametrize("name", sorted(
    p.name for p in fixtures.path("ro_pseudo_e.cir").parent.glob("*.cir")))
def test_newton_exits_on_converging_update(name, kernel_calls):
    # from a converged point, one evaluation shows the residual within
    # tolerance and the update below vntol; no second evaluation re-checks it
    c = netlist.parse(fixtures.read(name))
    sys = engine._System(c, SolverConfig())
    x = sys.solve_dc(t=0.0)
    kernel_calls[0] = 0
    xn = sys.newton(x, t=0.0)
    assert kernel_calls[0] == 1
    nn = sys.n_nodes
    assert np.max(np.abs(xn[:nn] - x[:nn])) < sys.cfg.vntol


def test_ring_step_kernel_calls(kernel_calls):
    # predicted starts and the exit on the converging update; previous-point
    # starts and a re-check evaluation per solve made 15.5 per step
    f = 522.6  # Hz, the ring at 24 V
    c = netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0)
    w = transient(c, netlist.Tran(step=1.0 / (50.0 * f), stop=2.0 / f), SolverConfig())
    steps = w.axis.size - 1
    assert steps == 193
    # the full and first half steps share one stacked call: 6.83 per step,
    # against 9.50 with three lone calls per attempt
    assert kernel_calls[0] <= 8 * steps


@pytest.mark.parametrize("name,sweep", [
    ("inverter_pseudo_e.cir", None),
    ("inverter_cmos.cir", netlist.DcSweep("vin", 0.0, 5.0, 0.01)),
])
def test_sweep_point_kernel_calls(name, sweep, kernel_calls):
    # previous-point starts and a re-check evaluation per solve made 3.56
    # and 3.50 calls per point
    c = netlist.parse(fixtures.read(name))
    w = dc_sweep(c, sweep or c.analyses[0], SolverConfig())
    assert kernel_calls[0] <= 1.6 * w.axis.size


def test_cmos_vdd_sweep_kernel_calls(kernel_calls):
    # the three supply curves are replicas of one stacked call per point:
    # 0.572 calls per point over all curves, against 1.35 curve by curve
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    ws = dc_sweep(c, netlist.DcSweep("vin", 0.0, 7.0, 0.01, "vdd", 3.0, 7.0, 2.0))
    points = sum(w.axis.size for w in ws)
    assert points == 3 * 701
    assert kernel_calls[0] <= 0.7 * points


# -- replica axis: stacked solves against lone-call references ----------------


def _same_waveform(a, b):
    assert a.axis_name == b.axis_name and a.label == b.label
    assert np.array_equal(a.axis, b.axis)
    assert a.names == b.names
    for name in a.names:
        assert np.array_equal(a.columns[name], b.columns[name]), name


def _serial_transient(c, d, cfg, ic=None):
    """Adaptive step-doubling with its three Newton calls per attempt made
    one at a time: the reference for the stacked full and first half step."""
    sys = engine._System(c, cfg)
    stop = d.stop
    max_h = d.max_step if d.max_step is not None else d.step
    if ic is None:
        x, first_be = sys.solve_dc(t=0.0), False
    else:
        x, first_be = np.zeros(sys.dim0 - 1), True
        for name, v in ic.items():
            x[sys.node_index[name] - 1] = v
    cap_i = np.zeros(sys.cap_c.size)

    def vab(xv):
        xfull = np.concatenate(([0.0], xv))
        return xfull[sys.cap_a] - xfull[sys.cap_b]

    def step_once(x_in, i_in, t_new, h, method):
        if method == "be":
            geq = sys.cap_c / h
            ieq = geq * vab(x_in)
        else:
            geq = 2.0 * sys.cap_c / h
            ieq = geq * vab(x_in) + i_in
        x0 = x_in + (engine._extrapolate(times, states, t_new)
                     - engine._extrapolate(times, states, t_new - h))
        xn = sys.newton(x0, t=t_new, cap_geq=geq, cap_ieq=ieq)
        return (None, None) if xn is None else (xn, geq * vab(xn) - ieq)

    times, states, t = [0.0], [x.copy()], 0.0
    h = min(d.step, stop / 1000.0, max_h)
    order = 1 if cfg.method == "be" else 2
    nn = sys.n_nodes
    while t < stop - 1e-15 * stop:
        h = min(max(h, cfg.min_step), max_h, stop - t)
        method = "be" if (first_be and t == 0.0) else cfg.method
        xf, _ = step_once(x, cap_i, t + h, h, method)
        xh1, ci1 = (None, None) if xf is None else step_once(
            x, cap_i, t + 0.5 * h, 0.5 * h, method)
        xh2, ci2 = (None, None) if xh1 is None else step_once(
            xh1, ci1, t + h, 0.5 * h, method)
        if xh2 is None:
            h *= 0.5
            assert h >= cfg.min_step
            continue
        diff = np.abs(xh2[:nn] - xf[:nn])
        eta = float(np.max(diff / (cfg.lte_tol * (1.0 + np.abs(xh2[:nn])))))
        if eta <= 1.0:
            t += h
            x, cap_i = xh2, ci2
            first_be = False
            times.append(t)
            states.append(x.copy())
            grow = 2.0 if eta <= 0.0 else min(2.0, 0.9 * eta ** (-1.0 / (order + 1)))
            h *= max(grow, 0.5)
        else:
            h *= min(max(0.2, 0.9 * eta ** (-1.0 / (order + 1))), 0.9)
    return Waveform(axis_name="time", axis=np.array(times),
                    columns=sys.columns_of(np.vstack(states)))


def _serial_sweeps(c, d, cfg):
    """One warm-started sweep per secondary value, each on its own system and
    with lone Newton calls: the reference for the stacked secondary sweep."""
    out = []
    for val2 in engine._sweep_values(d.start2, d.stop2, d.step2):
        sys = engine._System(c, cfg)
        values = engine._sweep_values(d.start, d.stop, d.step)
        rows = np.empty((values.size, sys.dim0 - 1))
        for i, val in enumerate(values):
            ov = {d.source.lower(): float(val), d.source2.lower(): float(val2)}
            x = sys.newton(engine._extrapolate(values[:i], rows[:i], val),
                           src_overrides=ov) if i else None
            if x is None:
                x = sys.solve_dc(src_overrides=ov)
            rows[i] = x
        out.append(Waveform(axis_name=d.source.lower(), axis=values,
                            columns=sys.columns_of(rows), label=f"{d.source2}={val2:g}"))
    return out


def test_stacked_newton_matches_lone_calls(kernel_calls):
    # with a budget of 5 iterations, from the DC point moved by dv: 0 V
    # converges on iteration 1, 0.1 V on 3, 1.4 V on 5 (the last), 2 V runs
    # out of iterations and a NaN start fails on its first update; the 1.4 V
    # replica leaves the stack on the same update that exhausts the 2 V one
    c = netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0)
    x = engine._System(c, SolverConfig()).solve_dc(t=0.0)
    sys = engine._System(c, SolverConfig(max_newton_iters=5))
    starts = np.stack([x + dv for dv in (1.4, 0.0, np.nan, 2.0, 0.1)])
    lone, records, calls = [], [], []
    for x0 in starts:
        kernel_calls[0] = 0
        lone.append(sys.newton(x0, t=0.0))
        records += sys.fail
        calls.append(kernel_calls[0])
    assert calls == [5, 1, 1, 5, 3]
    assert [r is None for r in lone] == [False, False, True, True, False]
    kernel_calls[0] = 0
    stacked = sys.newton(starts, t=[0.0] * 5)
    assert kernel_calls[0] == 5
    assert repr(sys.fail) == repr(records)   # the NaN start records residual nan
    for a, b in zip(stacked, lone):
        assert (a is None and b is None) or np.array_equal(a, b)


def _ring24():
    return (netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0),
            netlist.Tran(step=1.0 / (50.0 * 522.6), stop=2.0 / 522.6), None)


@pytest.mark.parametrize("case", [
    _ring24,
    lambda: (netlist.parse(fixtures.read("ro_cmos.cir")),
             netlist.Tran(step=8e-6, stop=1e-3), None),
    lambda: (netlist.parse(fixtures.read("neuron.cir")),
             netlist.Tran(step=5e-3, stop=0.05), None),
    lambda: (netlist.parse(RC_NET), netlist.parse(RC_NET).analyses[0], {"out": 0.0}),
], ids=["ro_pseudo_e_24v", "ro_cmos", "neuron", "rc"])
def test_stacked_step_doubling_matches_serial(case):
    c, d, ic = case()
    cfg = SolverConfig()
    _same_waveform(transient(c, d, cfg, ic=ic), _serial_transient(c, d, cfg, ic=ic))


CMOS_VDDS = netlist.DcSweep("vin", 0.0, 7.0, 0.01, "vdd", 3.0, 7.0, 2.0)


def test_stacked_secondary_sweep_matches_serial():
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    got = dc_sweep(c, CMOS_VDDS, SolverConfig())
    want = _serial_sweeps(c, CMOS_VDDS, SolverConfig())
    assert [w.label for w in got] == ["vdd=3", "vdd=5", "vdd=7"]
    for a, b in zip(got, want):
        _same_waveform(a, b)


def _diverge_first_start(monkeypatch, vdd, vin):
    """Make the first Newton start at (vdd, vin) all NaN, stacked or lone;
    the returned list records the replica it hit."""
    newton = engine._System.newton
    hit = []

    def patched(self, x0, **kw):
        ovs = kw.get("src_overrides")
        for k, ov in enumerate(ovs if isinstance(ovs, list) else [ovs]):
            if not hit and ov and ov.get("vdd") == vdd and ov.get("vin") == vin:
                hit.append(k)
                x0 = x0.copy()
                x0[k if x0.ndim == 2 else slice(None)] = np.nan
        return newton(self, x0, **kw)

    monkeypatch.setattr(engine._System, "newton", patched)
    return hit


def test_failed_warm_start_falls_back_alone(monkeypatch):
    # the 5 V curve's start at vin = 2 diverges while the 3 V and 7 V curves
    # converge; it alone falls back to a cold solve and the stacked sweep
    # still gives the serial answer
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    d = replace(CMOS_VDDS, step=0.05)
    hit = _diverge_first_start(monkeypatch, 5.0, 2.0)
    want = _serial_sweeps(c, d, SolverConfig())
    assert hit == [0]
    hit.clear()
    cold = []
    solve_dc = engine._System.solve_dc
    monkeypatch.setattr(engine._System, "solve_dc",
                        lambda self, **kw: cold.append(kw["src_overrides"]) or solve_dc(self, **kw))
    got = dc_sweep(c, d, SolverConfig())
    assert hit == [1]
    assert {"vin": 2.0, "vdd": 5.0} in cold
    assert len(cold) == 4   # the first point of each curve, and this one
    for a, b in zip(got, want):
        _same_waveform(a, b)


def test_first_failing_curve_is_reported(monkeypatch):
    # curve order decides which failure is raised, as curve by curve
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    d = replace(CMOS_VDDS, step=0.05)
    for vdd, vin in ((7.0, 1.0), (5.0, 2.0)):
        _diverge_first_start(monkeypatch, vdd, vin)
    solve_dc = engine._System.solve_dc

    def failing(self, src_overrides=None, **kw):
        if src_overrides in ({"vin": 1.0, "vdd": 7.0}, {"vin": 2.0, "vdd": 5.0}):
            raise ConvergenceError(f"failed at {src_overrides}")
        return solve_dc(self, src_overrides=src_overrides, **kw)

    monkeypatch.setattr(engine._System, "solve_dc", failing)
    with pytest.raises(ConvergenceError, match="'vdd': 5.0"):
        dc_sweep(c, d, SolverConfig())


def test_step_failure_names_the_first_failed_solve():
    # the full and first half steps fail in one stacked call; as with lone
    # calls, the error carries the full step's residual, v2 at t = h = 1 us
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 sin 2 1 1k\nc1 a 0 1n\n.end")
    with pytest.raises(ConvergenceError, match=r"largest residual 2\.01 at i\(v2\)") as e:
        transient(c, netlist.Tran(step=1e-4, stop=1e-3), SolverConfig(min_step=8e-7), ic={})
    assert e.value.residual == 2.0 + math.sin(2.0 * math.pi * 1e3 * 1e-6)


def test_lte_step_underflow_names_worst_node():
    # every step fails the error test; the error names the node with the
    # largest local-error ratio
    c = netlist.parse(RC_NET)
    with pytest.raises(ConvergenceError, match=r"step underflow at t=0; largest "
                       r"LTE ratio [0-9.e+]+ at node out") as e:
        transient(c, c.analyses[0], SolverConfig(lte_tol=1e-12, min_step=1e-6),
                  ic={"out": 0.0})
    assert e.value.at == 0.0


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
