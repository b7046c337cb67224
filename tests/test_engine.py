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
    read_waveform_csv,
    transient,
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
    assert abs(i_r - i_m) <= engine.ABSTOL + 10.0 * cfg.reltol * scale

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
        assert abs(i_r - i_1 - i_2) <= engine.ABSTOL + 10.0 * cfg.reltol * scale


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


@pytest.mark.parametrize("iters", [2.5, 3.0, math.inf, math.nan, "3"])
def test_newton_budget_must_be_an_integer(iters):
    # Newton stops when its iteration count equals the budget, which a
    # count never does for 2.5: the budget would be gone
    with pytest.raises(ValueError, match=r"max_newton_iters must be an integer"):
        SolverConfig(max_newton_iters=iters)


def test_integer_newton_budget_holds(kernel_calls):
    # a numpy integer is an integer: from 0 V the 60 V CMOS ring needs 9
    # iterations, so a budget of 3 ends the solve after 3 kernel calls
    c = netlist.parse(fixtures.read("ro_cmos.cir")).with_source_level("vdd", 60.0)
    sys = engine._System(c, SolverConfig(max_newton_iters=np.int64(3)))
    assert sys.newton(np.zeros((1, sys.dim0 - 1)), sys.sources(0.0)[None]) == [None]
    assert kernel_calls[0] == 3


def test_conflicting_sources_raise():
    # the source-stepping rung fails first at alpha = 0.1, from x = 0, where
    # the second source's branch row is 0.1 * 2 V off
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 dc 2\n.end")
    with pytest.raises(ConvergenceError, match=r"largest residual 0\.2 at i\(v2\)") as e:
        dc_operating_point(c)
    assert e.value.residual == pytest.approx(0.2)
    assert e.value.at == pytest.approx(0.1)
    assert e.value.row == "i(v2)"
    # a transient names the residual of the step solve that failed
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 dc 2\nc1 a 0 1n\n.end")
    for fixed in (True, False):
        with pytest.raises(ConvergenceError, match=r"largest residual 2 at i\(v2\)") as e:
            transient(c, netlist.Tran(step=1e-6, stop=1e-5),
                      SolverConfig(fixed_step=fixed), ic={})
        assert e.value.residual == 2.0
        assert e.value.row == "i(v2)"


def _dc_rung(c):
    """The rescue rung on which the t = 0 operating point of c converges,
    read off the gshunt and alpha of every Newton call of the solve, the
    number of those calls and the number of kernel calls they made."""
    newton, kernel = engine._System.newton, engine.kernels.otft_eval
    calls, kernel_calls = [], [0]

    def spy(self, x0, src, **kw):
        calls.append((kw.get("gshunt", 0.0), kw.get("alpha", 1.0)))
        return newton(self, x0, src, **kw)

    def counted(*args, **kwargs):
        kernel_calls[0] += 1
        return kernel(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._System, "newton", spy)
        mp.setattr(engine.kernels, "otft_eval", counted)
        sys = engine._System(c, SolverConfig())
        sys.solve_dc(sys.sources(0.0))
    if any(alpha != 1.0 for _g, alpha in calls):
        rung = "source"
    elif any(g > 0.0 for g, _alpha in calls):
        rung = "gmin"
    else:
        rung = "plain"
    return rung, len(calls), kernel_calls[0]


@pytest.mark.parametrize("name,source,level,rung", [
    *[("neuron.cir", "iex", iex, ("gmin", 12))
      for iex in (9e-9, 20e-9, 50e-9, 100e-9, 500e-9)],
    *[("ro_cmos.cir", "vdd", vdd, ("plain", 1)) for vdd in (30.0, 40.0, 50.0, 60.0)],
    *[("ro_pseudo_e.cir", "vdd", vdd, ("plain", 1)) for vdd in (3.0, 15.0, 30.0)],
])
def test_fixture_dc_rung(name, source, level, rung):
    # the neuron fails plain Newton and converges on the gmin ladder (ten
    # shunted solves, then one unshunted); the CMOS ring converges on plain
    # Newton up to 60 V (with node updates clipped to 0.5 V it ran out of
    # iterations at 50 and 60 V and needed source stepping)
    c = netlist.parse(fixtures.read(name)).with_source_level(source, level)
    assert _dc_rung(c)[:2] == rung


@pytest.mark.parametrize("name,source,level", [
    *[("ro_cmos.cir", "vdd", vdd) for vdd in (30.0, 40.0, 50.0, 60.0)],
    *[("ro_pseudo_e.cir", "vdd", vdd) for vdd in (3.0, 15.0, 24.0, 30.0)],
    *[(name, None, None) for name in ("inverter_cmos.cir", "inverter_pseudo_e.cir",
                                      "nand_pseudo_e.cir", "nor_pseudo_e.cir")],
])
def test_cold_operating_point_kernel_calls(name, source, level):
    # from 0 V each node update is limited to DAMPING + 2 |v|, so the
    # voltage a node can reach about triples per iteration (0.5, 2, 6.5,
    # 20, 60 V): 5-10 kernel calls here.  Clipped to DAMPING, plain Newton
    # took one iteration per half volt of supply (8-81 calls), and the CMOS
    # ring at 50 and 60 V fell to source stepping (322 and 342)
    c = netlist.parse(fixtures.read(name))
    if source is not None:
        c = c.with_source_level(source, level)
    rung, solves, kernel_calls = _dc_rung(c)
    assert (rung, solves) == ("plain", 1)
    assert kernel_calls <= 12


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
    # tolerance and the update below VNTOL; no second evaluation re-checks it
    c = netlist.parse(fixtures.read(name))
    sys = engine._System(c, SolverConfig())
    x = sys.solve_dc(sys.sources(0.0))
    kernel_calls[0] = 0
    (xn,) = sys.newton(x[None], sys.sources(0.0)[None])
    assert kernel_calls[0] == 1
    nn = sys.n_nodes
    assert np.max(np.abs(xn[:nn] - x[:nn])) < engine.VNTOL


def test_ring_step_kernel_calls(kernel_calls):
    # predicted starts and the exit on the converging update; previous-point
    # starts and a re-check evaluation per solve made 15.5 per step
    f = 522.6  # Hz, the ring at 24 V
    c = netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0)
    w = transient(c, netlist.Tran(step=1.0 / (50.0 * f), stop=2.0 / f), SolverConfig())
    steps = w.axis.size - 1
    assert steps == 193
    # the first half step, the full step and the second half step as one
    # coupled call, all from the cubic through the last four points of the
    # half-step path (each accepted attempt's first half step, then its
    # accepted point): 2.82 per step, against 3.40 from the cubic through
    # the last four accepted points, 4.95 with the first half step solved
    # alone before the other two, 5.91 with the full and first half steps
    # stacked and the second half step started from the full step's
    # solution, and 9.50 with three lone calls per attempt
    assert kernel_calls[0] <= 3.0 * steps


@pytest.mark.parametrize("name,sweep,per_point", [
    ("inverter_pseudo_e.cir", None, 0.06),
    ("inverter_cmos.cir", netlist.DcSweep("vin", 0.0, 5.0, 0.01), 0.09),
])
def test_sweep_point_kernel_calls(name, sweep, per_point, kernel_calls):
    # a coarse pass of every 16th value in blocks of 32, then the other
    # values in blocks of 64 from interpolating cubics: 0.046 and 0.076 calls
    # per point, against 0.089 and 0.098 with blocks of 32 consecutive values,
    # 1.25 and 1.42 with one call per value, and 3.56 and 3.50 from
    # previous-point starts with a re-check evaluation per solve
    c = netlist.parse(fixtures.read(name))
    w = dc_sweep(c, sweep or c.analyses[0], SolverConfig())
    assert kernel_calls[0] <= per_point * w.axis.size


def test_cmos_vdd_sweep_kernel_calls(kernel_calls):
    # the three supply curves are replicas of every call: 0.033 calls per
    # point over all curves, against 0.050 with blocks of 32 consecutive
    # values, 0.572 with one call per value and 1.35 curve by curve
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    ws = dc_sweep(c, netlist.DcSweep("vin", 0.0, 7.0, 0.01, "vdd", 3.0, 7.0, 2.0))
    points = sum(w.axis.size for w in ws)
    assert points == 3 * 701
    assert kernel_calls[0] <= 0.04 * points


# -- replica axis: stacked solves against lone-call references ----------------


def _same_waveform(a, b):
    assert a.axis_name == b.axis_name and a.label == b.label
    assert np.array_equal(a.axis, b.axis)
    assert a.names == b.names
    for name in a.names:
        assert np.array_equal(a.columns[name], b.columns[name]), name


def _extrapolate_reference(ts, xs, t):
    """The Lagrange loop at a float t with the sum started from the float
    0.0: the reference each value of engine._extrapolate must match bit for
    bit, also when t is an array."""
    ts, xs = ts[-4:], xs[-4:]
    p = 0.0
    for j, (tj, xj) in enumerate(zip(ts, xs)):
        w = 1.0
        for k, tk in enumerate(ts):
            if k != j:
                w *= (t - tk) / (tj - tk)
        p = p + w * xj
    return p


def test_extrapolate_matches_scalar_loop():
    # 1-4 points, times from ns to s apart, points of shape (n,) and
    # (curves, n), scalar t and t of shape (m, 1) or (m, 1, 1)
    rng = np.random.default_rng(4)
    for trial in range(200):
        npts = 1 + trial % 4
        ts = np.cumsum(rng.random(npts) * 10.0 ** rng.uniform(-9.0, 0.0)).tolist()
        xs = rng.standard_normal((npts, 3, 7) if trial % 2 else (npts, 38))
        tv = ts[-1] + rng.random(1 + trial % 33) * 10.0 ** rng.uniform(-9.0, 0.0)
        got = engine._extrapolate(ts, xs, tv.reshape(-1, *[1] * (xs.ndim - 1)))
        assert got.shape == (tv.size, *xs.shape[1:])
        for k, v in enumerate(tv.tolist()):
            ref = _extrapolate_reference(ts, list(xs), v)
            assert np.array_equal(got[k].view(np.int64), ref.view(np.int64))
            assert np.array_equal(engine._extrapolate(ts, xs, v).view(np.int64),
                                  ref.view(np.int64))


def test_extrapolate_per_value_points_match_scalar_loop():
    # each of m values through points of its own, ts of shape (k, m, 1, 1)
    rng = np.random.default_rng(5)
    for k in range(1, 5):
        ts = np.cumsum(rng.random((k, 9)), axis=0)
        xs = rng.standard_normal((k, 9, 3, 7))
        tv = ts[-1] + rng.random(9)
        got = engine._extrapolate(ts[:, :, None, None], xs, tv[:, None, None])
        for m, v in enumerate(tv.tolist()):
            ref = _extrapolate_reference(ts[:, m].tolist(), list(xs[:, m]), v)
            assert np.array_equal(got[m].view(np.int64), ref.view(np.int64))


def test_extrapolate_reproduces_low_degree_polynomials():
    # through k points the predictor is the polynomial of degree below k
    # through them, so any such polynomial comes back to rounding, at a
    # float t and at t of shape (m, 1)
    rng = np.random.default_rng(11)
    for trial in range(200):
        npts = 1 + trial % 4
        scale = 10.0 ** rng.uniform(-9.0, 0.0)
        ts = (np.cumsum(0.5 + rng.random(npts)) * scale).tolist()
        coef = rng.standard_normal((1 + trial // 4 % npts, 5))

        def poly(t):
            u = np.asarray(t)[..., None] / scale
            return sum(ck * u ** k for k, ck in enumerate(coef))

        xs = poly(ts)
        tv = ts[-1] + rng.random(1 + trial % 9) * scale
        want = poly(tv)
        atol = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(engine._extrapolate(ts, xs, tv[:, None]), want,
                                   rtol=1e-12, atol=atol)
        np.testing.assert_allclose(engine._extrapolate(ts, xs, float(tv[0])), want[0],
                                   rtol=1e-12, atol=atol)


def test_extrapolate_at_a_point_is_that_point():
    rng = np.random.default_rng(12)
    for npts in range(1, 5):
        ts = np.cumsum(rng.random(npts) * 1e-6).tolist()
        xs = rng.standard_normal((npts, 38))
        for tj, xj in zip(ts, xs):
            assert np.array_equal(engine._extrapolate(ts, xs, tj), xj)
        assert np.array_equal(engine._extrapolate(ts, xs, np.array(ts)[:, None]), xs)


def test_extrapolate_one_point_broadcasts_over_t():
    # through one point the weight is the float 1.0, so only the start of
    # the sum gives the values their leading axis of t
    xs = np.arange(5.0)[None]
    t = np.array([[1.0], [2.0], [3.0]])
    got = engine._extrapolate([0.5], xs, t)
    assert got.shape == (3, 5)
    assert np.array_equal(got, np.broadcast_to(xs[0], (3, 5)))
    assert _extrapolate_reference([0.5], list(xs), t).shape == (5,)


@pytest.mark.parametrize("fixed_step", [False, True])
def test_one_newton_call_per_attempt(monkeypatch, fixed_step):
    # an adaptive attempt from t with step h is one Newton call of three
    # replicas at (t + h/2, t + h, t + h), each started from the cubic
    # through the last four points of the half-step path at its own time:
    # each accepted attempt's first half step solution at t + h/2, then its
    # accepted point at t + h.  A fixed step is a stack of one at one float
    # time from the cubic through the last four accepted points, and so is
    # the t = 0 DC solve.  A call's times are those its source rows were
    # evaluated at since the call before
    newton, sources = engine._System.newton, engine._System.sources
    calls, times = [], []

    def timed(self, t=None, overrides=None):
        times.append(t)
        return sources(self, t, overrides)

    def recorded(self, x0, src, **kw):
        sols = newton(self, x0, src, **kw)
        calls.append((x0.copy(), times[:], sols))
        times.clear()
        return sols

    monkeypatch.setattr(engine._System, "sources", timed)
    monkeypatch.setattr(engine._System, "newton", recorded)
    c, d, _ic = _ring24()
    w = transient(c, d, SolverConfig(fixed_step=fixed_step))
    steps = w.axis.size - 1
    attempts = [call for call in calls if len(call[0]) == 3]
    lone = [call for call in calls if len(call[0]) == 1]
    assert len(attempts) + len(lone) == len(calls)
    assert all(len(ts) == 1 and isinstance(ts[0], float) for _x0, ts, _ in lone)
    sys = engine._System(c, SolverConfig())
    idx = [sys.node_index[n] - 1 for n in sys.circuit_nodes]
    v = np.column_stack([w.columns[f"v({n})"] for n in sys.circuit_nodes])
    if fixed_step:
        assert not attempts
        stepped = [(x0[0], ts[0]) for x0, ts, _ in lone if ts[0] > 0.0]
        assert len(stepped) == steps
        for k, (x0, t) in enumerate(stepped, start=1):
            assert t == w.axis[k]
            want = _extrapolate_reference(list(w.axis[max(k - 4, 0):k]),
                                          list(v[max(k - 4, 0):k]), t)
            assert np.array_equal(x0[idx], want)
        return
    assert all(ts == [0.0] for _x0, ts, _ in lone)
    assert steps <= len(attempts) < 1.2 * steps
    path_t, path_x = [w.axis[0]], [v[0]]
    k = 1   # accepted points before the attempt
    for x0, (t_half, t_full), sols in attempts:
        assert t_half == pytest.approx(0.5 * (w.axis[k - 1] + t_full), rel=1e-12)
        assert np.array_equal(x0[1], x0[2])
        for row, t in zip(x0, (t_half, t_full)):
            want = _extrapolate_reference(path_t[-4:], path_x[-4:], t)
            assert np.array_equal(row[idx], want)
        if k <= steps and t_full == w.axis[k]:   # accepted
            path_t += [t_half, t_full]
            path_x += [sols[0][idx], v[k]]
            k += 1
    assert k == steps + 1


def _serial_transient(c, d, cfg, ic=None):
    """Adaptive step-doubling with its three Newton calls per attempt made
    one at a time, the second half step from the first one's solution: the
    reference for the coupled attempt.  Each solve starts from the
    predictor at its own time, through the half-step path (each accepted
    attempt's first half step solution, then its accepted point): the first
    half step from the polynomial through the last four path points, the
    full and second half steps from the polynomial through the last three
    path points and this attempt's first half step solution."""
    sys = engine._System(c, cfg)
    stop = d.stop
    max_h = d.max_step if d.max_step is not None else d.step
    if ic is None:
        x, first_be = sys.solve_dc(sys.sources(0.0)), False
    else:
        x, first_be = np.zeros(sys.dim0 - 1), True
        for name, v in ic.items():
            x[sys.node_index[name] - 1] = v
    cap_i = np.zeros(sys.cap_c.size)

    def vab(xv):
        xfull = np.concatenate(([0.0], xv))
        return xfull[sys.cap_a] - xfull[sys.cap_b]

    def step_once(x_in, i_in, t_new, h, method, ts, xs):
        if method == "be":
            geq = sys.cap_c / h
            ieq = geq * vab(x_in)
        else:
            geq = 2.0 * sys.cap_c / h
            ieq = geq * vab(x_in) + i_in
        (xn,) = sys.newton(_extrapolate_reference(ts, xs, t_new)[None],
                           sys.sources(t_new)[None], cap_geq=geq[None], cap_ieq=ieq[None])
        return (None, None) if xn is None else (xn, geq * vab(xn) - ieq)

    times, states, t = [0.0], [x.copy()], 0.0
    path = ([0.0], [x.copy()])
    h = min(d.step, stop / 1000.0, max_h)
    order = 1 if cfg.method == "be" else 2
    nn = sys.n_nodes
    while t < stop - 1e-15 * stop:
        h = min(max(h, cfg.min_step), max_h, stop - t)
        method = "be" if (first_be and t == 0.0) else cfg.method
        xh1, ci1 = step_once(x, cap_i, t + 0.5 * h, 0.5 * h, method, *path)
        pts = (path[0][-3:] + [t + 0.5 * h], path[1][-3:] + [xh1])
        xf, _ = (None, None) if xh1 is None else step_once(
            x, cap_i, t + h, h, method, *pts)
        xh2, ci2 = (None, None) if xf is None else step_once(
            xh1, ci1, t + h, 0.5 * h, method, *pts)
        if xh2 is None:
            h *= 0.5
            assert h >= cfg.min_step
            continue
        diff = np.abs(xh2[:nn] - xf[:nn])
        eta = float(np.max(diff / (cfg.lte_tol * (1.0 + np.abs(xh2[:nn])))))
        if eta <= 1.0:
            path = (pts[0][-3:] + [t + h], pts[1][-3:] + [xh2])
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


def _curves(d):
    """(label, fixed source overrides) of each curve of a sweep directive."""
    if d.source2 is None:
        return [("", {})]
    return [(f"{d.source2}={v:g}", {d.source2.lower(): float(v)})
            for v in engine._sweep_values(d.start2, d.stop2, d.step2)]


def _sweeps(c, d, cfg, order, points):
    """One sweep per curve, each on its own system and with lone Newton
    calls, solving the values in the order order(n) of their n indices.
    Value i after the first starts from the polynomial through the values
    of the index list points(i); a failed start, and the first value, take
    a cold DC solve."""
    out = []
    for label, extra in _curves(d):
        sys = engine._System(c, cfg)
        values = engine._sweep_values(d.start, d.stop, d.step)
        rows = np.empty((values.size, sys.dim0 - 1))
        for i in order(values.size):
            val = values[i]
            src = sys.sources(overrides={d.source.lower(): float(val), **extra})
            x = None
            if i:
                near = points(i)
                (x,) = sys.newton(
                    _extrapolate_reference(values[near], rows[near], val)[None], src[None])
            if x is None:
                x = sys.solve_dc(src)
            rows[i] = x
        out.append(Waveform(axis_name=d.source.lower(), axis=values,
                            columns=sys.columns_of(rows), label=label))
    return out


def _pointwise_sweeps(c, d, cfg):
    """Each value from the polynomial through the three values before it:
    the sweep of one Newton call per value, the accuracy reference."""
    return _sweeps(c, d, cfg, range, lambda i: range(max(i - 3, 0), i))


def _block_sweeps(c, d, cfg):
    """Each value from the polynomial through the three values before its
    block of SWEEP_BLOCK: the single-pass block sweep, the reference at
    stride 1."""
    def points(i):
        first = 1 + (i - 1) // engine.SWEEP_BLOCK * engine.SWEEP_BLOCK
        return range(max(first - 3, 0), first)
    return _sweeps(c, d, cfg, range, points)


def _coarse(n):
    """Sweep indices of the coarse values: every SWEEP_STRIDE-th and the last."""
    return sorted({*range(0, n, engine.SWEEP_STRIDE), n - 1})


def _serial_sweeps(c, d, cfg):
    """The coarse values first, each from the polynomial through the three
    coarse values before its block of SWEEP_BLOCK; then every other value
    in order, from the cubic through the four coarse values nearest its
    interval: the reference for the stacked coarse-to-fine sweep."""
    coarse = []

    def order(n):
        coarse[:] = _coarse(n)
        return coarse + sorted(set(range(n)) - set(coarse))

    def points(i):
        if i in coarse:
            p = coarse.index(i)
            first = 1 + (p - 1) // engine.SWEEP_BLOCK * engine.SWEEP_BLOCK
            return coarse[max(first - 3, 0):first]
        q = max(p for p, ci in enumerate(coarse) if ci < i)   # i's interval
        lo = min(max(q - 1, 0), max(len(coarse) - 4, 0))
        return coarse[lo:lo + 4]
    return _sweeps(c, d, cfg, order, points)


def _replica(n, i, k, live):
    """Where a sweep of n values solves value i of curve k, with the curves
    live in that call: its replica in the call."""
    coarse = _coarse(n)
    if i in coarse:
        j = (coarse.index(i) - 1) % engine.SWEEP_BLOCK
    else:
        j = [v for v in range(n) if v not in coarse].index(i) % (2 * engine.SWEEP_BLOCK)
    return j * len(live) + live.index(k)


def test_stacked_newton_matches_lone_calls(kernel_calls):
    # with a budget of 5 iterations, from the DC point moved by dv: 0 V
    # converges on iteration 1, 0.1 V on 3, -10 V on 5 (the last), -20 V
    # runs out of iterations and a NaN start fails on its first update; the
    # -10 V replica leaves the stack on the same update that exhausts the
    # -20 V one.
    # Then replicas with their own source rows, the supply at 20, 24 and 28 V
    c = netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0)
    sys = engine._System(c, SolverConfig())
    src = sys.sources(0.0)
    x = sys.solve_dc(src)
    sys = engine._System(c, SolverConfig(max_newton_iters=5))
    starts = np.stack([x + dv for dv in (-10.0, 0.0, np.nan, -20.0, 0.1)])
    lone, records, calls = [], [], []
    for x0 in starts:
        kernel_calls[0] = 0
        lone += sys.newton(x0[None], src[None])
        records += sys.fail
        calls.append(kernel_calls[0])
    assert calls == [5, 1, 1, 5, 3]
    assert [r is None for r in lone] == [False, False, True, True, False]
    kernel_calls[0] = 0
    stacked = sys.newton(starts, np.tile(src, (5, 1)))
    assert kernel_calls[0] == 5
    assert repr(sys.fail) == repr(records)   # the NaN start records residual nan
    for a, b in zip(stacked, lone):
        assert (a is None and b is None) or np.array_equal(a, b)

    sys = engine._System(c, SolverConfig())
    rows = np.array([sys.sources(0.0, {"vdd": vdd}) for vdd in (20.0, 24.0, 28.0)])
    starts = np.tile(x, (3, 1))
    for x0, row, got in zip(starts, rows, sys.newton(starts, rows)):
        (want,) = sys.newton(x0[None], row[None])
        assert got is not None and np.array_equal(got, want)


def _ring24():
    return (netlist.parse(fixtures.read("ro_pseudo_e.cir")).with_source_level("vdd", 24.0),
            netlist.Tran(step=1.0 / (50.0 * 522.6), stop=2.0 / 522.6), None)


def _rc():
    return netlist.parse(RC_NET), netlist.parse(RC_NET).analyses[0], {"out": 0.0}


@pytest.mark.parametrize("case,iters", [
    (_ring24, 100),
    (lambda: (netlist.parse(fixtures.read("ro_cmos.cir")),
              netlist.Tran(step=8e-6, stop=1e-3), None), 100),
    (lambda: (netlist.parse(fixtures.read("neuron.cir")),
              netlist.Tran(step=5e-3, stop=0.05), None), 100),
    *[(_rc, iters) for iters in (100, 11, 15, 20, 25)],
], ids=["ro_pseudo_e_24v", "ro_cmos", "neuron", "rc", "rc_11", "rc_15", "rc_20", "rc_25"])
def test_stacked_step_doubling_matches_serial(case, iters):
    # the coupled attempt is exact Newton on the equations of the three
    # serial solves, stopped by the same test, so it takes the same steps
    # and lands every node within VNTOL and every source current within
    # ABSTOL + reltol * |i| of them (1.8e-7 of that bound at most, measured).
    # Its starts differ, so its solutions differ within the Newton tolerance,
    # and a step width follows eta ** (-1/3) of the full-half difference:
    # the 24 V ring's axis moves by 1.0e-10 relative, the other three by
    # 4.2e-12 at most.  Small budgets too: where node `in` jumps 0 -> 5 V, the
    # full step's start is far off, and with every node update clipped to
    # 0.5 V the coupled attempt ran out of iterations in steps that the
    # serial order accepted (503 steps against 502 at 11 iterations)
    c, d, ic = case()
    cfg = SolverConfig(max_newton_iters=iters)
    got, want = transient(c, d, cfg, ic=ic), _serial_transient(c, d, cfg, ic=ic)
    assert got.names == want.names and got.axis.size == want.axis.size
    np.testing.assert_allclose(got.axis, want.axis, rtol=5e-10, atol=0.0)
    for name in got.names:
        v = name.startswith("v(")
        np.testing.assert_allclose(got.columns[name], want.columns[name],
                                   rtol=0.0 if v else cfg.reltol,
                                   atol=engine.VNTOL if v else engine.ABSTOL, err_msg=name)


def test_chained_replica_has_a_full_budget_after_the_first():
    # an RC attempt with a budget of 3 iterations, each node update limited
    # to DAMPING + 2 |v|: the first half step starts at 0.5 V, 1.5 V off, and
    # converges on the 3rd iteration; the second half step starts at 0 V and
    # needs 4, which it gets after the first; it lands within VNTOL of a lone
    # solve from its start with its history formed from the first half
    # step's solution.  The full step keeps a lone call's budget: from 0 V
    # it fails, and so does the call
    c = netlist.parse(RC_NET)
    sys = engine._System(c, SolverConfig(max_newton_iters=3))
    out, h = sys.node_index["out"] - 1, 1e-5
    geq = 2.0 * sys.cap_c / np.array([[0.5 * h], [h], [0.5 * h]])
    ieq = geq * 2.0 + 3e-4   # trapezoidal companions from 2 V and 0.3 mA

    def second_half(x):   # its currents from the first half step's x
        return (geq[2] + geq[0]) * x[out] - ieq[0]

    x0 = np.array([[5.0, 2.0, -3e-4]] * 3)
    x0[0, out] -= 1.5
    x0[2, out] -= 2.0
    ieq[2] = second_half(x0[0])
    src, chain = np.array([sys.sources(t) for t in (0.5 * h, h, h)]), geq[2] + geq[0]
    sols = sys.newton(x0, src, cap_geq=geq, cap_ieq=ieq, chain=chain)
    assert np.array_equal(sols[0], sys.newton(x0[:1], src[:1], cap_geq=geq[:1],
                                              cap_ieq=ieq[:1])[0])
    # alone, 3 iterations from its start are too few
    last = dict(cap_geq=geq[2:], cap_ieq=second_half(sols[0])[None])
    assert sys.newton(x0[2:], src[2:], **last) == [None]
    (lone,) = engine._System(c, SolverConfig()).newton(x0[2:], src[2:], **last)
    np.testing.assert_allclose(sols[2], lone, rtol=0.0, atol=engine.VNTOL)
    x0[1, out] -= 2.0
    sols = sys.newton(x0, src, cap_geq=geq, cap_ieq=ieq, chain=chain)
    assert [x is None for x in sols] == [False, True, True]


CMOS_VDDS = netlist.DcSweep("vin", 0.0, 7.0, 0.01, "vdd", 3.0, 7.0, 2.0)

# the pseudo-E inverter's own sweep, the CMOS inverter at three supplies,
# and the NAND swept on input a with input b off
SWEEPS = {
    "inverter_pseudo_e": lambda: (netlist.parse(fixtures.read("inverter_pseudo_e.cir")),
                                  None),
    "inverter_cmos_vdds": lambda: (netlist.parse(fixtures.read("inverter_cmos.cir")),
                                   CMOS_VDDS),
    "nand_pseudo_e": lambda: (netlist.parse(fixtures.read("nand_pseudo_e.cir"))
                              .with_source_level("vb", 5.0),
                              netlist.DcSweep("va", 0.0, 5.0, 0.01)),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_block_sweep_within_vntol_of_pointwise(case):
    # the block starts change only the work of a solve: every node lands
    # within VNTOL of the sweep of one Newton call per value
    c, d = SWEEPS[case]()
    d = d or c.analyses[0]
    got = dc_sweep(c, d, SolverConfig())
    got = got if isinstance(got, list) else [got]
    want = _pointwise_sweeps(c, d, SolverConfig())
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.label == b.label and a.names == b.names
        assert np.array_equal(a.axis, b.axis)
        for name in a.names:
            if name.startswith("v("):
                np.testing.assert_allclose(a.columns[name], b.columns[name],
                                           rtol=0.0, atol=engine.VNTOL,
                                           err_msg=name)


@pytest.mark.parametrize("case", ["inverter_pseudo_e", "nand_pseudo_e"])
def test_block_sweep_matches_serial(case):
    # one curve: the values of a block are the replicas of one call
    c, d = SWEEPS[case]()
    d = d or c.analyses[0]
    (want,) = _serial_sweeps(c, d, SolverConfig())
    _same_waveform(dc_sweep(c, d, SolverConfig()), want)


def test_stacked_secondary_sweep_matches_serial():
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    got = dc_sweep(c, CMOS_VDDS, SolverConfig())
    want = _serial_sweeps(c, CMOS_VDDS, SolverConfig())
    assert [w.label for w in got] == ["vdd=3", "vdd=5", "vdd=7"]
    for a, b in zip(got, want):
        _same_waveform(a, b)


def _diverge_starts(monkeypatch, vdd, vin, count):
    """Make the first count Newton starts at (vdd, vin) all NaN.  The
    returned list records every start there: its replica in a stacked call,
    "zero" for a stack of one from zero, "lone" for another stack of one
    (the block calls of these sweeps stack several replicas)."""
    newton = engine._System.newton
    hit = []

    def patched(self, x0, src, **kw):
        cols = [self.source_index["vdd"], self.source_index["vin"]]
        for k, row in enumerate(src):
            if row[cols].tolist() == [vdd, vin]:
                hit.append(k if len(x0) > 1 else "lone" if x0.any() else "zero")
                if len(hit) <= count:
                    x0 = x0.copy()
                    x0[k] = np.nan
        return newton(self, x0, src, **kw)

    monkeypatch.setattr(engine._System, "newton", patched)
    return hit


def test_failed_warm_start_falls_back_alone(monkeypatch):
    # the 5 V curve's start at one value diverges while the 3 V and 7 V
    # curves converge, and it alone climbs the rescue ladder, whose rungs
    # start from zero: at a block's first coarse value (vin = 0.8), at a
    # later one (the fourth, vin = 2.4) and at a fine value (vin = 2).  When
    # the plain rung diverges too, the gmin rung starts from zero and each of
    # its later solves from the one before.  The stacked sweep gives the
    # serial answer every time
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    d = replace(CMOS_VDDS, step=0.05)
    values = engine._sweep_values(d.start, d.stop, d.step).tolist()
    coarse = _coarse(len(values))
    gmin = ["zero"] + ["lone"] * (len(engine._RUNGS[1][1]) - 1)
    for i, count in ((coarse[1], 1), (coarse[3], 1), (coarse[3], 2),
                     (coarse[2] + engine.SWEEP_STRIDE // 2, 1)):
        rungs = ["zero"] if count == 1 else ["zero", *gmin]
        with monkeypatch.context() as mp:
            hit = _diverge_starts(mp, 5.0, values[i], count)
            want = _serial_sweeps(c, d, SolverConfig())
            assert hit == ["lone", *rungs]
            hit.clear()
            got = dc_sweep(c, d, SolverConfig())
        assert hit == [_replica(len(values), i, 1, [0, 1, 2]), *rungs]
        for a, b in zip(got, want):
            _same_waveform(a, b)


def test_first_failing_curve_is_reported(monkeypatch):
    # curve order decides which failure is raised, as curve by curve, and
    # the message names the curve.  Every start diverges at the 7 V curve's
    # coarse vin = 1.6 (the block start and the first solve of each rung):
    # it leaves the sweep among the coarse values.  Among the fine values
    # the 3 V curve's start at vin = 0.4 fails and the plain rung rescues it,
    # and every start diverges at the 5 V curve's vin = 2: its error is raised
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    d = replace(CMOS_VDDS, step=0.05)
    values = engine._sweep_values(d.start, d.stop, d.step).tolist()
    n, coarse, half = len(values), _coarse(len(values)), engine.SWEEP_STRIDE // 2
    at = {"7": (7.0, coarse[2], 4), "rescued": (3.0, coarse[0] + half, 1),
          "5": (5.0, coarse[2] + half, 4)}
    hits = {key: _diverge_starts(monkeypatch, vdd, values[i], count)
            for key, (vdd, i, count) in at.items()}
    with pytest.raises(ConvergenceError, match=r"^dc sweep at vin=2 \(vdd=5\): no convergence "
                                               r"\(failed at source step 0\.1\)"):
        dc_sweep(c, d, SolverConfig())
    # the replica in its call, with the curves live then, then the first
    # solve of each rung
    assert hits["7"] == [_replica(n, coarse[2], 2, [0, 1, 2]), "zero", "zero", "zero"]
    assert hits["rescued"] == [_replica(n, coarse[0] + half, 0, [0, 1]), "zero"]
    assert hits["5"] == [_replica(n, coarse[2] + half, 1, [0, 1]), "zero", "zero", "zero"]


def test_one_curve_failure_names_the_value_only(monkeypatch):
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    _diverge_starts(monkeypatch, 3.0, 2.0, 5)
    with pytest.raises(ConvergenceError, match=r"^dc sweep at vin=2: no convergence "):
        dc_sweep(c, netlist.DcSweep("vin", 0.0, 3.0, 0.05), SolverConfig())


@pytest.mark.parametrize("case", ["inverter_pseudo_e", "inverter_cmos_vdds"])
def test_stride_one_is_the_block_sweep(monkeypatch, case):
    # every value in the coarse pass: the single-pass sweep of blocks of
    # SWEEP_BLOCK consecutive values, bit for bit
    monkeypatch.setattr(engine, "SWEEP_STRIDE", 1)
    c, d = SWEEPS[case]()
    d = d or c.analyses[0]
    got = dc_sweep(c, d, SolverConfig())
    for a, b in zip(got if isinstance(got, list) else [got], _block_sweeps(c, d, SolverConfig()),
                    strict=True):
        _same_waveform(a, b)


@pytest.mark.parametrize("stop", [4.8, 5.0])
def test_coarse_pass_solves_every_stride_and_the_last(monkeypatch, stop):
    # 481 = 1 + 30 * 16 values and 501 values: either way the coarse pass
    # solves values 0, 16, 32, ... and the last, one cold solve and then
    # blocks of SWEEP_BLOCK consecutive coarse values, before the fine pass
    # solves every other value in order, in blocks of 2 * SWEEP_BLOCK
    c = netlist.parse(fixtures.read("inverter_cmos.cir"))
    d = netlist.DcSweep("vin", 0.0, stop, 0.01)
    values = engine._sweep_values(d.start, d.stop, d.step).tolist()
    assert len(values) == (481 if stop == 4.8 else 501)
    newton, calls = engine._System.newton, []

    def recorded(self, x0, src, **kw):
        calls.append(src[:, self.source_index["vin"]].tolist())
        return newton(self, x0, src, **kw)

    monkeypatch.setattr(engine._System, "newton", recorded)
    dc_sweep(c, d, SolverConfig())
    coarse = values[::engine.SWEEP_STRIDE]
    coarse += values[-1:] if coarse[-1] != values[-1] else []
    fine = [v for v in values if v not in coarse]
    assert calls[0] == values[:1]   # the cold solve's plain rung
    split = next(k for k, vs in enumerate(calls) if vs[0] in fine)
    assert calls[1:split] == [
        coarse[p:p + engine.SWEEP_BLOCK] for p in range(1, len(coarse), engine.SWEEP_BLOCK)]
    assert calls[split:] == [fine[b:b + 2 * engine.SWEEP_BLOCK]
                             for b in range(0, len(fine), 2 * engine.SWEEP_BLOCK)]


def test_step_failure_names_the_first_failed_solve():
    # all three solves of the attempt fail on their first update; the error
    # carries the first half step's residual, v2 at t = h / 2 = 0.5 us
    c = netlist.parse("bad\nv1 a 0 dc 1\nv2 a 0 sin 2 1 1k\nc1 a 0 1n\n.end")
    with pytest.raises(ConvergenceError, match=r"largest residual 2 at i\(v2\)") as e:
        transient(c, netlist.Tran(step=1e-4, stop=1e-3), SolverConfig(min_step=8e-7), ic={})
    assert e.value.residual == 2.0 + math.sin(2.0 * math.pi * 1e3 * 0.5e-6)
    assert e.value.row == "i(v2)"


def test_singular_dc_solve_names_node_without_path():
    # node a's matrix row is all zero on every unshunted rung; the error
    # keeps the residual and row the largest-residual report gave
    with pytest.raises(ConvergenceError, match=r"source step 0\.1\); node a has no DC "
                       r"path$") as e:
        dc_operating_point(netlist.parse("float\nc1 a 0 1p\nr1 b 0 1k\n.op\n.end"))
    assert e.value.row == "node a" and e.value.residual == 0.0 and e.value.at == 0.1


def test_lte_step_underflow_names_worst_node():
    # every step fails the error test; the error names the node with the
    # largest local-error ratio
    c = netlist.parse(RC_NET)
    with pytest.raises(ConvergenceError, match=r"step underflow at t=0; largest "
                       r"LTE ratio [0-9.e+]+ at node out") as e:
        transient(c, c.analyses[0], SolverConfig(lte_tol=1e-12, min_step=1e-6),
                  ic={"out": 0.0})
    assert e.value.at == 0.0
    assert e.value.row == "node out" and e.value.residual is None


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


def _write_waveform_csv_reference(w, path):
    """The row-by-row CSV writer the blocked one replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        names = w.names
        fh.write(",".join([w.axis_name] + names) + "\n")
        cols = [w.columns[n] for n in names]
        for k in range(w.axis.size):
            fh.write(",".join(repr(float(v)) for v in [w.axis[k]] + [c[k] for c in cols]))
            fh.write("\n")


@pytest.mark.parametrize("rows", [0, 1, 7, engine._CSV_BLOCK, 2 * engine._CSV_BLOCK + 3])
def test_waveform_csv_matches_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -5e-324, 1.0 / 3.0,
                        5e-324, 1e16, -1e16])
    cols = {"v(a)": np.resize(special, rows), "i(v1)": rng.standard_normal(rows) * 1e-9,
            "v(b)": np.resize(special[::-1], rows)}
    w = Waveform(axis_name="time", axis=np.cumsum(rng.random(rows)), columns=cols)
    write_waveform_csv(w, tmp_path / "new.csv")
    _write_waveform_csv_reference(w, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = read_waveform_csv(tmp_path / "new.csv")
    assert back.names == w.names
    for got, want in zip([back.axis, *back.columns.values()], [w.axis, *w.columns.values()]):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sources_match_waves():
    # at the DC levels and at pulse, sin and dc times, with no override and
    # with overrides on a V source and an I source, against each wave's value
    c = netlist.parse("srcs\nv1 a 0 pulse 0 5 1u 1u 1u 3u 10u\nv2 b 0 sin 1 2 50k\n"
                      "i1 a b dc 1m\nr1 a b 1k\nr2 b 0 1k\n.end")
    sys = engine._System(c, SolverConfig())
    assert [sys.source_index[n] for n in ("v1", "v2", "i1")] == [0, 1, 2]
    for t in (None, 1.5e-6, 2.5e-6, 3e-6, 9e-6, 1.3e-5):
        for overrides in (None, {}, {"v2": 7.0}, {"v1": 1.5, "i1": -2e-3}):
            want = [w.value(t) for w in sys.waves]
            for name, v in (overrides or {}).items():
                want[sys.source_index[name]] = v
            got = sys.sources(t, overrides)
            assert got.shape == (3,) and got.dtype == float
            assert got.tolist() == want, (t, overrides)
