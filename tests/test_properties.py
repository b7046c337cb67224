"""Property tests for the replica axis of the Newton core.

Random OTFT inverter chains (1-3 stages; n-type and p-type resistor-load
stages and complementary stages; contact resistance 0 or not; gamma 0 or
not) are swept with a secondary supply sweep.  The stacked sweep must equal
one plain sweep per supply bit for bit, and every returned point must
satisfy KCL.  The examples are derandomized and bounded, so every run tests
the same chains.

Metamorphic relations of the transient and the DC solve, on the fixtures:
stretching time by a power of two (capacitors and cox times k, mu0 over k,
source timings and the .tran times k) stretches the axis exactly and leaves
every column bit-identical; mirroring polarity (otftp and otftn swapped,
vth and every source level negated) negates every column exactly; shuffling
the card order moves every DC node voltage by less than VNTOL.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofetsim import fixtures, netlist
from ofetsim.engine import (ABSTOL, GMIN, VNTOL, ConvergenceError, SolverConfig,
                            dc_operating_point, dc_sweep, transient)
from ofetsim.model import drain_current_with_contacts

CFG = SolverConfig()

card = st.fixed_dictionaries({
    "mu0": st.floats(1e-5, 4e-5),
    "vth": st.floats(0.3, 1.5),
    "ss": st.floats(0.12, 0.3),
    "lam": st.floats(0.0, 0.03),
    "gamma": st.one_of(st.just(0.0), st.floats(0.05, 0.3)),
    "rc": st.one_of(st.just(0.0), st.floats(1e4, 8e4)),
})
# resistor-load n-type, resistor-load p-type, or complementary pair
stage = st.tuples(st.sampled_from("npc"), card, card, st.floats(1e6, 3e7))
supplies = st.tuples(st.sampled_from([2.0, 3.0, 4.0, 5.0]),   # first supply
                     st.sampled_from([1.0, 2.0]),             # supply step
                     st.integers(2, 3))                       # supplies


def _model(name, polarity, c):
    vth = c["vth"] if polarity == "n" else -c["vth"]
    return (f".model {name} otft{polarity} mu0={c['mu0']!r} vth={vth!r} ss={c['ss']!r} "
            f"lambda={c['lam']!r} gamma={c['gamma']!r} rc={c['rc']!r} cox=3.5e-4 "
            f"w=200u l=20u lov=5u")


def _chain(stages):
    """Netlist text of the chain in -> o0 -> o1 ..."""
    lines = ["random inverter chain", "vdd vdd 0 dc 5", "vin in 0 dc 0"]
    for k, (kind, c1, c2, r) in enumerate(stages):
        vin, out = "in" if k == 0 else f"o{k - 1}", f"o{k}"
        if kind in "nc":
            lines += [_model(f"n{k}", "n", c1), f"mn{k} {out} {vin} 0 n{k}"]
        if kind in "pc":
            lines += [_model(f"p{k}", "p", c2), f"mp{k} {out} {vin} vdd p{k}"]
        if kind == "n":
            lines.append(f"rl{k} vdd {out} {r!r}")
        elif kind == "p":
            lines.append(f"rl{k} {out} 0 {r!r}")
    return "\n".join(lines + [".end"])


def _kcl_worst(c, w):
    """Largest |KCL residual| / (ABSTOL + reltol * sum of |currents|) over the
    transistor-driven nodes of a returned sweep, from the device model."""
    v = {n[2:-1]: col for n, col in w.columns.items() if n.startswith("v(")}
    v["0"] = np.zeros(w.axis.size)
    v["in"] = w.axis
    out = {}   # node -> (sum of currents leaving, sum of their magnitudes)

    def leave(node, i):
        s, a = out.get(node, (0.0, 0.0))
        out[node] = (s + i, a + np.abs(i))

    for e in c.elements:
        if e.kind == "R":
            a, b = e.nodes
            i = (v[a] - v[b]) / e.value
            leave(a, i)
            leave(b, -i)
        elif e.kind == "M":
            d, g, s = e.nodes
            i = drain_current_with_contacts(c.model_card(e.model), v[g] - v[s], v[d] - v[s])
            # the solver's gmin shunts, drain-source and gate-source
            i_ds, i_gs = GMIN * (v[d] - v[s]), GMIN * (v[g] - v[s])
            leave(d, i + i_ds)
            leave(s, -i - i_ds - i_gs)
            leave(g, i_gs)
    return max(float(np.max(np.abs(s) / (ABSTOL + CFG.reltol * a)))
               for node, (s, a) in out.items() if node.startswith("o"))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(stages=st.lists(stage, min_size=1, max_size=3), vdds=supplies)
def test_stacked_supply_sweep_equals_serial_and_satisfies_kcl(stages, vdds):
    c = netlist.parse(_chain(stages))
    first, step, count = vdds
    last = first + step * (count - 1)
    sweep = netlist.DcSweep("vin", 0.0, last, last / 20.0)
    serial, failure = [], None
    for k in range(count):
        try:
            serial.append(dc_sweep(c.with_source_level("vdd", first + step * k), sweep, CFG))
        except ConvergenceError as e:
            failure = str(e)
            break
    stacked = netlist.DcSweep("vin", 0.0, last, last / 20.0, "vdd", first, last, step)
    if failure is not None:
        with pytest.raises(ConvergenceError) as e:
            dc_sweep(c, stacked, CFG)
        assert str(e.value) == failure
        return
    got = dc_sweep(c, stacked, CFG)
    assert len(got) == count
    for w, want in zip(got, serial):
        assert np.array_equal(w.axis, want.axis)
        assert w.names == want.names
        for name in w.names:
            assert np.array_equal(w.columns[name], want.columns[name]), name
        # within the Newton tolerance (the worst example reads 0.03)
        assert _kcl_worst(c, w) <= 1.0


# -- metamorphic relations ---------------------------------------------------

# fixture -> (source levels, a short .tran window)
_WINDOWS = {
    "ro_pseudo_e.cir": ({"vdd": 24.0}, netlist.Tran(40e-6, 4e-3)),   # two periods
    "ro_cmos.cir": ({"vdd": 60.0}, netlist.Tran(8e-6, 0.6e-3)),      # two periods
    "neuron.cir": ({"iex": 500e-9}, netlist.Tran(5e-3, 50e-3)),      # one spike
}
# indices of each source shape's levels, times and rates (1/s); every
# argument is one of the three
_WAVE_ARGS = {"dc": ((0,), (), ()), "pulse": ((0, 1), (2, 3, 4, 5, 6), ()),
              "sin": ((0, 1), (3,), (2, 4))}


def _transformed(c, k=1.0, mirror=False):
    """c with time stretched by k and, if mirror, its polarity mirrored."""
    assert not {key for e in c.elements for key, _ in e.overrides} & {"mu0", "cox", "vth"}
    sign = -1.0 if mirror else 1.0

    def wave(w):
        levels, times, _rates = _WAVE_ARGS[w.kind]
        return netlist.SourceWave(w.kind, tuple(
            a * (sign if i in levels else k if i in times else 1.0 / k)
            for i, a in enumerate(w.args)))

    elements = tuple(replace(e, value=e.value * k) if e.kind == "C" else
                     replace(e, wave=wave(e.wave)) if e.kind in "VI" else e
                     for e in c.elements)
    swap = {"p": "n", "n": "p"} if mirror else {"p": "p", "n": "n"}
    models = tuple((name, replace(p, polarity=swap[p.polarity], vth=sign * p.vth,
                                  cox=p.cox * k, mu0=p.mu0 / k))
                   for name, p in c.models)
    analyses = tuple(netlist.Tran(a.step * k, a.stop * k,
                                  None if a.max_step is None else a.max_step * k)
                     if isinstance(a, netlist.Tran) else a for a in c.analyses)
    return replace(c, elements=elements, models=models, analyses=analyses)


@functools.cache
def _window_run(name, k=1.0, mirror=False):
    levels, tran = _WINDOWS[name]
    c = netlist.parse(fixtures.read(name)).with_analyses([tran])
    for source, level in levels.items():
        c = c.with_source_level(source, level)
    c = _transformed(c, k, mirror)
    return transient(c, c.analyses[0], CFG)


@pytest.mark.parametrize("k", [2.0, 4.0])
@pytest.mark.parametrize("name", list(_WINDOWS))
def test_time_scaling_stretches_the_axis_exactly(name, k):
    w, wk = _window_run(name), _window_run(name, k)
    assert w.axis.size > 100 and np.ptp(w.columns["v(out)"]) > 1.0   # a busy window
    assert np.array_equal(wk.axis, k * w.axis)
    assert list(wk.columns) == list(w.columns)
    for col, want in w.columns.items():
        assert np.array_equal(wk.columns[col].view(np.int64), want.view(np.int64)), col


@pytest.mark.parametrize("name", list(_WINDOWS))
def test_polarity_mirror_negates_every_column(name):
    w, wm = _window_run(name), _window_run(name, mirror=True)
    assert np.array_equal(wm.axis, w.axis)
    assert list(wm.columns) == list(w.columns)
    for col, want in w.columns.items():
        assert np.array_equal(wm.columns[col], -want), col


def test_cmos_inverter_mirror_negates_cold_operating_points():
    # checked on cold operating points, not through .dc: a .dc cannot sweep
    # downward, so the mirrored sweep would run from -3 V up, the other
    # direction, each point continued from another (it reads within 4e-12 V).
    # The rings' points, from 3 to 60 V, take the node update limit
    # DAMPING + 2 |v| for several iterations, so they check that it is
    # symmetric in sign
    inverter = netlist.parse(fixtures.read("inverter_cmos.cir"))
    cases = [("inverter_cmos", inverter.with_source_level("vin", float(vin)))
             for vin in np.linspace(0.0, 3.0, 31)]
    for name, vdds in (("ro_cmos", (30.0, 40.0, 50.0, 60.0)),
                       ("ro_pseudo_e", (3.0, 15.0, 24.0, 30.0))):
        ring = netlist.parse(fixtures.read(f"{name}.cir"))
        cases += [(name, ring.with_source_level("vdd", vdd)) for vdd in vdds]
    for name, a in cases:
        op = dc_operating_point(a, CFG)
        mirrored = dc_operating_point(_transformed(a, mirror=True), CFG)
        assert mirrored.keys() == op.keys()
        assert all(mirrored[n] == -v for n, v in op.items()), (name, op)


def _dc_voltages(c):
    """Node voltages of c's .dc sweep, or of its operating point when its
    analysis is .op or .tran, by node name."""
    a = c.analyses[0]
    if isinstance(a, netlist.DcSweep):
        return {n: col for n, col in dc_sweep(c, a, CFG).columns.items()
                if n.startswith("v(")}
    return dc_operating_point(c, CFG)


@pytest.mark.parametrize("name", sorted(
    p.name for p in fixtures.path("ro_pseudo_e.cir").parent.glob("*.cir")))
def test_shuffled_card_order_keeps_dc_within_vntol(name):
    # the solve order changes with the node and element order, so points
    # move within the Newton tolerance, not bit for bit (1.6e-9 V at most
    # over 5 permutations of each fixture, on the pseudo-E inverter sweep)
    c = netlist.parse(fixtures.read(name))
    want = _dc_voltages(c)
    rng = np.random.default_rng(0)
    for _ in range(2):
        order = rng.permutation(len(c.elements))
        shuffled = replace(c, elements=tuple(c.elements[i] for i in order))
        got = _dc_voltages(netlist.parse(netlist.serialize(shuffled)))
        assert got.keys() == want.keys()
        for node, v in want.items():
            assert np.max(np.abs(np.subtract(got[node], v))) < VNTOL, node
