"""Parser, serializer, and circuit-transform tests.

Binds the dialect contract: engineering suffixes, subcircuit flattening,
.param substitution, line-numbered diagnostics on malformed input, and the
parse-serialize-parse fixed point over the fixture corpus.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ofetsim import fixtures, netlist
from ofetsim.model import ParameterError, StrainState, apply_strain
from ofetsim.netlist import (
    DcOp,
    DcSweep,
    Mc,
    NetlistError,
    SourceWave,
    Tran,
    parse,
    serialize,
    validate,
)

FIXTURE_NETLISTS = [
    "inverter_pseudo_e.cir", "inverter_cmos.cir", "ro_pseudo_e.cir",
    "ro_cmos.cir", "nand_pseudo_e.cir", "nor_pseudo_e.cir", "neuron.cir",
]

SMALL = """\
divider test
vdd vdd 0 dc 5
r1 vdd mid 1k
r2 mid 0 2.2k
c1 mid 0 10p
.op
.end
"""


def test_parse_small():
    c = parse(SMALL)
    assert c.title == "divider test"
    assert [e.name for e in c.elements] == ["vdd", "r1", "r2", "c1"]
    assert c.element("r2").value == pytest.approx(2200.0)
    assert c.element("c1").value == pytest.approx(10e-12)
    assert c.nodes[0] == "0"
    assert isinstance(c.analyses[0], DcOp)


@pytest.mark.parametrize("tok,value", [
    ("1k", 1e3), ("1meg", 1e6), ("2.28k", 2280.0), ("5p", 5e-12),
    ("100n", 1e-7), ("3u", 3e-6), ("7m", 7e-3), ("1g", 1e9),
    ("1e3", 1e3), ("0.5", 0.5), ("10f", 1e-14), ("4.7kohm", 4700.0),
    ("1t", 1e12), ("2mil", 50.8e-6),
])
def test_engineering_suffixes(tok, value):
    c = parse(f"t\nr1 a 0 {tok}\nv1 a 0 dc 1\n.end")
    assert c.element("r1").value == pytest.approx(value, rel=1e-12)


def test_case_insensitive():
    c = parse("t\nR1 A 0 1K\nV1 a 0 DC 1\n.END")
    assert c.element("r1").value == 1000.0
    assert "a" in c.nodes


def test_continuation_lines():
    c = parse("t\n.model m1 otftp mu0=1e-5 vth=-1\n+ ss=0.2 cox=3e-4\n"
              "+ w=100u l=10u\nm1 d g 0 m1\nv1 d 0 dc -1\n.end")
    assert c.model_card("m1").ss == pytest.approx(0.2)


def test_comments_ignored():
    c = parse("t\n* a comment\nr1 a 0 1k\nv1 a 0 dc 1\n* another\n.end")
    assert len(c.elements) == 2


# -- subcircuits and parameters ----------------------------------------------


NESTED = """\
nested subckt expansion
.param rload=2k
.subckt stage in out
rin in mid 1k
rout mid out rload
.ends
x1 a b stage
x2 b c stage
rtop a 0 500
v1 c 0 dc 1
.op
.end
"""


def test_flattening_preserves_element_count():
    c = parse(NESTED)
    # 2 instances x 2 elements + 2 top-level
    assert len(c.elements) == 6
    # flattened names keep the kind letter so the serialized form re-parses
    names = {e.name for e in c.elements}
    assert "rx1.rin" in names and "rx2.rout" in names


def test_subckt_internal_nodes_are_namespaced():
    c = parse(NESTED)
    assert "x1.mid" in c.nodes and "x2.mid" in c.nodes


def test_param_override_at_parse_time():
    c = parse(NESTED, params={"rload": 4e3})
    assert c.element("rx1.rout").value == pytest.approx(4000.0)
    # and the default still holds without the override
    assert parse(NESTED).element("rx1.rout").value == pytest.approx(2000.0)
    # an override that is not finite is an error where the parameter is used
    with pytest.raises(NetlistError, match="'rload' is not a finite number"):
        parse(NESTED, params={"rload": float("inf")})


def test_param_override_applies_inside_param_cards():
    # an overridden name holds its override in the card that sets it and in
    # later ones; the card's own value for it is still checked
    text = "t\n.param a={a} b=a\n.param c=a\nv1 n 0 dc 1\nr1 n 0 1k\n.end"
    c = parse(text.format(a="1"), params={"a": 5})
    assert dict(c.params) == {"a": 5.0, "b": 5.0, "c": 5.0}
    assert dict(parse(text.format(a="1")).params) == {"a": 1.0, "b": 1.0, "c": 1.0}
    with pytest.raises(NetlistError, match="malformed number") as err:
        parse(text.format(a="12zz4"), params={"a": 5})
    assert [d.line for d in err.value.diagnostics] == [2]
    # a .param card may reference a name that only an override sets
    c = parse("t\n.param b=z\nv1 n 0 dc 1\nr1 n 0 b\n.end", params={"z": 2e3})
    assert dict(c.params)["b"] == 2e3 and c.element("r1").value == 2e3


def test_ring_oscillators_flatten_to_12_transistors():
    for name in ("ro_pseudo_e.cir", "ro_cmos.cir"):
        c = parse(fixtures.read(name))
        count = sum(1 for e in c.elements if e.kind == "M")
        assert count == 12, name


# -- fixture corpus round trip ------------------------------------------------


@pytest.mark.parametrize("name", FIXTURE_NETLISTS)
def test_parse_serialize_parse_fixed_point(name):
    c1 = parse(fixtures.read(name))
    text1 = serialize(c1)
    c2 = parse(text1)
    text2 = serialize(c2)
    assert text1 == text2
    assert len(c1.elements) == len(c2.elements)
    assert c1.analyses == c2.analyses


@pytest.mark.parametrize("name", FIXTURE_NETLISTS)
def test_fixture_corpus_validates_clean(name):
    c = parse(fixtures.read(name))
    assert [d for d in validate(c) if d.severity == "error"] == []


# -- analysis directives ------------------------------------------------------


def test_directives():
    c = parse("t\nv1 a 0 dc 1\nr1 a 0 1k\n"
              ".dc v1 0 5 0.1\n.tran 1u 1m\n.mc 10 42 vth=normal -1 0.05\n.end")
    dc, tr, mc = c.analyses
    assert dc == DcSweep("v1", 0.0, 5.0, 0.1)
    assert tr == Tran(1e-6, 1e-3, None)
    assert isinstance(mc, Mc) and mc.count == 10 and mc.seed == 42
    assert mc.dists == (("vth", "normal", -1.0, 0.05),)


def test_pulse_and_sin_sources():
    c = parse("t\nv1 a 0 pulse 0 5 1u 2u 2u 10u 20u\n"
              "v2 b 0 sin 0 1m 1k\nr1 a 0 1k\nr2 b 0 1k\n.end")
    w = c.element("v1").wave
    assert w.kind == "pulse" and w.value(0.0) == 0.0
    assert w.value(5e-6) == pytest.approx(5.0)
    assert w.level == 5.0
    s = c.element("v2").wave
    assert s.kind == "sin" and len(s.args) == 5
    assert s.value(0.25e-3) == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("card, k", [
    ("dc 5", 0),
    ("pulse 0 5 1u 2u 2u 10u 20u", 1),
    ("sin 0.5 1m 1k 2u 10", 0),
])
def test_with_level_replaces_only_the_level(card, k):
    w = parse(f"t\nv1 a 0 {card}\nr1 a 0 1k\n.end").element("v1").wave
    w2 = w.with_level(7.25)
    assert w2.kind == w.kind and w2.level == 7.25
    assert w2.args[k] == 7.25
    assert w2.args[:k] + w2.args[k + 1:] == w.args[:k] + w.args[k + 1:]


def test_with_source_level_and_values():
    c = parse(SMALL)
    c2 = c.with_source_level("vdd", 9.0)
    assert c2.element("vdd").wave.level == 9.0
    assert c.element("vdd").wave.level == 5.0  # original untouched
    with pytest.raises(KeyError):
        c.with_source_level("r1", 1.0)


def test_with_otft_overrides_and_strain():
    c = parse(fixtures.read("inverter_cmos.cir"))
    c2 = c.with_otft_overrides({"mp": {"w": 555e-6}})
    assert c2.element("mp").override("w") == 555e-6
    c3 = c.with_strain(0.5, "parallel")
    for e in c3.elements:
        if e.kind == "M":
            assert e.override("strain") == 0.5
            assert e.override("dir") == "par"
    c0 = c.with_strain(0.0, "parallel")
    assert all(e.override("strain") == 0.0 for e in c0.elements if e.kind == "M")
    # a misspelt instance is an error, not a silent no-op; every miss is named
    with pytest.raises(KeyError, match="mbogus, mzz"):
        c.with_otft_overrides({"mp": {"vth": 1.0}, "mbogus": {"vth": 1.0}, "MZZ": {}})


def test_accepted_overrides_round_trip():
    # every key the dialect knows is accepted and survives serialization;
    # an override the dialect cannot hold is refused, not written out
    c = parse(fixtures.read("inverter_cmos.cir"))
    accepted = [
        {"mu0": 3e-5}, {"VTH": -1.25}, {"ss": 0.2}, {"lambda": 0.02},
        {"gamma": 0.3}, {"rc": 25e3}, {"cox": 4e-4},
        {"w": 555e-6, "l": 20e-6, "lov": 2e-6}, {"order": 2.0},
        {"strain": 0.5, "dir": "perp"}, {"strain": 0.25}, {"vth": np.float64(-0.9)},
    ]
    for updates in accepted:
        c2 = c.with_otft_overrides({"mp": updates})
        assert parse(serialize(c2)) == c2, updates
    refused = [{"vt": 5.0}, {"dir": "paralel"}, {"dir": "PAR"},
               {"w": float("nan")}, {"rc": float("inf")}, {"l": "abc"}]
    for updates in refused:
        with pytest.raises(ValueError):
            c.with_otft_overrides({"mp": updates})


def test_records_built_in_code_round_trip():
    # a source level or directive built in code either raises ValueError
    # under the parser's rule or survives serialization
    c = parse(fixtures.read("inverter_cmos.cir"))
    for level in (9.0, -3.5, 0.0, np.float64(2.5)):
        c2 = c.with_source_level("VDD", level)
        assert parse(serialize(c2)) == c2, level
    for level in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="dc arguments must be finite"):
            c.with_source_level("vdd", level)
    accepted = [
        [DcSweep("VIN", 0.0, 5.0, 0.1)],
        [DcSweep("vin", 0.0, 5.0, 0.1, "VDD", 3.0, 7.0, 2.0)],
        [Tran(1e-6, 1e-3, 1e-7)],
        [DcOp(), Tran(1e-6, 1e-3), Mc(10, 42, (("vth", "normal", -0.8, 0.05),))],
    ]
    for analyses in accepted:
        c2 = c.with_analyses(analyses)
        assert parse(serialize(c2)) == c2, analyses
    assert c.with_analyses(accepted[1]).analyses[0].source2 == "vdd"
    refused = [
        (lambda: Tran(1e-6, math.inf), "finite positive step and stop"),
        (lambda: DcSweep("vin", 0.0, 5.0, 0.1, "vdd", 3.0), "SRC2 start2 stop2 step2"),
        (lambda: SourceWave("pulse", (0.0,)), "pulse takes 2..7 arguments"),
        (lambda: SourceWave("sin", (0.0, 1.0, math.nan)), "sin arguments must be finite"),
        (lambda: c.with_analyses([DcSweep("vbogus", 0.0, 1.0, 0.5)]),
         "'vbogus' names no V or I source"),
    ]
    for build, needle in refused:
        with pytest.raises(ValueError, match=needle):
            build()


def test_with_strain_checks_the_state():
    c = parse(fixtures.read("inverter_cmos.cir"))
    with pytest.raises(ParameterError):
        c.with_strain(0.5, "paralel")
    with pytest.raises(ParameterError):
        c.with_strain(-0.1, "parallel")
    c2 = c.with_strain(0.5, "perpendicular")
    assert {e.override("dir") for e in c2.elements if e.kind == "M"} == {"perp"}


def test_card_with_applies_overrides_then_strain():
    c = parse(fixtures.read("inverter_cmos.cir"))
    e = c.with_otft_overrides({"mp": {"w": 1e-4, "strain": 0.5, "dir": "perp"}}
                              ).element("mp")
    base = c.model_card(e.model)
    want = apply_strain(base.replace(geom=replace(base.geom, w=1e-4)),
                        StrainState(0.5, "perpendicular"))
    assert netlist.card_with(base, e.overrides) == want
    assert netlist.card_with(base, ()) is base


def test_directive_lines_and_records_share_their_checks():
    # each bad card is a diagnostic on its own line, and the same record
    # built in code raises the same message
    Mc(1, 1, (("vth", "normal", 0.0, 0.0), ("mu0", "lognormal", 1e-5, 0.1)))
    cases = [
        (".mc 0 1", lambda: Mc(0, 1, ()), "count must be an integer in [1, 100000]"),
        (".mc 2.5 1", lambda: Mc(2.5, 1, ()), "count must be an integer in [1, 100000]"),
        (".mc 1000000000000 1 vth=normal -1 0.1",
         lambda: Mc(10 ** 12, 1, (("vth", "normal", -1.0, 0.1),)),
         "count must be an integer in [1, 100000]"),
        (".mc 3 -1", lambda: Mc(3, -1, ()), "seed must be an integer"),
        (".mc 3 1.5", lambda: Mc(3, 1.5, ()), "seed must be an integer"),
        (".mc 3 1 vt=normal 0 0.5", lambda: Mc(3, 1, (("vt", "normal", 0.0, 0.5),)),
         "unknown parameter 'vt'"),
        (".mc 3 1 vth=cauchy 0 0.5", lambda: Mc(3, 1, (("vth", "cauchy", 0.0, 0.5),)),
         "unknown distribution 'cauchy'"),
        (".mc 3 1 vth=normal 0 -0.5", lambda: Mc(3, 1, (("vth", "normal", 0.0, -0.5),)),
         "vth spread must be >= 0"),
        (".mc 3 1 vth=normal 0", None, "needs two arguments"),
        (".mc 3", None, ".mc takes count seed"),
        (".dc v1 1 0 0.1", lambda: DcSweep("v1", 1.0, 0.0, 0.1), "stop >= start"),
        (".dc v1 0 1 0", lambda: DcSweep("v1", 0.0, 1.0, 0.0), "finite step > 0"),
        (".dc v1 0 1 0.5 v2 1 0 1", lambda: DcSweep("v1", 0.0, 1.0, 0.5, "v2", 1.0, 0.0, 1.0),
         "stop >= start"),
        (".dc v1 0 1 0.5 V1 5 6 1", lambda: DcSweep("V1", 0.0, 1.0, 0.5, "v1", 5.0, 6.0, 1.0),
         "secondary source 'v1' is the swept source"),
        (".dc v1 0 1 0.5 v2 0", lambda: DcSweep("v1", 0.0, 1.0, 0.5, "v2", 0.0),
         "SRC2 start2 stop2 step2"),
        (".dc v1 0 2 1u", lambda: DcSweep("v1", 0.0, 2.0, 1e-6),
         "sweeps more than 1000000 points"),
        (".dc v1 0 1 1m v2 0 1 0.1m",
         lambda: DcSweep("v1", 0.0, 1.0, 1e-3, "v2", 0.0, 1.0, 1e-4),
         "sweeps more than 1000000 points"),
        (".tran 0 1m", lambda: Tran(0.0, 1e-3), "finite positive step and stop"),
        (".tran 1u 1m 0", lambda: Tran(1e-6, 1e-3, 0.0), "finite positive maxstep"),
        (".tran 1e-12 1", lambda: Tran(1e-12, 1.0), "spans more than 1000000 steps of 1e-12"),
        (".tran 1u 2 1e-300", lambda: Tran(1e-6, 2.0, 1e-300),
         "spans more than 1000000 steps of 1e-300"),
        (".tran 1e-300 1e300", lambda: Tran(1e-300, 1e300),   # stop / step overflows
         "spans more than 1000000 steps of 1e-300"),
        ("v2 b 0 pulse 0", lambda: SourceWave("pulse", (0.0,)), "pulse takes 2..7 arguments"),
        ("v2 b 0 ramp 0 1", lambda: SourceWave("ramp", (0.0, 1.0)),
         "unknown source shape 'ramp'"),
        (".op 1", None, ".op takes no arguments"),
    ]
    for card, record, needle in cases:
        with pytest.raises(NetlistError) as err:
            parse(f"t\nv1 a 0 dc 1\nr1 a 0 1k\n{card}\n.end")
        assert [(d.line, needle in d.message) for d in err.value.diagnostics] == [(4, True)], card
        if record is not None:
            with pytest.raises(ValueError, match=re.escape(needle)):
                record()


# -- diagnostics --------------------------------------------------------------


@pytest.mark.parametrize("text,needle,line", [
    ("t\nq1 a b c\n.end", "unknown card", 2),
    ("t\nr1 a 0 12zz4\n.end", "malformed number", 2),
    ("t\nm1 d g s nomodel\nv1 d 0 dc 1\n.end", "model", 2),
    ("t\nx1 a b ghost\nv1 a 0 dc 1\n.end", "subcircuit", 2),
    ("t\nr1 a 0\n.end", "needs two nodes", 2),
    ("t\nr1 a 0 1k\nr1 b 0 2k\n.end", "duplicate", 3),
    ("t\nv1 a 0 dc 1\n.dc v1 1 0 0.1\n.end", "stop >= start", 3),
    ("t\nv1 a 0 dc 1\n.tran 0 1m\n.end", "positive step", 3),
    ("t\nv1 a 0 dc 1\n.tran 1u 1m 0\n.end", "positive maxstep", 3),
    ("t\nv1 a 0 dc 1\n.tran 1u 1m -1u\n.end", "positive maxstep", 3),
    ("t\ni1 0 a sin 0 1 1k\nr1 a 0 1k\n.end", "dc and pulse", 2),
    ("t\n.subckt s a\nr1 a 0 1k\nv1 a 0 dc 1\n.end", "never closed", 2),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v2 0 1 0.1\n.end", "no V or I source", 4),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 0 1 0.5 v1 5 6 1\n.end", "swept source", 4),
    ("t\n.model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n"
     "m1 d g 0 pm vt=1\n.end", "unknown override 'vt'", 3),
    ("t\n.model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n"
     "m1 d g 0 pm strain=0.5 dir=diag\n.end", "dir must be par or perp", 3),
    # a port listed twice, or ground as a port, would drop a connection
    ("t\n.subckt s a a\nr1 a 0 1k\n.ends\nx1 p q s\nv1 p 0 dc 1\n.end",
     ".subckt s: repeated port 'a'", 2),
    ("t\n.subckt s 0 a\nr1 a 0 1k\n.ends\nx1 n a s\nv1 n 0 dc 1\n.end",
     ".subckt s: ground node 0 cannot be a port", 2),
    # a card inside a subcircuit reports at its body line, as at top level
    ("t\n.subckt s a\nr1 a\n.ends\nx1 p s\nv1 p 0 dc 1\n.end",
     "R card needs two nodes and a value", 3),
    ("t\n.subckt s a\nm1 a b\n.ends\nx1 p s\nv1 p 0 dc 1\n.end",
     "mx1.m1: transistor needs d g s and a model name", 3),
    ("t\n.subckt s a\ni1 a 0 sin 0 1 1k\n.ends\nx1 p s\nv1 p 0 dc 1\n.end",
     "ix1.i1: current sources support dc and pulse only", 3),
    ("t\n.subckt s a\nq1 a b\n.ends\nx1 p s\nv1 p 0 dc 1\n.end",
     "unknown card 'q1'", 3),
    # a number that overflows a float is an error at its line, not inf
    ("t\nr1 a 0 1e400\nv1 a 0 dc 1\n.end", "r1: '1e400' is not a finite number", 2),
    ("t\nr1 a 0 1e306meg\nv1 a 0 dc 1\n.end", "r1: '1e306meg' is not a finite number", 2),
    ("t\nv1 a 0 dc -1e400\nr1 a 0 1k\n.end", "v1: '-1e400' is not a finite number", 2),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.tran 1u 1e400\n.end", ".tran: '1e400' is not a finite", 4),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 0 1e400 1\n.end", ".dc: '1e400' is not a finite", 4),
    # a point count that overflows is an error at its line, not a crash
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 -1e308 1e308 1e308\n.end",
     ".dc: sweeps more than 1000000 points", 4),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 0 1 1e-300\n.end",
     ".dc: sweeps more than 1000000 points", 4),
    ("t\n.model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u rc=1e400\n"
     "m1 d g 0 pm\n.end", ".model pm key rc: '1e400' is not a finite number", 2),
    ("t\n.model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n"
     "m1 d g 0 pm mu0=1e400\n.end", "m1 override mu0: '1e400' is not a finite number", 3),
    ("t\n.param big=1e400\nv1 a 0 dc 1\nr1 a 0 1k\n.end", ".param big: '1e400' is not a finite", 2),
])
def test_malformed_input_diagnostics(text, needle, line):
    with pytest.raises(NetlistError) as err:
        parse(text)
    diags = err.value.diagnostics
    assert any(needle.lower() in d.message.lower() and d.line == line
               for d in diags), diags


def test_dc_source_may_follow_directive():
    c = parse("t\n.dc vin 0 1 0.5 i1 0 1m 1m\nvin a 0 dc 0\nr1 a 0 1k\n"
              "i1 0 a dc 0\n.end")
    assert c.analyses[0].source == "vin" and c.analyses[0].source2 == "i1"


def test_no_crash_on_garbage():
    # arbitrary binary-ish noise must produce diagnostics, never a crash
    rng = np.random.default_rng(5)
    chars = np.array(list("mrvcx.()=+-eu0123456789 \n"))
    for _ in range(50):
        text = "noise\n" + "".join(rng.choice(chars, size=400))
        try:
            parse(text)
        except NetlistError as e:
            assert all(d.line >= 1 for d in e.diagnostics)


def test_validate_reports_card_lines():
    c = parse("t\nv1 a 0 dc 1\nr1 a 0 -1k\n"
              ".model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n"
              ".subckt amp d\nm1 d d 0 pm strain=-0.1\n.ends\n"
              "x1 a amp\nm2 a a 0 pm w=0\n.end")
    errors = {d.message.split(":")[0]: d.line for d in validate(c)
              if d.severity == "error"}
    assert errors == {"r1": 3, "mx1.m1": 6, "m2": 9}
    # the card line is not part of an element's identity
    assert parse(serialize(c)) == c
    assert [e.line for e in parse(serialize(c)).elements] != [e.line for e in c.elements]

    # every instance card the model rejects is an error at the card line,
    # with the model's own message, whether parsed or built in code
    deck = ("t\nv1 a 0 dc 1\n"
            ".model pm otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n"
            "m1 a a 0 pm{}\n.end")
    good = parse(deck.format(""))
    assert validate(good) == []
    for key, text, value in [("mu0", "-1", -1.0), ("ss", "0", 0.0),
                             ("lambda", "-0.1", -0.1), ("gamma", "-1", -1.0),
                             ("rc", "-1k", -1e3), ("cox", "0", 0.0),
                             ("order", "0.5", 0.5), ("lov", "-1u", -1e-6)]:
        with pytest.raises(ParameterError) as exc:
            netlist.card_with(good.model_card("pm"), {key: value})
        want = [(4, f"m1: {exc.value}")]
        for c in (parse(deck.format(f" {key}={text}")),
                  good.with_otft_overrides({"m1": {key: value}})):
            assert [(d.line, d.message) for d in validate(c)
                    if d.severity == "error"] == want, key


def test_validate_flags():
    c = parse("t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b x 1p\n.end")
    msgs = [d.message for d in validate(c)]
    assert any("no DC path" in m for m in msgs)
    bad = parse("t\nv1 a 0 dc 1\nr1 a 0 1k\n"
                ".model unused otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n.end")
    msgs = [d.message for d in validate(bad)]
    assert any("never instantiated" in m for m in msgs)


GOLDEN = """\
golden deck
.param rl=2.2k
.model pm otftp mu0=2e-5 vth=-0.8 ss=0.2 cox=3e-4 w=100u l=10u rc=10k
v1 in 0 5
v2 clk 0 pulse(0 5 1u 2u 2u 10u 20u)
v3 bias 0 sin(0.5 1m 1k)
i1 0 out pulse 0 1u
r1 in out rl
c1 out 0 10p
m1 out clk bias pm w=200u strain=0.25 dir=perp
.op
.dc v1 0 5 0.1 v3 0 1 0.5
.tran 1u 1m 0.1u
.mc 10 42 vth=normal -0.8 0.05 mu0=lognormal 2e-5 0.1
.end
"""


def test_serialize_golden_text():
    # benchmark decks and fitted cards are written by serialize, so its text
    # is pinned byte for byte: every directive and every source shape
    assert serialize(parse(GOLDEN)) == (
        "golden deck\n"
        ".param rl=2200.0\n"
        ".model pm otftp mu0=2e-05 vth=-0.8 ss=0.2 lambda=0.0 gamma=0.0 rc=10000.0 "
        "cox=0.0003 w=9.999999999999999e-05 l=9.999999999999999e-06 lov=0.0 order=3.0\n"
        "v1 in 0 dc 5.0\n"
        "v2 clk 0 pulse 0.0 5.0 1e-06 2e-06 2e-06 9.999999999999999e-06 "
        "1.9999999999999998e-05\n"
        "v3 bias 0 sin 0.5 0.001 1000.0 0.0 0.0\n"
        "i1 0 out pulse 0.0 1e-06 0.0 0.0 0.0 0.0 0.0\n"
        "r1 in out 2200.0\n"
        "c1 out 0 1e-11\n"
        "m1 out clk bias pm dir=perp strain=0.25 w=0.00019999999999999998\n"
        ".op\n"
        ".dc v1 0.0 5.0 0.1 v3 0.0 1.0 0.5\n"
        ".tran 1e-06 0.001 1e-07\n"
        ".mc 10 42 vth=normal -0.8 0.05 mu0=lognormal 2e-05 0.1\n"
        ".end\n")


def test_serialize_is_parseable_text():
    c = parse(fixtures.read("neuron.cir"))
    text = serialize(c)
    assert text.splitlines()[0]  # title survives
    c2 = parse(text)
    assert {e.name for e in c.elements} == {e.name for e in c2.elements}
