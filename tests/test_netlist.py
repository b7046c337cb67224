"""Parser, serializer, and circuit-transform tests.

Binds the dialect contract: engineering suffixes, subcircuit flattening,
.param substitution, line-numbered diagnostics on malformed input, and the
parse-serialize-parse fixed point over the fixture corpus.
"""

from __future__ import annotations

import numpy as np
import pytest

from ofetsim import fixtures, netlist
from ofetsim.netlist import (
    DcOp,
    DcSweep,
    Mc,
    NetlistError,
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
    c3 = c.with_element_value("r1", 777.0)
    assert c3.element("r1").value == 777.0
    c4 = c.with_scaled_values("r", 2.0)
    assert c4.element("r1").value == 2000.0
    assert c4.element("r2").value == pytest.approx(4400.0)
    assert c4.element("c1").value == pytest.approx(10e-12)  # prefix mismatch
    with pytest.raises(KeyError):
        c.with_source_level("r1", 1.0)
    with pytest.raises(KeyError):
        c.with_element_value("vdd", 1.0)


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
    ("t\ni1 0 a sin 0 1 1k\nr1 a 0 1k\n.end", "dc and pulse", 2),
    ("t\n.subckt s a\nr1 a 0 1k\nv1 a 0 dc 1\n.end", "never closed", 2),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v2 0 1 0.1\n.end", "no V or I source", 4),
    ("t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 0 1 0.5 v1 5 6 1\n.end", "swept source", 4),
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


def test_validate_flags():
    c = parse("t\nv1 a 0 dc 1\nr1 a b 1k\nc1 b x 1p\n.end")
    msgs = [d.message for d in validate(c)]
    assert any("no DC path" in m for m in msgs)
    bad = parse("t\nv1 a 0 dc 1\nr1 a 0 1k\n"
                ".model unused otftp mu0=1e-5 vth=-1 ss=0.2 cox=3e-4 w=1u l=1u\n.end")
    msgs = [d.message for d in validate(bad)]
    assert any("never instantiated" in m for m in msgs)


def test_serialize_is_parseable_text():
    c = parse(fixtures.read("neuron.cir"))
    text = serialize(c)
    assert text.splitlines()[0]  # title survives
    c2 = parse(text)
    assert {e.name for e in c.elements} == {e.name for e in c2.elements}
