"""End-to-end command tests: exit codes, artifacts, manifests, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ofetsim
from ofetsim import analyses, cli, fixtures, netlist
from ofetsim.cli import main
from ofetsim.engine import SolverConfig
from ofetsim.model import ParameterError
from test_analyses import MC_OUTSIDE_RULES, MC_OVERFLOW
from test_extract import _batch_like_benchmark


BATCH = str(fixtures.path("batch_3dev_iv.csv"))
REFERENCE = str(fixtures.path("reference_p_iv.csv"))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- extract -----------------------------------------------------------------


def test_extract_batch(tmp_path):
    out = tmp_path / "o"
    assert main(["extract", BATCH, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "reports.csv")
    assert header[:3] == ["device_id", "mu_sat_m2_Vs", "vth_V"]
    assert len(rows) == 3
    for r in rows:
        assert 1e-5 < float(r[1]) < 4e-5
        assert -1.5 < float(r[2]) < -0.3
    h2, srows = _read_csv(out / "summary.csv")
    assert h2 == ["metric", "mean", "std"]
    assert {r[0] for r in srows} >= {"mu_sat", "vth", "ss", "on_off"}
    h3, hrows = _read_csv(out / "histograms.csv")
    assert h3 == ["metric", "bin_lo", "bin_hi", "count"]
    assert len(hrows) > 0


def test_extract_reports_quoted_ids(tmp_path):
    # ids holding a comma or a quote keep every reports.csv row at the
    # header's 9 cells, and read back as the input's ids
    quoted = {"dev,1": '"dev,1"', 'de"v': '"de""v"'}
    lines = pathlib.Path(BATCH).read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")[0]
    rows = [ln[len(first):] for ln in lines[1:] if ln.split(",")[0] == first]
    text = "\n".join([lines[0]] + [q + r for q in quoted.values() for r in rows])
    (tmp_path / "iv.csv").write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["extract", str(tmp_path / "iv.csv"), "--out", str(out)]) == 0
    header, reports = _read_csv(out / "reports.csv")
    assert len(header) == 9 and [len(r) for r in reports] == [9, 9]
    assert [r[0] for r in reports] == list(quoted)


def test_write_rows_bytes(tmp_path):
    # floats (numpy's too) as their shortest round-trip text, integers as
    # digits, a text cell quoted only if it holds a comma or a quote
    run = cli.Run(argparse.Namespace(cmd="extract", out=str(tmp_path)), ["extract"])
    run.write_rows("t.csv", ["x", "y", "z", "u", "v", "w", "q"], [
        (-0.0, math.nan, math.inf, 1e16, 1e-05, 5e-324, 0.1),
        (np.float64(2.5e-07), np.int64(3), 7, "dev,1", 'de"v', "", "ok"),
    ])
    assert (tmp_path / "t.csv").read_bytes() == (
        b"x,y,z,u,v,w,q\n"
        b"-0.0,nan,inf,1e+16,1e-05,5e-324,0.1\n"
        b'2.5e-07,3,7,"dev,1","de""v",,ok\n')


def test_extract_manifest_hashes(tmp_path):
    out = tmp_path / "o"
    main(["extract", BATCH, "--out", str(out)])
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"].split()[0] == "extract"
    assert BATCH in man["command"]
    assert BATCH in man["inputs"]
    for name, digest in man["outputs"].items():
        assert _sha(out / name) == digest
    assert "reports.csv" in man["outputs"]
    assert "solver" not in man   # extract solves no circuit


def test_extract_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["extract", BATCH, "--out", str(a)])
    main(["extract", BATCH, "--out", str(b)])
    for name in ("reports.csv", "summary.csv", "histograms.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_extract_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("device_id,kind\nd1,transfer\n")
    out = tmp_path / "o"
    assert main(["extract", str(bad), "--out", str(out)]) == 2
    assert "missing column" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_extract_missing_file(tmp_path, capsys):
    assert main(["extract", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 2


def test_sweep_schema_error_exits_2(tmp_path, capsys):
    # a seven-point sweep is bad input, named by its first line
    short = tmp_path / "short.csv"
    short.write_text("device_id,kind,W_um,L_um,LOV_um,cox_nF_cm2,fixed_bias_V,v_V,id_A\n"
                     + "".join(f"d,transfer,380,35,5,35,-30,{-0.5 * k},-1e-9\n"
                               for k in range(7)))
    for cmd in ("extract", "fit"):
        assert main([cmd, str(short), "--out", str(tmp_path / cmd)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["line 2: transfer sweep of 'd': sweep needs >= 8 points, got 7"]


@pytest.mark.parametrize("row,msg", [
    ("d,transfer,0,35,5,35,-30,0,-1e-9", "line 2: column W_um: must be positive, got 0.0"),
    ("d,transfer,380,35,5,35,-30,0,-1" + "0" * 140000,
     "line 2: field larger than field limit (131072)"),
], ids=["geometry", "long-cell"])
def test_csv_cell_errors_exit_2(tmp_path, capsys, row, msg):
    # a bad geometry or an overlong cell is bad input at its line, not a traceback
    bad = tmp_path / "bad.csv"
    bad.write_text("device_id,kind,W_um,L_um,LOV_um,cox_nF_cm2,fixed_bias_V,v_V,id_A\n"
                   + row + "\n")
    assert main(["extract", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [msg]


@pytest.mark.parametrize("cmd", ["extract", "sim"])
def test_unreadable_input_exits_2(tmp_path, capsys, cmd):
    binary = tmp_path / "binary.in"
    binary.write_bytes(b"\xff\xfe not text\n")
    for path, needle in ((tmp_path, "Is a directory"),
                         (binary, f"input {binary} is not UTF-8 text")):
        assert main([cmd, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and needle in err[0]


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")), "--out", str(taken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "output directory" in err[0]
    assert taken.read_text() == "keep\n"


# -- fit ---------------------------------------------------------------------


def test_fit_needs_both_sweep_kinds(tmp_path, capsys):
    assert main(["fit", BATCH, "--out", str(tmp_path / "o")]) == 2
    assert "transfer and output" in capsys.readouterr().err


def test_fit_reference_device(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["fit", REFERENCE, "--out", str(out), "-v"]) == 0
    assert "iterations, at bound: gamma" in capsys.readouterr().err
    c = netlist.parse((out / "cards.cir").read_text())
    assert len(c.models) == 1
    card = c.models[0][1]
    assert 2.15e-5 < card.mu0 < 2.55e-5
    assert -1.0 < card.vth < -0.6
    assert "solver" not in json.loads((out / "manifest.json").read_text())


def test_fit_card_name_clash(tmp_path, capsys):
    # "ref-p" and "ref.p" both sanitize to the card name fit_ref_p
    lines = pathlib.Path(REFERENCE).read_text().splitlines()
    clash = tmp_path / "clash.csv"
    clash.write_text("\n".join(lines + [ln.replace("ref-p", "ref.p", 1)
                                        for ln in lines[1:]]) + "\n")
    out = tmp_path / "o"
    assert main(["fit", str(clash), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'ref-p'" in err and "'ref.p'" in err and "fit_ref_p" in err
    assert not (out / "cards.cir").exists()


def test_fit_held_threshold_spaced_negative(tmp_path):
    # argparse read "-8e-1" after a space as an option ("expected one
    # argument", exit 1); the spaced and the joined forms fit the same card
    cards = []
    for k, args in enumerate((["--vth", "-8e-1"], ["--vth=-8e-1"])):
        out = tmp_path / f"o{k}"
        assert main(["fit", REFERENCE, *args, "--out", str(out)]) == 0
        cards.append((out / "cards.cir").read_bytes())
    assert cards[0] == cards[1]
    assert "vth=-0.8 " in cards[0].decode()


@pytest.mark.parametrize("bias", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("device", [[], ["--device", "ref-p"]])
def test_fit_non_finite_fixed_bias(tmp_path, capsys, bias, device):
    # inf was a traceback from the model (exit 1), and NaN made each row a
    # sweep of one point; both are bad input at the sweep's first line
    text = pathlib.Path(REFERENCE).read_text()
    assert text.splitlines()[122].startswith("ref-p,output,380.0,35.0,5.0,35.0,-10.0,")
    path = tmp_path / "bias.csv"
    path.write_text(text.replace("35.0,-10.0,", f"35.0,{bias},"))
    out = tmp_path / "o"
    assert main(["fit", str(path), *device, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"line 123: output sweep of 'ref-p': fixed bias must be finite, got {float(bias)}\n")
    assert not (out / "cards.cir").exists()


def test_fit_missing_device(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["fit", REFERENCE, BATCH, "--device", "nosuch", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"no sweeps of device 'nosuch' in {REFERENCE}, {BATCH}\n"
    assert not (out / "cards.cir").exists()


def test_fit_device_card_matches_whole_file_fit(tmp_path):
    # fitting one device of a 13-device file writes its card byte for byte
    # as fitting the whole file does
    path = tmp_path / "batch.csv"
    _batch_like_benchmark(path)
    assert main(["fit", str(path), "--out", str(tmp_path / "all")]) == 0
    cards = (tmp_path / "all" / "cards.cir").read_bytes().splitlines(keepends=True)
    for dev in ("dev3", "dev11"):
        out = tmp_path / dev
        assert main(["fit", str(path), "--device", dev, "--out", str(out)]) == 0
        card = [ln for ln in (out / "cards.cir").read_bytes().splitlines(keepends=True)
                if ln.startswith(b".model ")]
        assert card == [ln for ln in cards if ln.startswith(f".model fit_{dev} ".encode())]


@pytest.mark.parametrize("vth", ["1e308", "-1e308", "1e100", "-inf", "-infinity", "-nan"])
@pytest.mark.parametrize("spaced", [False, True])
def test_fit_held_threshold_outside_bounds(tmp_path, capsys, vth, spaced):
    # was a traceback (exit 1), "mu0 must be positive, got nan" and a card
    # with vth=1e+100; spaced, "-1e308" and "-inf" were read as options (exit 1)
    out = tmp_path / "o"
    args = ["--vth", vth] if spaced else [f"--vth={vth}"]
    assert main(["fit", REFERENCE, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"held vth must be within [-100, 100] V, got {float(vth)!r}\n")
    assert not (out / "cards.cir").exists()


# -- sim ---------------------------------------------------------------------


def test_sim_nand_op(tmp_path):
    out = tmp_path / "o"
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "op_0.csv")
    vout = float(rows[0][header.index("v(out)")])
    assert vout > 0.7 * 5.0  # both inputs low -> output high


def test_sim_invalid_netlist(tmp_path, capsys):
    bad = tmp_path / "bad.cir"
    bad.write_text("broken\nr1 a 0 zz9\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(bad), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_sim_validation_error_names_card_line(tmp_path, capsys):
    bad = tmp_path / "bad.cir"
    bad.write_text("negative resistor\nv1 a 0 dc 1\nr1 a 0 -1k\n.op\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(bad), "--out", str(out)]) == 2
    assert "line 3: r1: value must be > 0" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_sim_rejects_a_card_the_model_rejects(tmp_path, capsys):
    bad = tmp_path / "bad.cir"
    bad.write_text("bad mobility\n"
                   ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u\n"
                   "vdd d 0 dc -20\nm1 d d 0 pm mu0=-1\n.op\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 4: m1: mu0 must be positive, got -1.0"]
    assert not (out / "manifest.json").exists()


def test_sim_no_directives(tmp_path, capsys):
    quiet = tmp_path / "q.cir"
    quiet.write_text("no work to do\nv1 a 0 dc 1\nr1 a 0 1k\n.end\n")
    assert main(["sim", str(quiet), "--out", str(tmp_path / "o")]) == 2
    assert "no analysis" in capsys.readouterr().err


def test_sim_mc_samples_deterministic(tmp_path):
    net = tmp_path / "mc.cir"
    net.write_text(
        "mismatch samples\n"
        ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u\n"
        "vdd d 0 dc -20\nm1 d d 0 pm\n"
        ".mc 6 99 vth=normal -0.8 0.05\n.end\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sim", str(net), "--out", str(a)]) == 0
    assert main(["sim", str(net), "--out", str(b)]) == 0
    assert (a / "mc_0_samples.csv").read_bytes() == (b / "mc_0_samples.csv").read_bytes()
    header, rows = _read_csv(a / "mc_0_samples.csv")
    assert header == ["replica", "device", "param", "value"]
    assert len(rows) == 6


def test_sim_mc_samples_match_monte_carlo(tmp_path):
    text = ("mismatch samples\n"
            ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u\n"
            "vdd d 0 dc -20\nm1 d d 0 pm\nm2 d d 0 pm\n"
            ".mc 4 31 vth=normal -0.8 0.05 mu0=lognormal 2.35e-5 0.1\n.end\n")
    net = tmp_path / "mc.cir"
    net.write_text(text)
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "mc_0_samples.csv")
    c = netlist.parse(text)
    res = analyses.monte_carlo(c, c.analyses[0], lambda cv: None)
    assert [(int(r[0]), r[1], r[2], float(r[3])) for r in rows] == [
        (rep, dev, p, float(res.samples[rep, i, j]))
        for rep in range(4) for i, dev in enumerate(res.devices)
        for j, p in enumerate(res.params)]


def test_sim_mc_draw_outside_card_rules(tmp_path, capsys):
    # the draw is bad input at the .mc line, with monte_carlo's text, and
    # no samples are written
    net = tmp_path / "mc.cir"
    net.write_text(MC_OUTSIDE_RULES)
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    c = netlist.parse(MC_OUTSIDE_RULES)
    with pytest.raises(ParameterError) as e:
        analyses.monte_carlo(c, c.analyses[0], lambda cv: None)
    assert capsys.readouterr().err == f"{e.value}\n"
    assert str(e.value).startswith("line 5: .mc replica 15: m1: ")
    assert not (out / "mc_0_samples.csv").exists()


def test_sim_mc_count_over_bound(tmp_path, capsys):
    # the draws of 1e12 replicas were numpy's allocation error, a traceback
    # (exit 1); the count is bad input at the .mc line
    net = tmp_path / "mc.cir"
    net.write_text(MC_OVERFLOW.replace("3 1 {}=lognormal 1 1000",
                                       "1000000000000 1 vth=normal -1 0.1"))
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 5: .mc: count must be an integer in [1, 100000], got ")
    assert not out.exists() or not any(out.iterdir())


def test_sim_mc_draw_that_overflows(tmp_path, capsys):
    net = tmp_path / "mc.cir"
    net.write_text(MC_OVERFLOW.format("vth"))
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "line 5: .mc replica 0: m1: vth draw must be finite, got inf from lognormal 1 1000\n")
    assert not (out / "mc_0_samples.csv").exists()


@pytest.mark.parametrize("deck, context", [
    ("c1 a 0 1p\n.op", "dc operating point"),
    ("i1 0 a 1u\nc1 a 0 1p\n.tran 1u 10u", "transient t=0 operating point"),
])
def test_sim_deck_without_conductor(tmp_path, capsys, deck, context):
    # node a has no DC path, so every rung fails; with no resistor, V source
    # or transistor the gmin rung shunted an integer matrix (exit 1), and
    # the singular solve was reported as "largest residual 0 at node a";
    # netlist.validate's warning names the node before the run
    net = tmp_path / "float.cir"
    net.write_text(f"floating node\n{deck}\n.end\n")
    assert main(["sim", str(net), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "warning: line 0: node 'a' has no DC path to ground\n"
        f"{context}: no convergence (failed at source step 0.1); "
        "node a has no DC path\n")


@pytest.mark.parametrize("wave", ["sin(0 1 1e308)", "sin(0 1 1k 0 -1e308)"])
def test_sim_sine_past_the_float_range(tmp_path, capsys, wave):
    # the phase 2 pi f t, or the envelope exp(-theta t), leaves the float
    # range at the first step: it was math's ValueError or OverflowError, a
    # traceback (exit 1)
    net = tmp_path / "sin.cir"
    net.write_text(f"sine\nv0 c 0 dc 1\nr0 c 0 1k\nv1 a 0 {wave}\nr1 a b 1k\nc1 b 0 1n\n"
                   ".tran 1u 10u\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "source v1: value out of the float range at t=5e-09\n"
    assert not (out / "tran_0.csv").exists()


def test_sim_prints_validation_warnings(tmp_path, capsys):
    # they were computed and dropped; they stop no run
    net = tmp_path / "unused.cir"
    net.write_text("unused model\n.model m otftp mu0=2e-5 vth=-1 ss=0.2 cox=3.5e-4 w=100u l=10u\n"
                   "v1 a 0 dc 1\nr1 a 0 1k\n.op\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: line 0: model 'm' is never instantiated\n"
    assert (out / "op_0.csv").is_file()


_NODE = st.sampled_from(["0", "a", "b", "c", "out"])
# suffixes, signed zeros, negatives, the ends of the float range, overflow,
# NaN, infinity and a .param name
_NUMBERS = ["1", "2.5", "10k", "4.7u", "100p", "3meg", "0", "-0", "-5", "-1e-3", "1e-300",
            "1e308", "1e400", "1e306meg", "nan", "inf", "big"]
_NUMBER = st.sampled_from(_NUMBERS)
_FINITE = st.sampled_from([x for x in _NUMBERS if x not in ("1e400", "1e306meg", "nan", "inf")])
_OVERRIDE = st.builds("{}={}".format,
                      st.sampled_from(["mu0", "vth", "ss", "lambda", "rc", "w", "l"]), _NUMBER)


@st.composite
def _card(draw, k):
    kind = draw(st.sampled_from("RCVIM"))
    nodes = " ".join(draw(st.lists(_NODE, min_size=3 if kind == "M" else 2,
                                   max_size=3 if kind == "M" else 2)))
    if kind == "M":
        overrides = draw(st.lists(_OVERRIDE, max_size=2))
        return " ".join([f"m{k} {nodes}", draw(st.sampled_from(["pm", "nm"])), *overrides])
    if kind in "RC":
        return f"{kind.lower()}{k} {nodes} {draw(_NUMBER)}"
    shape = draw(st.sampled_from([("dc {}", 1, 1), ("pulse({})", 2, 7), ("sin({})", 3, 5)]))
    # half the sources finite, so that transients of pulses and sines run
    numbers = draw(st.sampled_from([_NUMBER, _FINITE]))
    args = draw(st.lists(numbers, min_size=shape[1], max_size=shape[2]))
    return f"{kind.lower()}{k} {nodes} " + shape[0].format(" ".join(args))


_CARDS = st.integers(1, 6).flatmap(lambda n: st.tuples(*[_card(k) for k in range(n)]))
_DIRECTIVE = st.one_of(st.just(".op"), st.just(".tran 1u 10u"), st.builds(
    ".mc {} 7 {}=normal {} {}".format, st.sampled_from(["1", "3"]),
    st.sampled_from(["vth", "mu0", "ss"]), _NUMBER, _NUMBER))
_SIN_RC = ("r1 a b 1k", "c1 b 0 1n")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cards=_CARDS, directive=_DIRECTIVE)
@example(cards=("c1 a 0 1p",), directive=".op")   # no conductor: a traceback (exit 1)
# a sine whose phase, or whose envelope, leaves the float range: a traceback
@example(cards=("v1 a 0 sin(0 1 1e308)", *_SIN_RC), directive=".tran 1u 10u")
@example(cards=("v1 a 0 sin(0 1 1k 0 -1e308)", *_SIN_RC), directive=".tran 1u 10u")
@example(cards=("r0 0 0 1",), directive=".op")   # no node: an empty Newton update
def test_generated_deck_never_exits_1(cards, directive):
    # a deck is run (0), bad input (2) or a numerics failure (3), never a
    # crash; stdout and stderr go to pytest's capture
    deck = "\n".join([
        "generated deck", ".param big=20",
        ".model pm otftp mu0=2.35e-5 vth=-0.8 ss=0.18 cox=3.5e-4 w=380u l=35u",
        ".model nm otftn mu0=1.84e-5 vth=0.7 ss=0.25 rc=80k cox=3.5e-4 w=200u l=20u",
        *cards, directive, ".end\n"])
    with tempfile.TemporaryDirectory() as tmp:
        net = pathlib.Path(tmp) / "deck.cir"
        net.write_text(deck)
        assert main(["sim", str(net), "--out", str(pathlib.Path(tmp) / "o")]) in (0, 2, 3), deck


@pytest.mark.parametrize("card", [
    "r2 a 0 1e400",          # was an open circuit
    ".tran 1u 1e400",        # was a run of no step
    ".dc v1 0 1e400 1",      # was an OverflowError traceback
    "v2 b 0 dc 1e400",
])
def test_sim_non_finite_number(tmp_path, capsys, card):
    net = tmp_path / "big.cir"
    net.write_text(f"overflow\nv1 a 0 dc 1\nr1 a b 1k\nr3 b 0 1k\n{card}\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 5: " in err and "is not a finite number" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("card, needle", [
    (".dc v1 -1e308 1e308 1e308", ".dc: sweeps more than"),   # was an OverflowError
    (".dc v1 0 1 1e-300", ".dc: sweeps more than"),           # was numpy's size error
    (".op 1", ".op takes no arguments"),                      # was ignored
    # no transistor to draw for: was 1e12 runs of the deck
    (".mc 1000000000000 1 vth=normal -1 0.1", ".mc: count must be an integer in [1, 100000]"),
])
def test_sim_record_rule(tmp_path, capsys, card, needle):
    net = tmp_path / "rule.cir"
    net.write_text(f"record rule\nv1 a 0 dc 1\nr1 a b 1k\nr3 b 0 1k\n{card}\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line 5: {needle}" in err
    assert not out.exists() or not any(out.iterdir())


def test_sim_tran_of_too_many_steps(tmp_path, capsys):
    # its step caps a run of 10^12 steps: bad input at its line, at once,
    # not a run that never finishes
    net = tmp_path / "rc.cir"
    net.write_text("rc\nv1 a 0 dc 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1e-12 1\n.end\n")
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert main(["sim", str(net), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "line 5: .tran: spans more than 1000000 steps" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sweep", [
    ".dc vbogus 0 1 0.5",             # unknown primary source
    ".dc vin 0 1 0.5 vbogus 0 2 1",   # unknown secondary source
    ".dc r1 0 1 0.5",                 # names an element that is not a source
])
def test_sim_dc_unknown_source(tmp_path, capsys, sweep):
    net = tmp_path / "dc.cir"
    net.write_text(f"divider\nvin a 0 dc 1\n{sweep}\nr1 a b 1k\nr2 b 0 1k\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "names no V or I source" in err
    assert not (out / "manifest.json").exists()


def test_sim_writes_the_transient_as_csv_only(tmp_path, capsys):
    text = "rc\nv1 in 0 dc 5\nr1 in out 1k\nc1 out 0 1n\n.tran 1u 20u\n.end\n"
    net = tmp_path / "rc.cir"
    net.write_text(text)
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "metrics_0.csv",
                                                    "tran_0.csv"]
    from ofetsim.engine import SolverConfig, read_waveform_csv, transient
    c = netlist.parse(text)
    want = transient(c, c.analyses[0], SolverConfig())
    got = read_waveform_csv(out / "tran_0.csv")
    assert (got.axis_name, got.names) == (want.axis_name, want.names)
    for g, w in zip([got.axis, *got.columns.values()], [want.axis, *want.columns.values()]):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    # the one waveform file: there is no option to choose another
    for fmt in ("csv", "binary"):
        gone = tmp_path / fmt
        assert main(["sim", str(net), "--out", str(gone), "--format", fmt]) == 1
        assert "--format" in capsys.readouterr().err
        assert not gone.exists()


# -- reproduce ---------------------------------------------------------------


def test_reproduce_unknown_id(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "o")]) == 2
    assert "fig4f" in capsys.readouterr().err


def test_reproduce_strained_inverter(tmp_path):
    out = tmp_path / "o"
    assert main(["reproduce", "fig4f", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "fig4f.csv")
    assert header == ["vin_V", "vout_eps0_V", "vout_eps50_V", "vout_eps100_V"]
    assert len(rows) > 100
    man = json.loads((out / "manifest.json").read_text())
    assert "fig4f.csv" in man["outputs"]


# -- solver overrides and usage ----------------------------------------------


def test_unknown_solver_key(tmp_path, capsys):
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(tmp_path / "o"), "--solver.bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_solver_config_has_six_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "reltol", "max_newton_iters", "method", "lte_tol", "min_step", "fixed_step"]


@pytest.mark.parametrize("opts, word", [
    *[([f"--solver.{key}=1e-6"], f"--solver.{key}")
      for key in ("abstol", "vntol", "gmin", "damping", "max_step")],
    (["--seed", "1"], "--seed"), (["--seed=1"], "--seed")])
def test_removed_option_is_a_usage_error(tmp_path, capsys, opts, word):
    # the engine constants and the seed are no options: a usage error, and
    # no output directory
    out = tmp_path / "o"
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(out), *opts]) == 1
    assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("opt", ["reltol=abc", "max_newton_iters=1.5",
                                 "fixed_step=maybe", "fixed_step="])
def test_malformed_solver_value(tmp_path, capsys, opt):
    out = tmp_path / "o"
    assert main(["sim", "x.cir", "--out", str(out), f"--solver.{opt}"]) == 1
    key, val = opt.split("=")
    err = capsys.readouterr().err.splitlines()
    # argparse's usage, then one error line naming the option and the value
    assert err[0].startswith("usage: ofetsim sim ")
    assert err[-1].startswith(f"ofetsim sim: error: argument --solver.{key}: ")
    assert repr(val) in err[-1]
    assert not out.exists()


@pytest.mark.parametrize("opt", ["reltol=nan", "lte_tol=inf", "lte_tol=0",
                                 "min_step=-1", "min_step=inf", "max_newton_iters=0"])
def test_invalid_solver_setting(tmp_path, capsys, opt):
    # well-formed values that no solve can use are bad input, not a numerics
    # failure, a crash or a run
    out = tmp_path / "o"
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(out), f"--solver.{opt}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad solver configuration: ")
    assert opt.split("=")[0] in err[0]
    assert not out.exists()


@pytest.mark.parametrize("word, value", [
    ("1", True), ("TRUE", True), ("yes", True), ("On", True),
    ("0", False), ("false", False), ("NO", False), ("off", False)])
def test_solver_bool_words(tmp_path, word, value):
    out = tmp_path / "o"
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(out), f"--solver.fixed_step={word}"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["solver"]["fixed_step"] is value


def test_solver_override_recorded(tmp_path):
    out = tmp_path / "o"
    assert main(["sim", str(fixtures.path("nand_pseudo_e.cir")),
                 "--out", str(out), "--solver.reltol=1e-6"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["solver"]["reltol"] == 1e-6
    assert man["solver"]["method"] == "trap"  # defaults are recorded too


@pytest.mark.parametrize("argv", [
    ["extract", BATCH, "--solver.reltol=1e-6"],
    ["fit", REFERENCE, "--solver.method=be"],
    ["fit", REFERENCE, "--device", "ref-p", "--solver.fixed_step", "1"],
    ["--solver.reltol=1e-6", "sim", str(fixtures.path("nand_pseudo_e.cir"))]])
def test_solver_option_off_sim_and_reproduce_is_usage_error(tmp_path, capsys, argv):
    # extract and fit solve no circuit, and the options follow the subcommand
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert "unrecognized arguments: --solver." in capsys.readouterr().err
    assert not out.exists()


def test_solver_options_follow_solver_config(capsys):
    want = {f"--solver.{f.name}" for f in dataclasses.fields(SolverConfig)}
    for cmd in ("extract", "fit", "sim", "reproduce"):
        assert main([cmd, "--help"]) == 0
        listed = set(re.findall(r"--solver\.\w+", capsys.readouterr().out))
        assert listed == (want if cmd in ("sim", "reproduce") else set()), cmd


def test_solver_option_forms(tmp_path):
    # a unique prefix and a spaced value, as argparse reads any option
    out = tmp_path / "o"
    assert main(["reproduce", "fig4f", "--out", str(out), "--solver.rel=1e-6",
                 "--solver.method", "be"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["solver"] == dataclasses.asdict(SolverConfig(reltol=1e-6, method="be"))


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_bad_subcommand():
    assert main(["frobnicate"]) == 1


def test_out_dir_is_only_write_target(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "somewhere" / "deep"
    assert main(["extract", BATCH, "--out", str(out)]) == 0
    produced = {p.name for p in tmp_path.rglob("*") if p.is_file()}
    assert produced == {"reports.csv", "summary.csv", "histograms.csv",
                        "manifest.json"}


def test_module_entry_point():
    # the child must import the same package, installed or not
    src = str(pathlib.Path(ofetsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-m", "ofetsim", "--help"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "extract" in r.stdout and "reproduce" in r.stdout


@pytest.mark.parametrize("rid", ["supp10", "fig4f"])
def test_reproduce_reads_package_text_as_utf8(tmp_path, rid):
    # every text read of the package names its encoding: no EncodingWarning
    src = str(pathlib.Path(ofetsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W",
                        "error::EncodingWarning", "-m", "ofetsim", "reproduce", rid,
                        "--out", str(tmp_path / rid)], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
