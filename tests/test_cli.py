"""End-to-end command tests: exit codes, artifacts, manifests, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ofetsim
from ofetsim import analyses, fixtures, netlist
from ofetsim.cli import main


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
    res = analyses.monte_carlo(c, analyses.McSpec.from_directive(c.analyses[0]),
                               lambda cv: None)
    assert [(int(r[0]), r[1], r[2], float(r[3])) for r in rows] == [
        (rep, dev, p, float(res.samples[rep, i, j]))
        for rep in range(4) for i, dev in enumerate(res.devices)
        for j, p in enumerate(res.params)]


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


def test_sim_waveform_binary_format(tmp_path):
    net = tmp_path / "rc.cir"
    net.write_text("rc\nv1 in 0 dc 5\nr1 in out 1k\nc1 out 0 1n\n"
                   ".tran 1u 20u\n.end\n")
    out = tmp_path / "o"
    assert main(["sim", str(net), "--out", str(out), "--format", "binary"]) == 0
    from ofetsim.engine import read_waveform_binary
    w = read_waveform_binary(out / "tran_0.wfb")
    assert "v(out)" in w.columns
    assert not (out / "tran_0.csv").exists()


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


@pytest.mark.parametrize("opt", ["reltol=abc", "max_newton_iters=1.5",
                                 "fixed_step=maybe", "fixed_step="])
def test_malformed_solver_value(tmp_path, capsys, opt):
    out = tmp_path / "o"
    assert main(["sim", "x.cir", "--out", str(out), f"--solver.{opt}"]) == 1
    key, val = opt.split("=")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(key) in err[0] and repr(val) in err[0]
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
