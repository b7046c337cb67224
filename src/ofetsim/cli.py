"""Command-line front end.

Subcommands map onto the library layers: ``extract`` and ``fit`` wrap the
measurement-CSV pipeline, ``sim`` runs the analysis directives of a netlist,
and ``reproduce`` regenerates the canned figure-analogue datasets from the
checked-in fixtures.  Every run writes a ``manifest.json`` recording input
hashes and the tool version, and never writes outside the chosen output
directory.  Only ``sim`` and ``reproduce`` solve circuits: they alone take
the ``--solver.<field>`` options, one per ``SolverConfig`` field, and
record the solver settings in the manifest.

Exit codes: 0 success, 1 usage, 2 bad input or schema, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields as dc_fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, analyses, engine, extract, fixtures, netlist
from .engine import SolverConfig
from .model import ContactSolveError, ParameterError

E_OK, E_USAGE, E_INPUT, E_NUMERIC = 0, 1, 2, 3

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _bool_word(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"invalid bool value: {text!r} (one of {', '.join(_BOOL_WORDS)})") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Output-directory context: collects artifacts and writes the manifest."""

    def __init__(self, args, argv: list[str]):
        # built before the directory, so bad settings write nothing; only
        # sim and reproduce solve circuits and take solver options
        self.cfg = (SolverConfig(**{k.removeprefix("solver."): v
                                    for k, v in vars(args).items()
                                    if k.startswith("solver.")})
                    if args.cmd in ("sim", "reproduce") else None)
        self.dir = Path(args.out or os.environ.get("OFETSIM_OUT") or "ofetsim-out")
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.command = " ".join(argv)

    def note_input(self, path) -> None:
        p = Path(path)
        self.inputs[str(p)] = _sha256(p)

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.dir / name

    def write_rows(self, name: str, header: list[str], rows) -> None:
        """Write a header and rows with Python's csv module (QUOTE_MINIMAL)."""
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(header)
            out.writerows(rows)

    def write_waveform(self, stem: str, w: engine.Waveform) -> None:
        engine.write_waveform_csv(w, self.path(stem + ".csv"))

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": {n: _sha256(self.dir / n) for n in sorted(self.outputs)},
            "version": __version__,
        }
        if self.cfg is not None:
            manifest["solver"] = asdict(self.cfg)
        with open(self.dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args, run: Run) -> int:
    sweeps = []
    for p in args.csv:
        run.note_input(p)
        sweeps.extend(extract.read_iv_csv(p))
    transfers: dict[str, extract.IvSweep] = {}
    for s in sweeps:
        if s.kind == "transfer" and s.device_id not in transfers:
            transfers[s.device_id] = s

    reports, failures = [], []
    for dev, s in transfers.items():
        try:
            reports.append(extract.extraction_report(s))
        except extract.ExtractionError as e:
            failures.append((dev, str(e)))
    seen = {s.device_id for s in sweeps}
    for dev in sorted(seen - set(transfers)):
        failures.append((dev, "no transfer sweep"))

    run.write_rows(
        "reports.csv",
        ["device_id", "mu_sat_m2_Vs", "vth_V", "ss_V_dec", "on_off",
         "gm_max_per_width_S_m", "window_lo_V", "window_hi_V", "r2"],
        [(r.device_id, r.mu_sat, r.vth, r.ss, r.on_off, r.gm_max_per_width,
          r.fit_window[0], r.fit_window[1], r.diagnostics.get("r2", ""))
         for r in reports])

    if reports:
        summary = extract.batch_statistics(reports)
        run.write_rows("summary.csv", ["metric", "mean", "std"],
                       [(m, st.mean, st.std)
                        for m, st in summary.metrics.items()])
        run.write_rows("histograms.csv", ["metric", "bin_lo", "bin_hi", "count"],
                       [(m, st.bin_edges[k], st.bin_edges[k + 1], st.counts[k])
                        for m, st in summary.metrics.items()
                        for k in range(len(st.counts))])

    run.finish()
    if failures:
        for dev, msg in failures:
            print(f"extract failed for {dev}: {msg}", file=sys.stderr)
        return E_NUMERIC
    return E_OK


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args, run: Run) -> int:
    sweeps = []
    for p in args.csv:
        run.note_input(p)
        sweeps.extend(extract.read_iv_csv(p, args.device))
    devices = sorted({s.device_id for s in sweeps})
    if not devices:
        print("no sweeps to fit" if args.device is None else
              f"no sweeps of device {args.device!r} in {', '.join(args.csv)}",
              file=sys.stderr)
        return E_INPUT

    names = {dev: "fit_" + "".join(ch if ch.isalnum() else "_" for ch in dev)
             for dev in devices}
    seen: dict[str, str] = {}  # card name as the case-insensitive parser reads it
    for dev, name in names.items():
        other = seen.setdefault(name.lower(), dev)
        if other != dev:
            print(f"devices {other!r} and {dev!r} both map to card name {name!r}",
                  file=sys.stderr)
            return E_INPUT

    cards = {}
    for dev, name in names.items():
        group = [s for s in sweeps if s.device_id == dev]
        kinds = {s.kind for s in group}
        if not {"transfer", "output"} <= kinds:
            print(f"{dev}: need transfer and output sweeps, have {sorted(kinds)}",
                  file=sys.stderr)
            return E_INPUT
        result = extract.fit_model(group, polarity=args.polarity, vth=args.vth)
        cards[name] = result.params
        if args.verbose:
            print(f"{dev}: rms {result.rms_frac:.2%} in {result.iterations} "
                  f"iterations, at bound: {', '.join(result.at_bound) or 'none'}",
                  file=sys.stderr)
    deck = netlist.Circuit(title="fitted model cards", nodes=("0",), elements=(),
                           models=tuple(sorted(cards.items())), analyses=(), params=())
    run.path("cards.cir").write_text(netlist.serialize(deck), encoding="utf-8")
    run.finish()
    return E_OK


# ---------------------------------------------------------------------------
# sim


def cmd_sim(args, run: Run) -> int:
    src = Path(args.netlist)
    run.note_input(src)
    text = src.read_text(encoding="utf-8")
    c = netlist.parse(text)  # NetlistError propagates before any artifact
    diagnostics = netlist.validate(c)
    for d in diagnostics:   # warnings too, though they stop no run
        print(d, file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return E_INPUT
    if not c.analyses:
        print("netlist has no analysis directives", file=sys.stderr)
        return E_INPUT
    # .mc draws are checked against the card rules before any analysis runs
    draws = {k: analyses.mc_draws(c, a) for k, a in enumerate(c.analyses)
             if isinstance(a, netlist.Mc)}

    for k, a in enumerate(c.analyses):
        if isinstance(a, netlist.DcOp):
            op = engine.dc_operating_point(c, run.cfg)
            names = sorted(op)
            run.write_rows(f"op_{k}.csv", [f"v({n})" for n in names],
                           [tuple(op[n] for n in names)])
        elif isinstance(a, netlist.DcSweep):
            wf = engine.dc_sweep(c, a, run.cfg)
            if isinstance(wf, list):
                for j, w in enumerate(wf):
                    run.write_waveform(f"dc_{k}_{j}", w)
            else:
                run.write_waveform(f"dc_{k}", wf)
        elif isinstance(a, netlist.Tran):
            wf = engine.transient(c, a, run.cfg)
            run.write_waveform(f"tran_{k}", wf)
            if "v(out)" in wf.columns:
                r = analyses.oscillation_frequency(wf, "out")
                run.write_rows(f"metrics_{k}.csv",
                               ["frequency_Hz", "amplitude_V", "settled"],
                               [(r.frequency if r.frequency else 0.0,
                                 r.amplitude, int(r.settled))])
        elif isinstance(a, netlist.Mc):
            devices, params, samples = draws[k]
            rows = [(rep, dev, pname, float(samples[rep, i, j]))
                    for rep in range(a.count)
                    for i, dev in enumerate(devices)
                    for j, pname in enumerate(params)]
            run.write_rows(f"mc_{k}_samples.csv",
                           ["replica", "device", "param", "value"], rows)
    run.finish()
    return E_OK


# ---------------------------------------------------------------------------
# reproduce


def _vtc(c, cfg):
    return engine.dc_sweep(c, c.analyses[0], cfg)


def _fig4f(run: Run) -> None:
    c = _load(run, "inverter_pseudo_e.cir")
    curves = analyses.strain_study(
        c, [0.0, 0.5, 1.0], "parallel", lambda cv: _vtc(cv, run.cfg))
    base = curves[0][1]
    header = ["vin_V"] + [f"vout_eps{int(e * 100)}_V" for e, _ in curves]
    rows = zip(base.axis, *[w.columns["v(out)"] for _, w in curves])
    run.write_rows("fig4f.csv", header, rows)


def _fig4h(run: Run) -> None:
    vdds = [15.0, 20.0, 25.0, 30.0]
    ratio20 = _load(run, "ro_pseudo_e.cir")
    ratio10 = _load(run, "ro_pseudo_e.cir", params={"w2": 200e-6, "rc2": 57e3})
    f20 = dict(analyses.vco_curve(ratio20, vdds, run.cfg))
    f10 = dict(analyses.vco_curve(ratio10, vdds, run.cfg))
    run.write_rows("fig4h.csv", ["vdd_V", "f_ratio20_Hz", "f_ratio10_Hz"],
                   [(v, f20[v], f10[v]) for v in vdds])


def _cmos_supplies(c, cfg):
    """(vdd, VTC) of the CMOS inverter at each of its three supplies, vin
    swept from 0 to vdd in 10 mV steps."""
    for vdd in (3.0, 5.0, 7.0):
        cv = c.with_source_level("vdd", vdd).with_analyses(
            [netlist.DcSweep("vin", 0.0, vdd, 0.01)])
        yield vdd, _vtc(cv, cfg)


def _fig5d(run: Run) -> None:
    c = _load(run, "inverter_cmos.cir")
    for vdd, w in _cmos_supplies(c, run.cfg):
        run.write_rows(f"fig5d_vdd{int(vdd)}.csv", ["vin_V", "vout_V"],
                       zip(w.axis, w.columns["v(out)"]))
    curves = analyses.strain_study(
        c, [0.0, 0.25, 0.5], "parallel", lambda cv: _vtc(cv, run.cfg))
    for eps, w in curves:
        run.write_rows(f"fig5d_eps{int(eps * 100)}.csv", ["vin_V", "vout_V"],
                       zip(w.axis, w.columns["v(out)"]))


def _fig5e(run: Run) -> None:
    c = _load(run, "inverter_cmos.cir")
    for vdd, w in _cmos_supplies(c, run.cfg):
        gain = -np.gradient(w.columns["v(out)"], w.axis)
        run.write_rows(f"fig5e_vdd{int(vdd)}.csv", ["vin_V", "gain"],
                       zip(w.axis, gain))


def _fig5g(run: Run) -> None:
    c = _load(run, "ro_cmos.cir")
    curve = analyses.vco_curve(c, [30.0, 40.0, 50.0, 60.0], run.cfg)
    run.write_rows("fig5g.csv", ["vdd_V", "f_Hz"], curve)


def _fig5m(run: Run) -> None:
    c = _load(run, "neuron.cir")
    rates, _ = analyses.neuron_fi_curve(
        c, [9e-9, 20e-9, 50e-9, 100e-9, 500e-9], run.cfg)
    run.write_rows("fig5m.csv", ["iex_A", "rate_Hz"], rates)


def _supp9(run: Run) -> None:
    c = _load(run, "ro_pseudo_e.cir")
    vdds = [3.0 * k for k in range(1, 11)]
    curve = analyses.vco_curve(c, vdds, run.cfg)
    run.write_rows("supp9.csv", ["vdd_V", "f_Hz"], curve)


def _supp10(run: Run) -> None:
    rows = []
    for name in ("nand_pseudo_e.cir", "nor_pseudo_e.cir"):
        table = analyses.logic_truth_table(_load(run, name), cfg=run.cfg)
        gate = name.split("_")[0]
        for bits, out in sorted(table.items()):
            rows.append((gate, bits[0], bits[1], out))
    run.write_rows("supp10.csv", ["gate", "a", "b", "out"], rows)


def _load(run: Run, name: str, params=None):
    p = fixtures.path(name)
    run.note_input(p)
    return netlist.parse(p.read_text(encoding="utf-8"), params=params)


REPRODUCERS = {
    "fig4f": _fig4f, "fig4h": _fig4h, "fig5d": _fig5d, "fig5e": _fig5e,
    "fig5g": _fig5g, "fig5m": _fig5m, "supp9": _supp9, "supp10": _supp10,
}


def cmd_reproduce(args, run: Run) -> int:
    if args.id not in REPRODUCERS:
        valid = ", ".join(sorted(REPRODUCERS))
        print(f"unknown figure id {args.id!r}; valid ids: {valid}",
              file=sys.stderr)
        return E_INPUT
    REPRODUCERS[args.id](run)
    run.finish()
    return E_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every float token as a value: argparse
    takes a token that starts with '-' and is not a plain decimal, such as
    "-8e-1" or "-inf", for an option.  Subparsers are of the same class."""

    # overrides a private argparse method, whose None marks a positional or
    # an option's value; if a Python release changes that, the spaced --vth
    # tests in tests/test_cli.py fail
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: $OFETSIM_OUT "
                                      "or ./ofetsim-out)")
    common.add_argument("-v", "--verbose", action="store_true")

    # one --solver.<field> per SolverConfig field, set only when given
    solver = argparse.ArgumentParser(add_help=False)
    group = solver.add_argument_group("solver settings")
    hints = get_type_hints(SolverConfig)
    for f in dc_fields(SolverConfig):
        t = hints[f.name]
        group.add_argument(f"--solver.{f.name}", type=_bool_word if t is bool else t,
                           default=argparse.SUPPRESS, metavar=t.__name__.upper(),
                           help=f"default: {f.default}")

    ap = _Parser(
        prog="ofetsim",
        description="Transistor characterization and circuit simulation "
                    "toolkit for stretchable organic FETs.",
        epilog="sim and reproduce take solver settings as --solver.<field>=<value>, "
               "e.g. --solver.reltol=1e-5; see ofetsim sim -h.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", parents=[common],
                       help="per-device figure-of-merit reports from IV CSVs")
    p.add_argument("csv", nargs="+")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("fit", parents=[common],
                       help="fit model cards to measured sweeps")
    p.add_argument("csv", nargs="+")
    p.add_argument("--polarity", choices=("p", "n"), default="p")
    p.add_argument("--vth", type=float, default=None,
                   help="hold threshold voltage fixed at this value")
    p.add_argument("--device", default=None,
                   help="fit only this device id; only its rows are read and checked")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("sim", parents=[common, solver],
                       help="run every analysis directive in a netlist")
    p.add_argument("netlist")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("reproduce", parents=[common, solver],
                       help="regenerate a figure-analogue dataset")
    p.add_argument("id")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return E_OK if e.code == 0 else E_USAGE
    try:
        run = Run(args, argv)
    except ValueError as e:   # a setting SolverConfig rejects
        print(f"bad solver configuration: {e}", file=sys.stderr)
        return E_USAGE
    except OSError as e:   # the output directory: an existing file, say
        print(f"cannot create output directory: {e}", file=sys.stderr)
        return E_USAGE
    try:
        return args.fn(args, run)
    except (FileNotFoundError, IsADirectoryError) as e:
        print(str(e), file=sys.stderr)
        return E_INPUT
    except UnicodeDecodeError as e:   # each input is noted before it is read
        print(f"input {next(reversed(run.inputs))} is not UTF-8 text: {e}",
              file=sys.stderr)
        return E_INPUT
    except (extract.SchemaError, netlist.NetlistError, ParameterError) as e:
        print(str(e), file=sys.stderr)
        return E_INPUT
    except (engine.ConvergenceError, ContactSolveError, extract.ExtractionError,
            extract.FitError, analyses.AnalysisError) as e:
        print(str(e), file=sys.stderr)
        return E_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
