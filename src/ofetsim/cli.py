"""Command-line front end.

Subcommands map onto the library layers: ``extract`` and ``fit`` wrap the
measurement-CSV pipeline, ``sim`` runs the analysis directives of a netlist,
and ``reproduce`` regenerates the canned figure-analogue datasets from the
checked-in fixtures.  Every run writes a ``manifest.json`` recording input
hashes, the seed, and the tool version, and never writes outside the chosen
output directory.

Exit codes: 0 success, 1 usage, 2 bad input or schema, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__, analyses, engine, extract, fixtures, netlist
from .engine import SolverConfig
from .model import ParameterError

E_OK, E_USAGE, E_INPUT, E_NUMERIC = 0, 1, 2, 3

_SOLVER_TYPES = {f.name: f.type for f in dc_fields(SolverConfig)}


def _parse_solver_overrides(argv: list[str]) -> tuple[list[str], dict]:
    """Split --solver.<key>=<value> tokens out of argv."""
    rest, overrides = [], {}
    for tok in argv:
        if tok.startswith("--solver."):
            body = tok[len("--solver."):]
            if "=" not in body:
                raise SystemExit_usage(f"expected --solver.<key>=<value>, got {tok}")
            key, val = body.split("=", 1)
            if key not in _SOLVER_TYPES:
                raise SystemExit_usage(f"unknown solver option {key!r}")
            overrides[key] = _coerce(key, val)
        else:
            rest.append(tok)
    return rest, overrides


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, val: str):
    t = str(_SOLVER_TYPES[key])
    try:
        if "bool" in t:
            return _BOOL_WORDS[val.lower()]
        if "int" in t:
            return int(val)
        if "str" in t:
            return val
        return float(val)
    except (KeyError, ValueError):
        raise SystemExit_usage(f"bad value for solver option {key!r}: {val!r}") from None


class SystemExit_usage(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Output-directory context: collects artifacts and writes the manifest."""

    def __init__(self, args, solver: dict, argv: list[str] | None = None):
        root = args.out or os.environ.get("OFETSIM_OUT") or "ofetsim-out"
        self.dir = Path(root)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = args.seed
        self.fmt = getattr(args, "format", "csv")
        self.cfg = SolverConfig(**solver)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.command = " ".join(sys.argv[1:] if argv is None else argv)

    def note_input(self, path) -> None:
        p = Path(path)
        self.inputs[str(p)] = _sha256(p)

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.dir / name

    def write_rows(self, name: str, header: list[str], rows) -> None:
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(x)) if isinstance(x, float)
                                  else str(x) for x in row) + "\n")

    def write_waveform(self, stem: str, w: engine.Waveform) -> None:
        if self.fmt in ("csv", "both"):
            engine.write_waveform_csv(w, self.path(stem + ".csv"))
        if self.fmt in ("binary", "both"):
            engine.write_waveform_binary(w, self.path(stem + ".wfb"))

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": {n: _sha256(self.dir / n) for n in sorted(self.outputs)},
            "seed": self.seed,
            "solver": asdict(self.cfg),
            "version": __version__,
        }
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
        hist_rows = []
        for m, st in summary.metrics.items():
            for k in range(len(st.counts)):
                hist_rows.append((m, st.bin_edges[k], st.bin_edges[k + 1],
                                  st.counts[k]))
        run.write_rows("histograms.csv",
                       ["metric", "bin_lo", "bin_hi", "count"], hist_rows)

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
        sweeps.extend(extract.read_iv_csv(p))
    if args.device:
        sweeps = [s for s in sweeps if s.device_id == args.device]
    devices = sorted({s.device_id for s in sweeps})
    if not devices:
        print("no sweeps to fit", file=sys.stderr)
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
    with open(run.path("cards.cir"), "w", encoding="utf-8") as fh:
        fh.write(netlist.serialize(deck))
    run.finish()
    return E_OK


# ---------------------------------------------------------------------------
# sim


def cmd_sim(args, run: Run) -> int:
    src = Path(args.netlist)
    text = src.read_text(encoding="utf-8")
    c = netlist.parse(text)  # NetlistError propagates before any artifact
    errors = [d for d in netlist.validate(c) if d.severity == "error"]
    if errors:
        for d in errors:
            print(d, file=sys.stderr)
        return E_INPUT
    run.note_input(src)
    if not c.analyses:
        print("netlist has no analysis directives", file=sys.stderr)
        return E_INPUT

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
            devices = [e.name for e in c.elements if e.kind == "M"]
            samples = analyses.mc_samples(a.count, a.seed, len(devices), a.dists)
            rows = [(rep, dev, pname, float(samples[rep, i, j]))
                    for rep in range(a.count)
                    for i, dev in enumerate(devices)
                    for j, (pname, _k2, _a2, _b2) in enumerate(a.dists)]
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
    text = fixtures.read("ro_pseudo_e.cir")
    run.note_input(fixtures.path("ro_pseudo_e.cir"))
    ratio20 = netlist.parse(text)
    ratio10 = netlist.parse(text, params={"w2": 200e-6, "rc2": 57e3})
    f20 = dict(analyses.vco_curve(ratio20, vdds, run.cfg))
    f10 = dict(analyses.vco_curve(ratio10, vdds, run.cfg))
    run.write_rows("fig4h.csv", ["vdd_V", "f_ratio20_Hz", "f_ratio10_Hz"],
                   [(v, f20[v], f10[v]) for v in vdds])


def _fig5d(run: Run) -> None:
    c = _load(run, "inverter_cmos.cir")
    for vdd in (3.0, 5.0, 7.0):
        cv = c.with_source_level("vdd", vdd).with_analyses(
            [netlist.DcSweep("vin", 0.0, vdd, 0.01)])
        w = _vtc(cv, run.cfg)
        run.write_rows(f"fig5d_vdd{int(vdd)}.csv", ["vin_V", "vout_V"],
                       zip(w.axis, w.columns["v(out)"]))
    curves = analyses.strain_study(
        c, [0.0, 0.25, 0.5], "parallel", lambda cv: _vtc(cv, run.cfg))
    for eps, w in curves:
        run.write_rows(f"fig5d_eps{int(eps * 100)}.csv", ["vin_V", "vout_V"],
                       zip(w.axis, w.columns["v(out)"]))


def _fig5e(run: Run) -> None:
    c = _load(run, "inverter_cmos.cir")
    for vdd in (3.0, 5.0, 7.0):
        cv = c.with_source_level("vdd", vdd).with_analyses(
            [netlist.DcSweep("vin", 0.0, vdd, 0.01)])
        w = _vtc(cv, run.cfg)
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


def _load(run: Run, name: str):
    p = fixtures.path(name)
    run.note_input(p)
    return netlist.parse(p.read_text())


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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: $OFETSIM_OUT "
                                      "or ./ofetsim-out)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the manifest (default 0)")
    common.add_argument("--format", choices=("csv", "binary", "both"),
                        default="csv", help="waveform artifact format")
    common.add_argument("-v", "--verbose", action="store_true")

    ap = argparse.ArgumentParser(
        prog="ofetsim",
        description="Transistor characterization and circuit simulation "
                    "toolkit for stretchable organic FETs.",
        epilog="Solver options pass through as --solver.<key>=<value>, e.g. "
               "--solver.reltol=1e-5 --solver.method=be.")
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
    p.add_argument("--device", default=None, help="fit only this device id")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("sim", parents=[common],
                       help="run every analysis directive in a netlist")
    p.add_argument("netlist")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("reproduce", parents=[common],
                       help="regenerate a figure-analogue dataset")
    p.add_argument("id")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    full_argv = list(argv)
    try:
        argv, solver = _parse_solver_overrides(argv)
    except SystemExit_usage as e:
        print(str(e), file=sys.stderr)
        return E_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return E_OK if e.code == 0 else E_USAGE
    try:
        run = Run(args, solver, full_argv)
    except (TypeError, ValueError) as e:
        print(f"bad solver configuration: {e}", file=sys.stderr)
        return E_USAGE
    try:
        return args.fn(args, run)
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return E_INPUT
    except (extract.SchemaError, netlist.NetlistError, ParameterError) as e:
        print(str(e), file=sys.stderr)
        return E_INPUT
    except (engine.ConvergenceError, extract.ExtractionError,
            extract.FitError, analyses.AnalysisError) as e:
        print(str(e), file=sys.stderr)
        return E_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
