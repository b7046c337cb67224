"""ofetsim benchmark: three seeded workloads driven through ``ofetsim.cli.main``.

    python3 perfbench/run.py --workload ring_tran --seed 1 --seconds 30 --trace 0

One client process runs the workload's round of CLI ops back to back (a
closed loop, one op in flight, no threads beyond NumPy's own) until
``--seconds`` have passed and at least one round is complete.  Every op's
outputs are checked.  Timings are normalized for the host's speed during
each op (see hostspeed.py); raw wall times are printed beside them.  The
last stdout line is one JSON object; with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see tracer.py).  Lines before it print
every metric with its unit, the environment and the deterministic counters.

Inputs, outputs and trace files go under ``.perfbench_work/`` in the
checkout, next to ``src/``, from which ofetsim is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import ofetsim
    from ofetsim import cli, kernels
except ImportError as exc:
    print(f"perfbench: cannot import ofetsim from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(ofetsim.__file__).resolve().parent.parent != SRC:
    print(f"perfbench: ofetsim imported from {ofetsim.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Fixed per workload, inside the round's slowest op (the 15 V ring replica,
# the CMOS inverter, the reference-device fit), so that it reads that op's
# latency rather than the edge between two ops, and two commits compare the
# same percentile.  See README.md for the samples beyond it.
TAIL_PCT = {"ring_tran": 90, "vtc_mc": 90, "fit_batch": 95}
KERNEL_LARGE_N = 200_000

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": kernels.numba_enabled(),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, first_input: str) -> list[tuple[float, float]]:
    """(normalized, raw) seconds that fresh interpreters take to import
    ofetsim.cli and parse the workload's first input."""
    code = "\n".join([
        f"import sys, time; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]",
        "import hostspeed; s = hostspeed.Sampler(); s.start()",
        "m = s.mark(); t0 = time.perf_counter()",
        "import ofetsim.cli",
        workloads.first_input_parse(workload).format(path=first_input),
        "t = time.perf_counter() - t0; print(s.since(m)[0], t); s.stop()",
    ])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        norm, raw = map(float, proc.stdout.split())
        times.append((norm, raw))
    return times


def kernel_ns_per_device() -> float:
    """Median ns per device of one large otft_eval batch (per-call overhead amortized)."""
    rng = np.random.default_rng(42)
    n = KERNEL_LARGE_N
    vgs, vds = -30.0 * rng.random(n), -30.0 * rng.random(n)
    full = lambda v: np.full(n, v)  # noqa: E731
    args = (vgs, vds, full(-1.0), full(380 / 35 * 3.5e-4), full(2.35e-5), full(0.8),
            full(0.18), full(0.0), full(0.015), full(3.0))
    out = np.empty((3, n))
    kernels.otft_eval(*args, out=out)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernels.otft_eval(*args, out=out)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / n


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Loop:
    """Runs ops in rounds and keeps per-op and per-round results."""

    def __init__(self, ops, work: Path, ref: dict, sampler, tracer=None):
        self.ops, self.work, self.ref, self.tracer = ops, work, ref, tracer
        self.sampler = sampler
        self.attempted = self.failed = self.wrong = 0
        # normalized latencies of the ops that succeeded (failures count in
        # `failed`), their raw wall times and host-speed factors
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.factors: list[float] = []
        self.by_index: list[list[float]] = [[] for _ in ops]   # untraced rounds
        self.rounds: list[dict] = []

    def run_op(self, i: int, op, traced: bool) -> tuple:
        """Run and check one op: (normalized seconds, raw seconds, host-speed
        factor, succeeded, figures, bytes, spans)."""
        out = self.work / "out" / f"op-{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = op.argv + ["--out", str(out)]
        first_span = len(self.tracer.spans) if self.tracer else 0
        if traced:
            self.tracer.op = self.attempted
        mark = self.sampler.mark()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed op, not a crash
            traceback.print_exc()
            code = -1
        raw = time.perf_counter() - t0
        dt, factor = self.sampler.since(mark)
        if traced:
            self.tracer.op = None
        spans = self.tracer.spans[first_span:] if traced else []
        self.attempted += 1
        figures, nbytes, ok = {}, 0, False
        try:
            figures = workloads.check(op, out, code, self.ref)
            nbytes = _dir_bytes(out)
            ok = True
        except workloads.OpFailed as exc:
            self.failed += 1
            print(f"FAILED op {i} ({' '.join(op.argv)}): {exc}", file=sys.stderr)
        except (workloads.CheckError, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG op {i} ({' '.join(op.argv)}): {exc}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return dt, raw, factor, ok, figures, nbytes, spans

    def run_round(self, traced: bool, deadline: float | None) -> None:
        """One pass over the ops; stops early (round incomplete) at the deadline."""
        r = {"traced": traced, "wall": 0.0, "spans": [], "bytes": 0, "figures": []}
        for i, op in enumerate(self.ops):
            if deadline is not None and time.perf_counter() >= deadline:
                return
            dt, raw, factor, ok, figures, nbytes, spans = self.run_op(i, op, traced)
            if ok:
                self.latencies.append(dt)
                self.raw.append(raw)
                self.factors.append(factor)
                if not traced:
                    self.by_index[i].append(dt)
            r["wall"] += dt
            r["bytes"] += nbytes
            r["spans"].extend(spans)
            r["figures"].append(figures)
        self.rounds.append(r)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    ops = workloads.WORKLOADS[workload](seed, work / "in")
    ref = workloads.reference()
    setup = measure_setup(workload, ops[0].argv[1])
    tracer = tracing.Tracer() if traced else None
    ns_large = kernel_ns_per_device() if traced else None
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        loop = Loop(ops, work, ref, sampler, tracer)
        # warm-up: first op pays lazy imports and caches; checked, not timed
        loop.run_op(0, ops[0], False)
        defect = known_defect(workload, work)
        _timed_loop(loop, seconds, traced, tracer)
    finally:
        sampler.stop()
    return {"setup": setup, "loop": loop, "tracer": tracer, "ns_large": ns_large,
            "defect": defect}


def known_defect(workload: str, work: Path) -> str | None:
    """Run the workload's known-defect op once, untimed and uncounted."""
    op = workloads.known_defect(workload, work / "in")
    if op is None:
        return None
    out = work / "out" / "defect"
    code = cli.main(op.argv + ["--out", str(out)])
    shutil.rmtree(out, ignore_errors=True)
    state = "still present" if code == op.expect["code"] else "no longer shows"
    return (f"known defect {state}: {op.expect['what']}; exit code {code}, "
            f"defect gives {op.expect['code']} (not counted in attempted)")


def _timed_loop(loop: Loop, seconds: float, traced: bool, tracer) -> None:
    # a traced run alternates untraced and traced rounds; the wrappers are
    # installed only for the traced ones
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        want_traced = traced and k % 2 == 1
        if want_traced:
            tracer.install()
        try:
            loop.run_round(want_traced, deadline if _have_rounds(loop, traced) else None)
        finally:
            if want_traced:
                tracer.uninstall()
        k += 1
        if time.perf_counter() >= deadline and _have_rounds(loop, traced):
            break


def _have_rounds(loop: Loop, traced: bool) -> bool:
    kinds = {r["traced"] for r in loop.rounds}
    return kinds >= ({False, True} if traced else {False})


def end_to_end(workload: str, res: dict) -> tuple[dict, list[str]]:
    loop = res["loop"]
    untraced = [r for r in loop.rounds if not r["traced"]]
    if not loop.latencies:
        raise RuntimeError("no op succeeded")
    lat = np.array(loop.latencies)
    pct = TAIL_PCT[workload]
    beyond = int(np.sum(lat > np.percentile(lat, pct)))
    errs = [f["err_rel"] for r in untraced for f in r["figures"] if "err_rel" in f]
    m = {
        "setup_s": statistics.median(n for n, _ in res["setup"]),
        # per-op medians use the ops of an unfinished last round too
        "round_s": sum(statistics.median(ts) for ts in loop.by_index if ts),
        "op_p50_s": float(np.percentile(lat, 50)),
        "op_tail_s": float(np.percentile(lat, pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the nominal op carries the figure; if it failed, its result is 100 % off
        "result_err_rel": errs[0] if errs else 1.0,
    }
    label = {"ring_tran": "freq_err_rel", "vtc_mc": "vtc_err_rel",
             "fit_batch": "fit_err_rel"}[workload]
    notes = [
        "times are normalized for host speed; raw wall medians: "
        f"setup {statistics.median(r for _, r in res['setup']):.4g} s, "
        f"op {statistics.median(loop.raw):.4g} s; host-speed factor median "
        f"{statistics.median(loop.factors):.3f} "
        f"(range {min(loop.factors):.3f}-{max(loop.factors):.3f})",
        f"setup_s      median of {len(res['setup'])} fresh interpreters",
        f"round_s      sum over the round's {len(loop.ops)} ops of each op's median "
        f"({len(untraced)} complete rounds)",
        f"op_tail_s    p{pct} of {lat.size} successful ops, {beyond} beyond it",
        f"fail_frac    {loop.failed}/{loop.attempted} = "
        f"{loop.failed / loop.attempted:.4g} ({loop.wrong} with wrong outputs)",
        f"result_err_rel is {label} for {workload}",
    ]
    if workload == "fit_batch":
        fe = [f["fit_err_rel"] for r in untraced for f in r["figures"] if "fit_err_rel" in f]
        notes.append(f"fit_err_rel  all devices: median {statistics.median(fe):.4g}, "
                     f"max {max(fe):.4g} (reference device gated at 5 %)")
    return m, notes


def per_layer(res: dict) -> tuple[dict, list[str], bool]:
    loop = res["loop"]
    traced = [r for r in loop.rounds if r["traced"]]
    plain = [r for r in loop.rounds if not r["traced"]]
    per_round = []
    for r in traced:
        lm = tracing.layer_metrics(r["spans"])
        lm["cli.bytes_written"] = r["bytes"]
        per_round.append(lm)
    # counters repeat exactly for identical inputs: every traced round must agree
    same = all(all(p[c] == per_round[0][c] for c in tracing.COUNTERS) for p in per_round)
    m = {k: (per_round[0][k] if k in tracing.COUNTERS
             else statistics.median(p[k] for p in per_round)) for k in per_round[0]}
    m["kernels.ns_per_device_large"] = res["ns_large"]
    m["trace.overhead_frac"] = (statistics.median(r["wall"] for r in traced)
                                / statistics.median(r["wall"] for r in plain) - 1.0)
    notes = [f"per-layer figures are per round ({len(loop.ops)} ops); timings are "
             f"medians of {len(traced)} traced rounds, counters must match in all",
             "counters " + json.dumps({c: per_round[0][c] for c in tracing.COUNTERS}),
             f"counters identical across traced rounds: {same}"]
    return m, notes, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)   # inputs are named relative to the checkout in manifests

    env = environment()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    loop = res["loop"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, notes, correct = per_layer(res)
        units = PER_LAYER_UNITS
        path = WORK / f"trace-{args.workload}.jsonl"
        res["tracer"].dump(path, {"workload": args.workload, "seed": args.seed, "env": env})
        notes.append(f"spans written to {path}")
    else:
        metrics, notes = end_to_end(args.workload, res)
        units = END_TO_END_UNITS
        correct = True
    if res["defect"]:
        notes.append(res["defect"])
    # a clean failure (non-zero exit) counts in `failed`; wrong outputs
    # also make the run incorrect
    correct = correct and loop.wrong == 0
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name:<34s} {value:14.6g} {units[name]}")
    for line in notes:
        print("  " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
