"""Check that the deterministic counters repeat exactly across processes.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

Runs the traced benchmark twice per workload with the same seed, each in a
fresh interpreter, and compares the counters of tracer.COUNTERS.  Inside one
run, run.py already requires every traced round to give the same counters.
Exits 1 if any counter differs or a run fails.  Takes about two minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload}: run not correct\n{proc.stdout}")
    return {c: res["metrics"][c]["value"] for c in tracer.COUNTERS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workload:
        a, b = counters(w, args.seed), counters(w, args.seed)
        same = a == b
        ok = ok and same
        print(f"{w:10s} {'identical' if same else 'DIFFER'} {json.dumps(a)}"
              + ("" if same else f" vs {json.dumps(b)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
