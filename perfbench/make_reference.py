"""Regenerate perfbench/reference.json, the accuracy references.

    python3 perfbench/make_reference.py

* ring_tran: frequency of the nominal ring replica (24 V, no mismatch,
  the workload's .tran) simulated with lte_tol = reltol = 1e-6.
* vtc_mc: peak gain and switching threshold of the nominal pseudo-E
  inverter swept on a 10x finer vin grid with reltol = 1e-9.

The benchmark's result_err_rel is the relative distance of the default-
tolerance CLI result from these values.  Takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ofetsim import analyses, engine, fixtures, netlist  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    base = netlist.parse(fixtures.read("ro_pseudo_e.cir"))
    ring = base.with_source_level("vdd", workloads.RING_VDD_NOM)
    tight = engine.SolverConfig(lte_tol=1e-6, reltol=1e-6)
    w = engine.transient(ring, workloads.ring_directive(), tight)
    osc = analyses.oscillation_frequency(w, "out")
    if not osc.settled:
        raise SystemExit("reference ring did not settle")

    pe = netlist.parse(fixtures.read("inverter_pseudo_e.cir"))
    d = pe.analyses[0]
    fine = netlist.DcSweep(d.source, d.start, d.stop, d.step / 10.0)
    wv = engine.dc_sweep(pe, fine, engine.SolverConfig(reltol=1e-9))
    n, gain, vm = workloads.vtc_figures(wv.axis, wv.columns["v(out)"], 30.0)
    if n != 1:
        raise SystemExit(f"reference VTC has {n} crossings")

    ref = {
        "command": "python3 perfbench/make_reference.py",
        "ring_tran": {"frequency_Hz": osc.frequency, "vdd_V": workloads.RING_VDD_NOM,
                      "lte_tol": 1e-6, "reltol": 1e-6},
        "vtc_mc": {"gain": gain, "vm_V": vm, "vin_step_V": fine.step, "reltol": 1e-9},
    }
    workloads.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(ref, indent=2))


if __name__ == "__main__":
    main()
