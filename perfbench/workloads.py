"""Seeded inputs and per-op correctness checks for the three workloads.

Every workload is a fixed *round* of CLI operations built from one seed.  A
benchmark run repeats the round in a closed loop, so every round does the
same work and its counters repeat exactly.

* ``ring_tran``: ``ofetsim sim`` on flat replicas of the 5-stage pseudo-E
  ring with per-device vth/mu0 mismatch and a seeded supply, plus one
  nominal replica at 24 V that carries the accuracy metric.
* ``vtc_mc``: ``ofetsim sim`` on mismatch replicas of the two-stage pseudo-E
  inverter (1,501-point vin sweep) and of the CMOS inverter (vin sweep with
  a secondary vdd sweep), plus the nominal pseudo-E inverter.
* ``fit_batch``: ``ofetsim extract`` on a seeded measurement CSV, then one
  ``ofetsim fit --device`` per device; the first device is the reference
  card with the fixture script's own noise stream.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ofetsim import extract, fixtures, netlist
from ofetsim.extract import IvSweep
from ofetsim.model import DeviceGeometry, OtftParams, drain_current_with_contacts

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# ring: analyses.oscillation_frequency needs about 8 periods to call an
# oscillation settled; 10 nominal periods leave that at 12 V, where the ring
# runs ~10 % slower, and under mismatch
RING_F_NOM = 522.6          # Hz, nominal ring at 24 V
RING_PERIODS = 10
# vco_curve caps the step at 1/250 of a period (~2,000 steps over 8 periods);
# a 1/50 cap leaves the ~110 steps per period to LTE control and about halves
# the op, so that a 30 s run holds more ops
RING_STEPS_PER_PERIOD = 50
RING_VDD_NOM = 24.0
RING_VDD_RANGE = (12.0, 30.0)   # fig4h / supp9 supplies
RING_REPLICAS = 3
RING_F_PLAUSIBLE = (0.5 * RING_F_NOM, 2.0 * RING_F_NOM)

VTC_PE_REPLICAS = 2
VTC_CMOS_REPLICAS = 1
VTC_CMOS_VDDS = (3.0, 5.0, 7.0)
VTC_GAIN_FLOOR = {"pe": 20.0, "cmos": 10.0}   # c07

# mismatch: per-device threshold offset (V) and log-normal mobility spread
MISMATCH_VTH_SIGMA = 0.01
MISMATCH_MU0_SIGMA = 0.02

# fit: the scripts/make_fixtures.py reference card, geometry and noise model
FIT_SEED_REFERENCE = 20250611
FIT_REF_CARD = dict(polarity="p", mu0=2.35e-5, vth=-0.8, ss=0.18, lam=0.015,
                    gamma=0.0, rc=30e3, cox=3.5e-4)
FIT_GEOM = DeviceGeometry(w=380e-6, l=35e-6, lov=5e-6)
FIT_DEVICES = 12            # seeded devices per round, besides the reference
FIT_FIELDS = ("mu0", "vth", "ss", "lam", "rc")
FIT_ERR_MAX = 0.05          # c04
FIT_GAMMA_RANGE = (0.05, 0.15)   # seeded cards; see fit_cards

# extract.fit_model's known non-convergence: with gamma above ~0.2 and rc
# below the reference's, rc runs to its 0 bound and the LM crawls along it
# until the 200-iteration budget runs out (exit 3).  This card with noise
# stream 0 shows it; the seeded cards stay below that gamma.
DEFECT_CARD = dict(FIT_REF_CARD, mu0=2.2565e-5, vth=-0.69167, ss=0.18548,
                   lam=0.016665, gamma=0.26478, rc=22750.0)
DEFECT_NOISE_SEED = 0


@dataclass
class Op:
    """One CLI invocation: argv minus --out, and what its check needs."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _supplies(rng) -> list[float]:
    """One supply per third of the range, within 1 V of the third's centre.

    The op cost grows ~40 % from 30 V down to 12 V (more Newton iterations
    per step), so a narrow draw per third keeps rounds of different seeds
    equally expensive while every round still spans the range.
    """
    lo, hi = RING_VDD_RANGE
    width = (hi - lo) / RING_REPLICAS
    return [lo + width * (k + 0.5) + float(rng.uniform(-1.0, 1.0))
            for k in range(RING_REPLICAS)]


def _mismatch(c: netlist.Circuit, rng) -> netlist.Circuit:
    ups = {}
    for e in c.elements:
        if e.kind != "M":
            continue
        card = c.model_card(e.model)
        vth = float(e.override("vth", card.vth))
        mu0 = float(e.override("mu0", card.mu0))
        ups[e.name] = {"vth": vth + MISMATCH_VTH_SIGMA * rng.standard_normal(),
                       "mu0": mu0 * math.exp(MISMATCH_MU0_SIGMA * rng.standard_normal())}
    return c.with_otft_overrides(ups)


def _write_netlist(path: Path, c: netlist.Circuit) -> str:
    path.write_text(netlist.serialize(c), encoding="utf-8")
    return str(path)


def ring_directive() -> netlist.Tran:
    return netlist.Tran(step=1.0 / (RING_F_NOM * RING_STEPS_PER_PERIOD),
                        stop=RING_PERIODS / RING_F_NOM)


def ring_tran(seed: int, work: Path) -> list[Op]:
    rng = _rng(seed, "ring_tran")
    base = netlist.parse(fixtures.read("ro_pseudo_e.cir"))
    tran = ring_directive()
    ops = [Op(["sim", _write_netlist(
        work / "ring_nominal.cir",
        base.with_source_level("vdd", RING_VDD_NOM).with_analyses([tran]))],
        "ring", {"nominal": True})]
    for k, vdd in enumerate(_supplies(rng)):
        c = _mismatch(base, rng).with_source_level("vdd", vdd).with_analyses([tran])
        ops.append(Op(["sim", _write_netlist(work / f"ring_{k}.cir", c)], "ring",
                      {"nominal": False}))
    return ops


def vtc_mc(seed: int, work: Path) -> list[Op]:
    rng = _rng(seed, "vtc_mc")
    pe = netlist.parse(fixtures.read("inverter_pseudo_e.cir"))
    ops = [Op(["sim", _write_netlist(work / "vtc_pe_nominal.cir", pe)], "vtc",
              {"circuit": "pe", "vdds": [30.0], "nominal": True})]
    for k in range(VTC_PE_REPLICAS):
        ops.append(Op(["sim", _write_netlist(work / f"vtc_pe_{k}.cir", _mismatch(pe, rng))],
                      "vtc", {"circuit": "pe", "vdds": [30.0], "nominal": False}))
    cm = netlist.parse(fixtures.read("inverter_cmos.cir"))
    lo, hi = VTC_CMOS_VDDS[0], VTC_CMOS_VDDS[-1]
    sweep = netlist.DcSweep("vin", 0.0, hi, 0.01, "vdd", lo, hi,
                            VTC_CMOS_VDDS[1] - VTC_CMOS_VDDS[0])
    for k in range(VTC_CMOS_REPLICAS):
        c = _mismatch(cm, rng).with_analyses([sweep])
        ops.append(Op(["sim", _write_netlist(work / f"vtc_cmos_{k}.cir", c)], "vtc",
                      {"circuit": "cmos", "vdds": list(VTC_CMOS_VDDS), "nominal": False}))
    return ops


def _noisy(rng, i):
    # scripts/make_fixtures.py: 0.5 % multiplicative plus 0.15 pA additive
    return i * (1.0 + 0.005 * rng.standard_normal(i.shape)) \
        + 1.5e-13 * rng.standard_normal(i.shape)


def _device_sweeps(p: OtftParams, name: str, rng) -> list[IvSweep]:
    v = np.arange(0.0, -30.25, -0.25)
    out = [IvSweep("transfer", name, p.geom, p.cox, -30.0, v,
                   _noisy(rng, drain_current_with_contacts(p, v, -30.0)))]
    v = np.arange(0.0, -30.5, -0.5)
    for vgs in (-10.0, -20.0, -30.0):
        out.append(IvSweep("output", name, p.geom, p.cox, vgs, v,
                           _noisy(rng, drain_current_with_contacts(p, vgs, v))))
    return out


def fit_cards(seed: int) -> dict[str, OtftParams]:
    """Generating card per device id; ``ref`` is the fixture's reference card.

    Seeded cards vary mu0, vth, ss, lam and rc around the reference.  Their
    gamma is drawn from FIT_GAMMA_RANGE rather than held at the reference's
    0: with gamma at its lower bound about half of all noise draws put the
    optimum on the bound, and the fit then takes either ~7 or ~80
    iterations, so the seed alone would decide the timing.  The reference
    device keeps gamma = 0 and shows that slow path on every seed.  Above
    ~0.2, gamma trades off against rc and some fits never converge (see
    DEFECT_CARD); the range stays below that, so that no op of the timed
    loop fails.
    """
    rng = _rng(seed, "fit_batch")
    cards = {"ref": OtftParams(geom=FIT_GEOM, **FIT_REF_CARD)}
    for k in range(FIT_DEVICES):
        card = dict(FIT_REF_CARD,
                    mu0=FIT_REF_CARD["mu0"] * math.exp(0.1 * rng.standard_normal()),
                    vth=FIT_REF_CARD["vth"] + 0.05 * rng.standard_normal(),
                    ss=FIT_REF_CARD["ss"] * math.exp(0.05 * rng.standard_normal()),
                    lam=FIT_REF_CARD["lam"] * math.exp(0.1 * rng.standard_normal()),
                    gamma=float(rng.uniform(*FIT_GAMMA_RANGE)),
                    rc=FIT_REF_CARD["rc"] * math.exp(0.15 * rng.standard_normal()))
        cards[f"dev{k}"] = OtftParams(geom=FIT_GEOM, **card)
    return cards


def fit_batch(seed: int, work: Path) -> list[Op]:
    cards = fit_cards(seed)
    noise = _rng(seed, "fit_batch_noise")
    sweeps = []
    for name, p in cards.items():
        # the reference device replays the fixture's noise stream exactly
        rng = np.random.default_rng(FIT_SEED_REFERENCE) if name == "ref" else noise
        sweeps.extend(_device_sweeps(p, name, rng))
    path = work / "batch_iv.csv"
    extract.write_iv_csv(path, sweeps)
    ops = [Op(["extract", str(path)], "extract", {"devices": sorted(cards)})]
    for name in cards:
        ops.append(Op(["fit", str(path), "--device", name], "fit",
                      {"device": name, "csv": str(path), "card": cards[name]}))
    return ops


WORKLOADS = {"ring_tran": ring_tran, "vtc_mc": vtc_mc, "fit_batch": fit_batch}


def known_defect(workload: str, work: Path) -> Op | None:
    """An op that shows a known defect of the program, or None.

    The benchmark runs it once per run, outside the timed loop, and reports
    whether the defect still shows.
    """
    if workload != "fit_batch":
        return None
    p = OtftParams(geom=FIT_GEOM, **DEFECT_CARD)
    path = work / "defect_iv.csv"
    extract.write_iv_csv(path, _device_sweeps(p, "defect", np.random.default_rng(
        DEFECT_NOISE_SEED)))
    return Op(["fit", str(path)], "fit",
              {"code": 3, "what": "fit_model exhausts 200 iterations on a card with "
                                  "gamma 0.26 and rc 22.75 kOhm"})


def first_input_parse(workload: str) -> str:
    """Python source a fresh interpreter runs to parse the workload's first input."""
    if workload == "fit_batch":
        return "from ofetsim import extract; extract.read_iv_csv({path!r})"
    return ("from ofetsim import netlist; "
            "netlist.parse(open({path!r}, encoding='utf-8').read())")


# -- checks ---------------------------------------------------------------------


class OpFailed(Exception):
    """The op exited non-zero: it failed cleanly and wrote no result."""


class CheckError(Exception):
    """The op exited 0 but its outputs are wrong."""


def _table(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckError(f"{path.name}: no data rows")
    cols = {}
    for j, name in enumerate(rows[0]):
        try:
            cols[name] = np.array([float(r[j]) for r in rows[1:]])
        except ValueError:
            cols[name] = np.array([r[j] for r in rows[1:]])
    return cols


def reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check(op: Op, out: Path, code: int, ref: dict) -> dict:
    """Check one op; return its figures.

    Raises OpFailed for a non-zero exit and CheckError for wrong outputs.
    """
    if code != 0:
        raise OpFailed(f"exit code {code}")
    if not (out / "manifest.json").is_file():
        raise CheckError("manifest.json missing")
    return {"ring": _check_ring, "vtc": _check_vtc, "extract": _check_extract,
            "fit": _check_fit}[op.kind](op, out, ref)


def _check_ring(op, out, ref):
    m = _table(out / "metrics_0.csv")
    f, settled = float(m["frequency_Hz"][0]), int(m["settled"][0])
    if not settled:
        raise CheckError("oscillation did not settle")
    lo, hi = RING_F_PLAUSIBLE
    if not lo <= f <= hi:
        raise CheckError(f"frequency {f:.1f} Hz outside {lo:.0f}-{hi:.0f} Hz")
    w = _table(out / "tran_0.csv")
    if not np.all(np.diff(w["time"]) > 0.0):
        raise CheckError("time axis not increasing")
    res = {"steps": int(w["time"].size - 1)}
    if op.expect["nominal"]:
        res["err_rel"] = abs(f - ref["ring_tran"]["frequency_Hz"]) \
            / ref["ring_tran"]["frequency_Hz"]
    return res


def vtc_figures(vin: np.ndarray, vout: np.ndarray, vdd: float) -> tuple[int, float, float]:
    """(Vout = Vin crossings, peak |gain|, switching threshold) over 0..vdd."""
    keep = vin <= vdd + 1e-9
    vin, vout = vin[keep], vout[keep]
    d = vout - vin
    idx = np.nonzero(np.diff(np.sign(d)) != 0)[0]
    gain = float(np.max(np.abs(np.gradient(vout, vin))))
    vm = math.nan
    if idx.size:
        i = int(idx[0])
        vm = float(vin[i] - d[i] * (vin[i + 1] - vin[i]) / (d[i + 1] - d[i]))
    return int(idx.size), gain, vm


def _check_vtc(op, out, ref):
    circuit, vdds = op.expect["circuit"], op.expect["vdds"]
    names = ["dc_0.csv"] if len(vdds) == 1 else [f"dc_0_{j}.csv" for j in range(len(vdds))]
    res = {"points": 0}
    for name, vdd in zip(names, vdds):
        w = _table(out / name)
        n, gain, vm = vtc_figures(w["vin"], w["v(out)"], vdd)
        res["points"] += int(w["vin"].size)
        if n != 1:
            raise CheckError(f"{name}: {n} Vout = Vin crossings, want 1")
        if gain < VTC_GAIN_FLOOR[circuit]:
            raise CheckError(f"{name}: gain {gain:.2f} below {VTC_GAIN_FLOOR[circuit]}")
        if op.expect["nominal"]:
            r = ref["vtc_mc"]
            res["err_rel"] = max(abs(gain - r["gain"]) / r["gain"],
                                 abs(vm - r["vm_V"]) / r["vm_V"])
    return res


def _check_extract(op, out, ref):
    rep = _table(out / "reports.csv")
    if sorted(rep["device_id"].tolist()) != op.expect["devices"]:
        raise CheckError("reports.csv does not list every device")
    for col in ("mu_sat_m2_Vs", "ss_V_dec", "on_off"):
        if not np.all(np.isfinite(rep[col]) & (rep[col] > 0.0)):
            raise CheckError(f"reports.csv: {col} not positive and finite")
    if np.min(rep["on_off"]) <= 1e5:      # c05
        raise CheckError("on/off ratio at or below 1e5")
    if not (out / "summary.csv").is_file():
        raise CheckError("summary.csv missing")
    return {}


def _card(out: Path) -> OtftParams:
    lines = [ln for ln in (out / "cards.cir").read_text(encoding="utf-8").splitlines()
             if ln.startswith(".model")]
    if len(lines) != 1:
        raise CheckError(f"cards.cir holds {len(lines)} cards, want 1")
    toks = lines[0].split()
    kv = dict(t.split("=", 1) for t in toks[3:])
    return OtftParams(polarity=toks[2][-1], mu0=float(kv["mu0"]), vth=float(kv["vth"]),
                      ss=float(kv["ss"]), lam=float(kv["lambda"]),
                      gamma=float(kv["gamma"]), rc=float(kv["rc"]), cox=float(kv["cox"]),
                      geom=DeviceGeometry(float(kv["w"]), float(kv["l"]), float(kv["lov"])))


def _asinh_cost(p: OtftParams, sweeps) -> float:
    r = []
    for s in sweeps:
        q = p.replace(geom=s.geom, cox=s.cox)
        if s.kind == "transfer":
            im = drain_current_with_contacts(q, s.v, np.full(s.v.size, s.fixed_bias))
        else:
            im = drain_current_with_contacts(q, np.full(s.v.size, s.fixed_bias), s.v)
        r.append(np.arcsinh(im / 1e-9) - np.arcsinh(s.i / 1e-9))
    r = np.concatenate(r)
    return float(r @ r)


def _check_fit(op, out, ref):
    dev = op.expect["device"]
    got = _card(out)
    want = op.expect["card"]
    err = max(abs(getattr(got, f) - getattr(want, f)) / abs(getattr(want, f))
              for f in FIT_FIELDS)
    sweeps = [s for s in extract.read_iv_csv(op.expect["csv"]) if s.device_id == dev]
    # the fit must reach at least the generating card's cost on the same data
    c_fit, c_true = _asinh_cost(got, sweeps), _asinh_cost(want, sweeps)
    if not c_fit <= c_true * (1.0 + 1e-9):
        raise CheckError(f"{dev}: fitted cost {c_fit:.6g} above generating card's "
                         f"{c_true:.6g}")
    res = {"fit_err_rel": err}
    if dev == "ref":
        # c04's 5 % applies to the reference device; seeded devices' rc error
        # is limited by the measurement noise and is reported, not gated
        if err > FIT_ERR_MAX:
            raise CheckError(f"{dev}: fit_err_rel {err:.4f} above {FIT_ERR_MAX}")
        res["err_rel"] = err
    return res
