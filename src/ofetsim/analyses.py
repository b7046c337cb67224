"""Experiment drivers built on the circuit engine.

Each driver takes a parsed circuit (usually a checked-in fixture), runs the
appropriate sweep or transient, and reduces the waveforms to the quantities
plotted in characterization work: inverter transfer metrics, oscillator
frequency vs supply, spiking-rate vs input current, logic truth tables,
strain response, and mismatch yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .netlist import Circuit, DcSweep, Tran, Mc
from . import engine
from .engine import SolverConfig, Waveform


class AnalysisError(RuntimeError):
    """A driver could not produce a valid result (e.g. unsettled oscillator)."""


# ---------------------------------------------------------------------------
# inverter transfer metrics


@dataclass(frozen=True)
class VtcMetrics:
    """Summary of an inverter voltage transfer curve."""

    gain: float            # max |dVout/dVin|
    vm: float              # switching threshold, Vout = Vin
    nmh: float             # high noise margin from unity-gain points
    nml: float
    swing: float           # Vout max - min over the sweep
    vdd: float

    def __post_init__(self):
        if not (-1e-9 <= self.vm <= self.vdd + 1e-9):
            raise ValueError(f"VM {self.vm} outside 0..VDD")
        if self.swing > self.vdd * (1 + 1e-9):
            raise ValueError(f"swing {self.swing} exceeds VDD {self.vdd}")


def _cross(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Linear-interpolated x where y crosses zero between samples i, i+1."""
    y0, y1 = y[i], y[i + 1]
    if y1 == y0:
        return float(x[i])
    return float(x[i] - y0 * (x[i + 1] - x[i]) / (y1 - y0))


def vtc_metrics(w: Waveform, vdd: float, output: str = "out") -> VtcMetrics:
    """Reduce a DC transfer sweep to gain, VM, noise margins, and swing.

    The gain is the peak magnitude of the central-difference slope.  VM is
    the input where Vout - Vin changes sign.  Noise margins use the
    unity-gain points: NML = VIL - VOL, NMH = VOH - VIH, with VOH/VOL read
    from the curve at the respective unity-gain inputs.
    """
    vin = w.axis
    vout = w.columns[f"v({output})"]
    if len(vin) < 5:
        raise AnalysisError("VTC sweep too short")
    slope = np.gradient(vout, vin)
    gain = float(np.max(np.abs(slope)))

    d = vout - vin
    sign_change = np.nonzero(np.diff(np.sign(d)) != 0)[0]
    if len(sign_change) == 0:
        raise AnalysisError("VTC never crosses Vout = Vin")
    vm = _cross(vin, d, int(sign_change[0]))

    # unity-gain points: where |slope| passes through 1
    a = np.abs(slope) - 1.0
    ug = np.nonzero(np.diff(np.sign(a)) != 0)[0]
    if len(ug) >= 2:
        i_l, i_h = int(ug[0]), int(ug[-1])
        vil, vih = _cross(vin, a, i_l), _cross(vin, a, i_h)
        voh = float(np.interp(vil, vin, vout))
        vol = float(np.interp(vih, vin, vout))
        nml = max(0.0, vil - vol)
        nmh = max(0.0, voh - vih)
    else:
        nml = nmh = 0.0

    swing = float(vout.max() - vout.min())
    return VtcMetrics(gain=gain, vm=vm, nmh=nmh, nml=nml, swing=swing, vdd=vdd)


# ---------------------------------------------------------------------------
# oscillators


@dataclass(frozen=True)
class OscillationResult:
    frequency: float | None   # Hz; None when not settled
    amplitude: float          # peak-to-peak over the analysis window
    settled: bool
    window: tuple[float, float]

    def __post_init__(self):
        if self.settled and not (self.frequency and self.frequency > 0):
            raise ValueError("settled oscillation must carry a frequency")


def oscillation_frequency(w: Waveform, node: str = "out") -> OscillationResult:
    """Estimate oscillation frequency from a transient waveform.

    The first 30% of the record is discarded as startup.  Crossing times of
    the mean-removed signal are interpolated linearly; with n crossings the
    frequency is (n - 1) / (2 * span).  The settled flag requires both the
    peak-to-peak amplitude and the mean crossing interval of the last
    quarter to lie within 10% of the preceding quarter.
    """
    t, v = w.axis, w.columns[f"v({node})"]
    keep = t >= t[0] + 0.30 * (t[-1] - t[0])
    t, v = t[keep], v[keep]
    window = (float(t[0]), float(t[-1]))
    amplitude = float(v.max() - v.min())

    s = v - v.mean()
    idx = np.nonzero(np.diff(np.sign(s)) != 0)[0]
    if len(idx) < 4:
        return OscillationResult(None, amplitude, False, window)
    tc = np.array([_cross(t, s, int(i)) for i in idx])
    freq = (len(tc) - 1) / (2.0 * (tc[-1] - tc[0]))

    # stability: compare last quarter against the one before it
    t3 = t[0] + 0.75 * (t[-1] - t[0])
    t2 = t[0] + 0.50 * (t[-1] - t[0])
    last, prev = (t >= t3), (t >= t2) & (t < t3)
    settled = bool(last.sum() > 4 and prev.sum() > 4)
    if settled:
        a_last = v[last].max() - v[last].min()
        a_prev = v[prev].max() - v[prev].min()
        settled = a_prev > 0 and abs(a_last - a_prev) <= 0.10 * a_prev
    if settled:
        p_last = np.diff(tc[tc >= t3])
        p_prev = np.diff(tc[(tc >= t2) & (tc < t3)])
        if len(p_last) < 2 or len(p_prev) < 2:
            settled = False
        else:
            settled = abs(p_last.mean() - p_prev.mean()) <= 0.10 * p_prev.mean()
    if not settled:
        return OscillationResult(None, amplitude, False, window)
    return OscillationResult(float(freq), amplitude, True, window)


def _tran_directive(c: Circuit) -> Tran:
    for a in c.analyses:
        if isinstance(a, Tran):
            return a
    raise AnalysisError("fixture has no .tran directive")


def vco_curve(c: Circuit, vdds: Sequence[float], cfg: SolverConfig | None = None,
              node: str = "out", supply: str = "vdd") -> list[tuple[float, float]]:
    """Oscillation frequency at each supply voltage.

    Each point reruns the fixture transient at the given VDD.  After the
    first point the simulated span is resized to ~8 periods of the previous
    frequency (never longer than the fixture's own directive), which keeps
    the fast high-VDD runs cheap.  Raises if any point fails to settle.
    """
    base = _tran_directive(c)
    out: list[tuple[float, float]] = []
    prev_f: float | None = None
    for vdd in vdds:
        stop = base.stop if prev_f is None else min(base.stop, 8.0 / prev_f)
        d = Tran(step=stop / 2000.0, stop=stop, max_step=None)
        cv = c.with_source_level(supply, float(vdd))
        wf = engine.transient(cv, d, cfg)
        r = oscillation_frequency(wf, node)
        if not r.settled:
            raise AnalysisError(f"oscillator did not settle at VDD = {vdd} V")
        out.append((float(vdd), float(r.frequency)))
        prev_f = r.frequency
    return out


# ---------------------------------------------------------------------------
# spiking neuron


@dataclass(frozen=True)
class SpikeTrain:
    times: np.ndarray      # seconds, strictly increasing
    rate: float            # Hz from mean inter-spike interval; 0 if < 2 spikes
    isi_mean: float
    isi_std: float

    def __post_init__(self):
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("spike times must be strictly increasing")


def spike_train(w: Waveform, threshold: float, node: str = "out",
                refractory: float = 1e-3) -> SpikeTrain:
    """Upward threshold crossings with a refractory de-bounce."""
    t, v = w.axis, w.columns[f"v({node})"]
    s = v - threshold
    idx = np.nonzero((s[:-1] < 0) & (s[1:] >= 0))[0]
    times: list[float] = []
    for i in idx:
        tx = _cross(t, s, int(i))
        if not times or tx - times[-1] > refractory:
            times.append(tx)
    arr = np.array(times)
    if len(arr) < 2:
        return SpikeTrain(arr, 0.0, math.nan, math.nan)
    isi = np.diff(arr)
    return SpikeTrain(arr, float(1.0 / isi.mean()), float(isi.mean()), float(isi.std()))


def neuron_fi_curve(c: Circuit, i_ex: Sequence[float],
                    cfg: SolverConfig | None = None, node: str = "out",
                    source: str = "iex", supply: str = "vdd",
                    ) -> tuple[list[tuple[float, float]], list[SpikeTrain]]:
    """Firing rate vs injected current for the integrate-and-fire fixture.

    Spikes are upward crossings of the output through VDD/2.  The simulated
    span shrinks with increasing drive (the rate scales roughly linearly
    with Iex) so every point captures a handful of spikes without wasting
    time on the fast ones.  Zero input is valid and yields rate 0.
    """
    base = _tran_directive(c)
    vdd = c.element(supply).wave.level
    rates: list[tuple[float, float]] = []
    trains: list[SpikeTrain] = []
    for amp in i_ex:
        if amp < 0:
            raise ValueError("Iex must be nonnegative")
        if amp > 0:
            stop = min(base.stop, max(0.25, base.stop * 9e-9 / amp))
        else:
            stop = base.stop
        d = Tran(step=stop / 500.0, stop=stop, max_step=None)
        cv = c.with_source_level(source, float(amp))
        wf = engine.transient(cv, d, cfg)
        st = spike_train(wf, 0.5 * vdd, node)
        rates.append((float(amp), st.rate))
        trains.append(st)
    return rates, trains


# ---------------------------------------------------------------------------
# logic


def logic_truth_table(c: Circuit, inputs: Sequence[str] = ("va", "vb"),
                      output: str = "out",
                      cfg: SolverConfig | None = None) -> dict[tuple[int, ...], int]:
    """DC truth table of a gate fixture.

    Drives each input source to 0 or VDD (the level of source ``vdd``) for
    every combination and classifies the output: LOW below 0.3*VDD, HIGH
    above 0.7*VDD.  An output inside the forbidden band raises.
    """
    vdd = c.element("vdd").wave.level
    low, high = 0.3 * vdd, 0.7 * vdd
    table: dict[tuple[int, ...], int] = {}
    for combo in range(2 ** len(inputs)):
        bits = tuple((combo >> (len(inputs) - 1 - k)) & 1 for k in range(len(inputs)))
        cv = c
        for name, b in zip(inputs, bits):
            cv = cv.with_source_level(name, vdd * b)
        vout = engine.dc_operating_point(cv, cfg)[output]
        if vout < low:
            table[bits] = 0
        elif vout > high:
            table[bits] = 1
        else:
            raise AnalysisError(
                f"output {vout:.3f} V for inputs {bits} is inside the "
                f"forbidden band [{low:.2f}, {high:.2f}]")
    return table


# ---------------------------------------------------------------------------
# strain


def strain_study(c: Circuit, strains: Sequence[float], orientation: str,
                 metric: Callable[[Circuit], object],
                 wire_resistance_coeff: float = 0.0) -> list[tuple[float, object]]:
    """Evaluate a metric closure across strain states.

    Every transistor gets the same (epsilon, orientation) override; at
    epsilon = 0 the circuit is exactly the unstrained one.  When
    wire_resistance_coeff is nonzero, resistor values scale by
    (1 + coeff * epsilon) to model stretched interconnects.
    """
    out: list[tuple[float, object]] = []
    for eps in strains:
        cv = c.with_strain(float(eps), orientation)
        if wire_resistance_coeff != 0.0:
            cv = cv.with_scaled_values("r", 1.0 + wire_resistance_coeff * float(eps))
        out.append((float(eps), metric(cv)))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo mismatch


@dataclass(frozen=True)
class McSpec:
    """Mismatch experiment: replica count, seed, and per-parameter draws.

    dists entries are (param, kind, a, b) with kind "normal" (a = mean,
    b = sigma) or "lognormal" (a = median, b = sigma of log).  Every
    transistor instance receives an independent draw of each parameter.
    """

    count: int
    seed: int
    dists: tuple[tuple[str, str, float, float], ...]
    predicate: Callable[[object], bool] | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        for p, kind, _a, b in self.dists:
            if kind not in ("normal", "lognormal"):
                raise ValueError(f"unknown distribution {kind!r} for {p}")
            if b < 0:
                raise ValueError(f"negative sigma for {p}")

    @staticmethod
    def from_directive(mc: Mc, predicate=None) -> "McSpec":
        return McSpec(mc.count, mc.seed, mc.dists, predicate)


@dataclass(frozen=True)
class McResult:
    yield_: float
    metrics: tuple
    samples: np.ndarray        # (count, n_devices, n_params)
    devices: tuple[str, ...]
    params: tuple[str, ...]


def mc_samples(count: int, seed: int, n_devices: int, dists) -> np.ndarray:
    """The (count, n_devices, n_params) block of mismatch draws.

    Counter-based: entry [r, i] holds one draw per `dists` entry, in order,
    from the Philox stream keyed (seed, replica=r, device=i), so a replica's
    draws do not depend on `count`.
    """
    out = np.empty((count, n_devices, len(dists)))
    for r in range(count):
        for i in range(n_devices):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, r, i]))
            for j, (_p, kind, a, b) in enumerate(dists):
                z = rng.standard_normal()
                out[r, i, j] = a + b * z if kind == "normal" else a * math.exp(b * z)
    return out


def mc_overrides(samples_row: np.ndarray, devices: Sequence[str],
                 params: Sequence[str]) -> dict[str, dict[str, float]]:
    """Per-device override dict for one replica's sample block."""
    return {d: {p: float(samples_row[i, j]) for j, p in enumerate(params)}
            for i, d in enumerate(devices)}


def monte_carlo(c: Circuit, spec: McSpec,
                metric: Callable[[Circuit], object]) -> McResult:
    """Mismatch yield over deterministic per-device parameter draws.

    Replica r applies to transistor i the draws from the Philox stream
    keyed (seed, replica=r, device=i); devices are indexed in element
    order.  Yield is the fraction of replicas whose metric satisfies the
    predicate (1.0 when no predicate is given).  Identical seeds give
    identical results regardless of evaluation order.
    """
    devices = tuple(e.name for e in c.elements if e.kind == "M")
    params = tuple(p for p, _k, _a, _b in spec.dists)
    samples = mc_samples(spec.count, spec.seed, len(devices), spec.dists)
    metrics = []
    passed = 0
    for r in range(spec.count):
        cv = c.with_otft_overrides(mc_overrides(samples[r], devices, params))
        m = metric(cv)
        metrics.append(m)
        if spec.predicate is None or spec.predicate(m):
            passed += 1
    return McResult(yield_=passed / spec.count, metrics=tuple(metrics),
                    samples=samples, devices=devices, params=params)
