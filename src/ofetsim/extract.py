"""Parameter extraction and model fitting from current-voltage sweeps.

Inputs are measured (or synthesized) transfer/output sweeps.  Outputs are
figures of merit (saturation mobility, threshold, subthreshold swing, on/off
ratio, TLM contact resistance) and full parameter cards obtained by damped
least squares with an asinh residual that weighs subthreshold and on-state
decades evenly.

The card fit (``fit_model``) concatenates all sweeps that share geometry and
cox into one bias batch, so each residual pass makes one contact-resistance
solve (``model.drain_current_with_contacts``) per batch.  Its Jacobian is
exact: one kernel call at the solved internal bias gives the current's
derivatives by bias and by ss, gamma and lambda, and implicit
differentiation through the contact solve turns them into d(current)/d(card)
(``_jacobian``).  A parameter that sits on its bound while the descent
direction points out of the box is held for that iteration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model
from .model import DeviceGeometry, OtftParams


class SchemaError(ValueError):
    """Measurement CSV violates the documented schema."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExtractionError(Exception):
    """A figure of merit cannot be extracted from the given sweep."""


class FitError(Exception):
    """Model fit did not converge; carries the best result found."""

    def __init__(self, message: str, best: "FitResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True, eq=False)
class IvSweep:
    """One monotone I-V sweep with bias metadata.

    kind        "transfer" (v = VGS, fixed_bias = VDS) or "output" (v = VDS,
                fixed_bias = VGS)
    fixed_bias  the non-swept terminal voltage, V
    v, i        swept voltage and drain current arrays
    """

    kind: str
    device_id: str
    geom: DeviceGeometry
    cox: float
    fixed_bias: float
    v: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        if self.kind not in ("transfer", "output"):
            raise ValueError(f"sweep kind must be transfer or output, got {self.kind!r}")
        v = np.asarray(self.v, dtype=float)
        i = np.asarray(self.i, dtype=float)
        if v.ndim != 1 or v.shape != i.shape:
            raise ValueError("v and i must be 1-d arrays of equal length")
        if v.size < 8:
            raise ValueError(f"sweep needs >= 8 points, got {v.size}")
        dv = np.diff(v)
        if not (np.all(dv > 0.0) or np.all(dv < 0.0)):
            raise ValueError("swept voltage must be strictly monotone")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(i))):
            raise ValueError("sweep contains non-finite values")
        if not self.cox > 0.0:
            raise ValueError(f"cox must be positive, got {self.cox}")
        v.setflags(write=False)
        i.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "i", i)

    @property
    def ascending(self) -> "IvSweep":
        """The same sweep with v ascending."""
        if self.v[0] < self.v[-1]:
            return self
        return IvSweep(self.kind, self.device_id, self.geom, self.cox,
                       self.fixed_bias, self.v[::-1].copy(), self.i[::-1].copy())


# -- measurement CSV schema v1 ----------------------------------------------

CSV_COLUMNS = (
    "device_id", "kind", "W_um", "L_um", "LOV_um",
    "cox_nF_cm2", "fixed_bias_V", "v_V", "id_A",
)


def read_iv_csv(path) -> list[IvSweep]:
    """Read sweeps from a schema-v1 measurement CSV.

    Rows are grouped into sweeps whenever device_id, kind, geometry or fixed
    bias changes.  A single up-down (hysteresis) pass is split and the
    forward branch kept.  Raises SchemaError with a line number on malformed
    input.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = [c.strip() for c in cells]
                missing = [c for c in CSV_COLUMNS if c not in header]
                if missing:
                    raise SchemaError(f"missing column(s) {', '.join(missing)}", lineno)
                unknown = [c for c in header if c not in CSV_COLUMNS]
                if unknown:
                    raise SchemaError(f"unknown column(s) {', '.join(unknown)}", lineno)
                idx = {c: header.index(c) for c in CSV_COLUMNS}
                continue
            if len(cells) != len(header):
                raise SchemaError(
                    f"expected {len(header)} cells, got {len(cells)}", lineno)
            rows.append((lineno, cells))
    if header is None:
        raise SchemaError("empty file: no header row")

    def fval(cells, col, lineno):
        text = cells[idx[col]].strip()
        try:
            return float(text)
        except ValueError:
            raise SchemaError(f"column {col}: not a number: {text!r}", lineno) from None

    groups: list[tuple[tuple, list, list]] = []
    for lineno, cells in rows:
        kind = cells[idx["kind"]].strip().lower()
        if kind not in ("transfer", "output"):
            raise SchemaError(f"column kind: must be transfer or output, got {kind!r}", lineno)
        key = (
            cells[idx["device_id"]].strip(),
            kind,
            fval(cells, "W_um", lineno),
            fval(cells, "L_um", lineno),
            fval(cells, "LOV_um", lineno),
            fval(cells, "cox_nF_cm2", lineno),
            fval(cells, "fixed_bias_V", lineno),
        )
        v = fval(cells, "v_V", lineno)
        i = fval(cells, "id_A", lineno)
        if not groups or groups[-1][0] != key:
            groups.append((key, [], []))
        groups[-1][1].append(v)
        groups[-1][2].append(i)

    sweeps = []
    for (dev, kind, w, l, lov, cox, fb), vs, cs in groups:
        v = np.array(vs)
        i = np.array(cs)
        dv = np.diff(v)
        if len(v) >= 3 and not (np.all(dv > 0) or np.all(dv < 0)):
            # single reversal: keep the forward branch
            sgn = np.sign(dv[0])
            turn = int(np.argmax(np.sign(dv) != sgn)) + 1
            v, i = v[:turn], i[:turn]
        sweeps.append(IvSweep(
            kind=kind, device_id=dev,
            geom=DeviceGeometry(w=w * 1e-6, l=l * 1e-6, lov=lov * 1e-6),
            cox=cox * 1e-5,  # nF/cm^2 -> F/m^2
            fixed_bias=fb, v=v, i=i,
        ))
    return sweeps


def write_iv_csv(path, sweeps: list[IvSweep]) -> None:
    """Write sweeps in schema v1 with full float round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for s in sweeps:
            g = s.geom
            meta = (
                f"{s.device_id},{s.kind},{repr(g.w * 1e6)},{repr(g.l * 1e6)},"
                f"{repr(g.lov * 1e6)},{repr(s.cox * 1e5)},{repr(s.fixed_bias)}"
            )
            for v, i in zip(s.v, s.i):
                fh.write(f"{meta},{repr(float(v))},{repr(float(i))}\n")


# -- figure-of-merit extraction ---------------------------------------------


class SatFit(NamedTuple):
    mu_sat: float
    vth: float
    window: tuple[float, float]
    r2: float


def extract_saturation_mobility(s: IvSweep) -> SatFit:
    """Saturation-regime mobility and threshold from sqrt|ID| vs VGS.

    Fits a line over the contiguous 40% of points with the best linear-fit
    R^2, restricted to windows that reach into the on-state (mean |ID| above
    5% of the sweep maximum, which rejects flat-looking subthreshold spans).
    mu = 2L/(W*Cox)*slope^2; vth is the x-intercept.
    """
    if s.kind != "transfer":
        raise ExtractionError("saturation mobility needs a transfer sweep")
    sw = s.ascending
    ai = np.abs(sw.i)
    if not np.any(ai > 0.0):
        raise ExtractionError("all currents are zero")
    y = np.sqrt(ai)
    width = max(4, math.ceil(0.4 * sw.v.size))
    on = np.max(ai)
    best = None
    for start in range(0, sw.v.size - width + 1):
        if np.mean(ai[start:start + width]) < 0.05 * on:
            continue
        xs = sw.v[start:start + width]
        ys = y[start:start + width]
        sst = float(((ys - ys.mean()) ** 2).sum())
        if sst <= 0.0:
            continue
        slope, icpt = np.polyfit(xs, ys, 1)
        ssr = float(((ys - (slope * xs + icpt)) ** 2).sum())
        r2 = 1.0 - ssr / sst
        if best is None or r2 > best[3]:
            best = (start, float(slope), float(icpt), r2)
    if best is None or best[1] == 0.0:
        raise ExtractionError("no usable linear region in sqrt|ID|")
    start, slope, icpt, r2 = best
    mu = 2.0 * s.geom.l / (s.geom.w * s.cox) * slope * slope
    vth = -icpt / slope
    window = (float(sw.v[start]), float(sw.v[start + width - 1]))
    return SatFit(mu_sat=float(mu), vth=float(vth), window=window, r2=float(r2))


def extract_subthreshold_swing(s: IvSweep, floor: float = 1e-13) -> float:
    """Subthreshold swing: min over 5-point windows of dVGS/dlog10|ID|.

    Each window slope comes from regressing VGS on log10|ID|.  Requires at
    least 3 decades of current dynamic range.
    """
    if s.kind != "transfer":
        raise ExtractionError("subthreshold swing needs a transfer sweep")
    sw = s.ascending
    ai = np.abs(sw.i)
    rng = np.max(ai) / max(float(np.min(ai)), floor)
    if rng < 1e3:
        raise ExtractionError(
            f"dynamic range {rng:.3g} below the 3-decade minimum")
    mask = ai > floor
    best = math.inf
    width = 5
    for start in range(0, sw.v.size - width + 1):
        sl = slice(start, start + width)
        if not np.all(mask[sl]):
            continue
        x = np.log10(ai[sl])
        if np.ptp(x) <= 0.0:
            continue
        slope = np.polyfit(x, sw.v[sl], 1)[0]
        swing = abs(float(slope))
        if 0.0 < swing < best:
            best = swing
    if not math.isfinite(best):
        raise ExtractionError("no valid 5-point window above the noise floor")
    return best


def on_off_ratio(s: IvSweep, floor: float = 1e-13) -> float:
    """max|ID| / max(min|ID|, floor)."""
    ai = np.abs(s.i)
    return float(np.max(ai) / max(float(np.min(ai)), floor))


def gm_max_per_width(s: IvSweep) -> float:
    """Peak |dID/dVGS| of a transfer sweep divided by channel width, S/m."""
    if s.kind != "transfer":
        raise ExtractionError("gm extraction needs a transfer sweep")
    sw = s.ascending
    gm = np.gradient(sw.i, sw.v)
    return float(np.max(np.abs(gm)) / s.geom.w)


@dataclass(frozen=True)
class ExtractionReport:
    """Per-device figures of merit with fit diagnostics."""

    device_id: str
    mu_sat: float
    vth: float
    ss: float
    on_off: float
    gm_max_per_width: float
    fit_window: tuple[float, float]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.on_off >= 1.0 and self.ss > 0.0 and self.mu_sat > 0.0):
            raise ValueError("report violates on_off >= 1, ss > 0, mu_sat > 0")


def extraction_report(transfer: IvSweep, floor: float = 1e-13) -> ExtractionReport:
    """All single-sweep figures of merit for one device."""
    sat = extract_saturation_mobility(transfer)
    ss = extract_subthreshold_swing(transfer, floor=floor)
    return ExtractionReport(
        device_id=transfer.device_id,
        mu_sat=sat.mu_sat,
        vth=sat.vth,
        ss=ss,
        on_off=max(on_off_ratio(transfer, floor=floor), 1.0),
        gm_max_per_width=gm_max_per_width(transfer),
        fit_window=sat.window,
        diagnostics={"r2": sat.r2, "n_points": int(transfer.v.size),
                     "fixed_bias": float(transfer.fixed_bias)},
    )


# -- transfer-length method --------------------------------------------------


@dataclass(frozen=True)
class TlmDataset:
    """Width-normalized total resistance vs channel length at one overdrive.

    rows: (L in meters, Rtot*W in ohm*m)
    """

    v_ov: float
    rows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len({l for l, _ in self.rows}) < 3:
            raise ValueError("TLM needs >= 3 distinct channel lengths")
        for l, r in self.rows:
            if not (l > 0.0 and r > 0.0):
                raise ValueError(f"TLM row (L={l}, RW={r}) must be positive")


class TlmFit(NamedTuple):
    rc_w: float        # intercept, ohm*m
    r_sheet: float     # slope, ohm/sq
    r2: float
    suspect_intercept: bool  # set when the intercept came out negative


def tlm_contact_resistance(d: TlmDataset) -> TlmFit:
    """Ordinary least squares of Rtot*W on L; intercept Rc*W, slope sheet R."""
    l = np.array([row[0] for row in d.rows])
    rw = np.array([row[1] for row in d.rows])
    slope, icpt = np.polyfit(l, rw, 1)
    pred = slope * l + icpt
    sst = float(((rw - rw.mean()) ** 2).sum())
    ssr = float(((rw - pred) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    return TlmFit(rc_w=float(icpt), r_sheet=float(slope), r2=r2,
                  suspect_intercept=bool(icpt < 0.0))


def contact_fraction(fit: TlmFit, l: float) -> float:
    """Share of total resistance attributable to contacts at channel length l."""
    total = fit.rc_w + fit.r_sheet * l
    return fit.rc_w / total if total > 0.0 else 0.0


# -- full-card least squares fit ---------------------------------------------

FIT_FIELDS = ("mu0", "vth", "ss", "lam", "gamma", "rc")

_BOUNDS = {
    "mu0": (1e-9, 1.0),
    "vth": (-100.0, 100.0),
    "ss": (1e-3, 10.0),
    "lam": (0.0, 10.0),
    "gamma": (0.0, 5.0),
    "rc": (0.0, 1e12),
}

# Levenberg-Marquardt constants of ``fit_model``
I_SCALE = 1e-9          # asinh knee current, A
MAX_ITERS = 200
LM_LAMBDA0 = 1e-3       # starting damping
LM_FACTOR = 10.0        # damping multiplier on a rejected step, divisor on an accepted one
LM_LAMBDA_MAX = 1e14    # damping at which the search gives up on the iteration
FTOL = 1e-10            # relative cost decrease counted as converged


@dataclass(frozen=True)
class FitResult:
    params: OtftParams
    cost: float
    rms_frac: float      # asinh-residual RMS over asinh-signal RMS
    iterations: int
    converged: bool
    message: str = ""
    cost_history: tuple = ()  # cost after the start and each accepted step
    at_bound: tuple = ()      # fitted parameters that end on a bound


def _sweep_bias(s: IvSweep):
    if s.kind == "transfer":
        return s.v, np.full(s.v.size, s.fixed_bias)
    return np.full(s.v.size, s.fixed_bias), s.v


class _Group(NamedTuple):
    """The sweeps of one (geometry, cox) as one bias batch."""

    geom: DeviceGeometry
    cox: float
    vg: np.ndarray
    vd: np.ndarray
    i: np.ndarray


def _bias_groups(sweeps) -> list[_Group]:
    """Concatenate sweeps sharing geometry and cox, in first-seen order."""
    parts: dict[tuple, list] = {}
    for s in sweeps:
        parts.setdefault((s.geom, s.cox), []).append((*_sweep_bias(s), s.i))
    return [_Group(geom, cox, *(np.concatenate(col) for col in zip(*rows)))
            for (geom, cox), rows in parts.items()]


def _residuals(params: OtftParams, groups, i_scale: float):
    """asinh residuals over the groups and the model currents behind them.

    Each group takes one contact-resistance solve over its whole batch.
    """
    im = np.concatenate([
        model.drain_current_with_contacts(params.replace(geom=g.geom, cox=g.cox),
                                          g.vg, g.vd)
        for g in groups])
    meas = np.concatenate([g.i for g in groups])
    return np.arcsinh(im / i_scale) - np.arcsinh(meas / i_scale), im


def _jacobian(params: OtftParams, fields, groups, im, i_scale: float) -> np.ndarray:
    """Exact d(residual)/d(field) at the point whose model currents are ``im``.

    Each current solves I = f(vg - I*rc/2, vd - I*rc; theta).  Implicit
    differentiation gives dI/dtheta = f_theta / (1 + rc*(gm/2 + gds)), with
    f and its derivatives taken by one kernel call at the internal bias;
    rc acts through the bias alone, so f_rc = -I*(gm/2 + gds).  The chain
    rule through asinh(I/i_scale) divides each row by hypot(I, i_scale).
    """
    cols = []
    start = 0
    for g in groups:
        p = params.replace(geom=g.geom, cox=g.cox)
        i = im[start:start + g.vg.size]
        start += g.vg.size
        f = model.sensitivities(p, g.vg - i * (0.5 * p.rc), g.vd - i * p.rc)
        gc = 0.5 * f[1] + f[2]
        df = {"mu0": i / p.mu0, "vth": -f[1], "ss": f[3], "gamma": f[4],
              "lam": f[5], "rc": -i * gc}
        cols.append(np.stack([df[k] for k in fields], axis=1)
                    / (1.0 + p.rc * gc)[:, None])
    return np.concatenate(cols) / np.hypot(im, i_scale)[:, None]


def initial_guess(sweeps, polarity: str, vth: float | None) -> OtftParams:
    """Documented starting point: saturation fit seeds mu0 and Vth, swing
    seeds SS; Rc = 0, lambda = 0.01, gamma = 0."""
    transfer = next(s for s in sweeps if s.kind == "transfer")
    sat = extract_saturation_mobility(transfer)
    try:
        ss0 = extract_subthreshold_swing(transfer)
    except ExtractionError:
        ss0 = 0.3
    return OtftParams(
        polarity=polarity,
        mu0=max(sat.mu_sat, _BOUNDS["mu0"][0]),
        vth=vth if vth is not None else sat.vth,
        ss=min(max(ss0, _BOUNDS["ss"][0]), _BOUNDS["ss"][1]),
        lam=0.01,
        gamma=0.0,
        rc=0.0,
        cox=transfer.cox,
        geom=transfer.geom,
    )


def fit_model(sweeps: list[IvSweep], polarity: str = "p",
              vth: float | None = None) -> FitResult:
    """Fit {mu0, rc, ss, lambda, gamma} (+ vth unless fixed) to the sweeps.

    Levenberg-Marquardt on asinh-scaled residuals, with Marquardt's
    diagonal scaling: the damping is multiplied by 10 on a rejected step
    and divided by 10 on an accepted one.  Sweeps sharing geometry and cox
    form one bias batch, so a residual pass makes one contact-resistance
    solve per batch.  The Jacobian is exact: one kernel call per batch at
    the accepted point, differentiated implicitly through the contact
    solve (see ``_jacobian``).  A parameter on its bound whose descent
    direction points out of the box is held for that iteration (its column
    is zeroed); every other step is clipped to the bounds.  Converges on
    two successive accepted steps that lower the cost by at most ``FTOL``
    relative, or on a rejected step whose linearized gain is at most
    ``FTOL`` relative (more damping cannot gain more); stagnates when no
    damping gives a lower cost.  Raises FitError with the best-so-far
    result if ``MAX_ITERS`` iterations pass without convergence.
    """
    if not any(s.kind == "transfer" for s in sweeps):
        raise ExtractionError("fit needs at least one transfer sweep")
    if not any(s.kind == "output" for s in sweeps):
        raise ExtractionError("fit needs at least one output sweep")
    fields = [f for f in FIT_FIELDS if not (f == "vth" and vth is not None)]
    params = initial_guess(sweeps, polarity, vth)
    groups = _bias_groups(sweeps)
    lo = np.array([_BOUNDS[f][0] for f in fields])
    hi = np.array([_BOUNDS[f][1] for f in fields])

    sig = np.concatenate([np.arcsinh(s.i / I_SCALE) for s in sweeps])
    sig_rms = math.sqrt(float(np.mean(sig ** 2))) or 1.0

    def with_vec(vec):
        return params.replace(**{f: float(vec[j]) for j, f in enumerate(fields)})

    vec = np.clip(np.array([getattr(params, f) for f in fields]), lo, hi)
    r, im = _residuals(with_vec(vec), groups, I_SCALE)
    cost = float(r @ r)
    lam_lm = LM_LAMBDA0
    small_steps = 0
    iterations = 0
    history = [cost]

    def result(converged, msg):
        return FitResult(
            params=with_vec(vec), cost=cost,
            rms_frac=math.sqrt(cost / r.size) / sig_rms,
            iterations=iterations, converged=converged, message=msg,
            cost_history=tuple(history),
            at_bound=tuple(f for j, f in enumerate(fields)
                           if vec[j] <= lo[j] or vec[j] >= hi[j]),
        )

    for iterations in range(1, MAX_ITERS + 1):
        jac = _jacobian(with_vec(vec), fields, groups, im, I_SCALE)
        jtr = jac.T @ r
        # hold each parameter on a bound that the descent direction -jtr leaves
        held = np.flatnonzero(((vec <= lo) & (jtr > 0.0)) | ((vec >= hi) & (jtr < 0.0)))
        jac[:, held] = 0.0
        jtr[held] = 0.0
        jtj = jac.T @ jac
        jtj[held, held] = 1.0
        diag = np.maximum(np.diag(jtj), 1e-300)
        accepted = False
        while lam_lm <= LM_LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam_lm * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam_lm *= LM_FACTOR
                continue
            trial = np.clip(vec + step, lo, hi)
            rt, it = _residuals(with_vec(trial), groups, I_SCALE)
            ct = float(rt @ rt)
            if ct < cost:
                gain = cost - ct
                vec, r, im, cost = trial, rt, it, ct
                history.append(cost)
                lam_lm = max(lam_lm / LM_FACTOR, 1e-14)
                accepted = True
                small_steps = small_steps + 1 if gain <= FTOL * max(cost, 1e-300) else 0
                break
            dv = trial - vec
            if -(dv @ (2.0 * jtr + jtj @ dv)) <= FTOL * cost:
                # more damping only shrinks the step, so no step can gain more
                return result(True, "converged: predicted gain below ftol")
            lam_lm *= LM_FACTOR
        if not accepted:
            return result(True, "stagnated: no decreasing step")
        if small_steps >= 2:
            return result(True, "converged")
    raise FitError(f"no convergence in {MAX_ITERS} iterations",
                   best=result(False, "iteration budget exhausted"))


# -- population statistics ----------------------------------------------------


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    log_bins: bool = False


@dataclass(frozen=True)
class BatchSummary:
    count: int
    metrics: dict  # name -> MetricStats


def batch_statistics(reports: list[ExtractionReport]) -> BatchSummary:
    """Mean, population std and histogram per metric (log bins for on/off)."""
    if not reports:
        raise ValueError("need at least one report")
    out = {}
    for name in ("mu_sat", "vth", "ss", "on_off", "gm_max_per_width"):
        vals = np.array([getattr(rp, name) for rp in reports], dtype=float)
        log_bins = name == "on_off"
        data = np.log10(vals) if log_bins else vals
        # near-identical values would make 12 finite-width bins impossible
        if data.size == 1 or np.ptp(data) <= 1e-12 * max(np.abs(data).max(), 1.0):
            counts, edges = np.histogram(data, bins=1)
        else:
            counts, edges = np.histogram(data, bins=12)
        if log_bins:
            edges = 10.0 ** edges
        out[name] = MetricStats(
            mean=float(vals.mean()), std=float(vals.std()),
            bin_edges=tuple(float(e) for e in edges),
            counts=tuple(int(c) for c in counts),
            log_bins=log_bins,
        )
    return BatchSummary(count=len(reports), metrics=out)
