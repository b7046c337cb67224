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
from itertools import islice
from operator import itemgetter, ne
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    fixed_bias  the non-swept terminal voltage, V; finite
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
        if "\n" in self.device_id or "\r" in self.device_id:
            raise ValueError(f"device id may not hold a line break, got {self.device_id!r}")
        if not math.isfinite(self.fixed_bias):
            raise ValueError(f"fixed bias must be finite, got {self.fixed_bias}")
        v = np.asarray(self.v, dtype=float)
        i = np.asarray(self.i, dtype=float)
        if v.ndim != 1 or v.shape != i.shape:
            raise ValueError("v and i must be 1-d arrays of equal length")
        if v.size < 8:
            raise ValueError(f"sweep needs >= 8 points, got {v.size}")
        dv = v[1:] - v[:-1]
        if not ((dv > 0.0).all() or (dv < 0.0).all()):
            raise ValueError("swept voltage must be strictly monotone")
        if not (np.isfinite(v).all() and np.isfinite(i).all()):
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
_KINDS = ("transfer", "output")
_NUMBERS = CSV_COLUMNS[2:]   # in the order a row's cells are checked


def read_iv_csv(path, device: str | None = None) -> list[IvSweep]:
    """Read sweeps from a schema-v1 measurement CSV.

    Rows are grouped into sweeps whenever device_id, kind, geometry or fixed
    bias changes.  A single up-down (hysteresis) pass is split and the
    forward branch kept; a second direction reversal is an error at the row
    where it starts.  Raises SchemaError with a line number on malformed
    input.  The first error found wins, checked in this order: the header
    (missing, unknown, then repeated columns); the first row with the wrong
    cell count; the first bad kind or number in row order, a row's cells in
    CSV_COLUMNS order; then each sweep in file order (a second reversal,
    cox, W and L, LOV, then the IvSweep checks).

    The file is read in one pass: one csv.reader per chunk of kept lines, the
    v and id columns converted whole, each row key converted only where its
    text changes, and sweep boundaries where adjacent rows' keys differ.

    With ``device``, only the rows whose stripped device_id cell equals it
    are checked and converted, and the sweeps are those the full read gives
    for that device: a row of another device between two of its rows still
    ends a sweep.  Other devices' rows are not checked.
    """
    lines: list[int] = []
    seats: list[int] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        kept = _kept_lines(fh, lines, seats, device)
        while texts := list(islice(kept, _CHUNK_LINES)):
            rows.extend(_csv_rows(texts, lines[-len(texts):]))
    if not rows:
        raise SchemaError("empty file: no header row")
    header = [c.strip() for c in rows[0]]
    _check_header(header, lines[0])
    del rows[0], lines[0], seats[:1]   # seats is empty without a device
    blocks = None
    if device is not None:
        d = header.index("device_id")
        keep = [k for k, r in enumerate(rows) if len(r) > d and r[d].strip() == device]
        rows, lines = [rows[k] for k in keep], [lines[k] for k in keep]
        # rows of one block are adjacent among all the file's rows
        blocks = [seats[k] - j for j, k in enumerate(keep)]
    if not rows:
        return []
    if set(map(len, rows)) - {len(header)}:
        k = next(k for k, r in enumerate(rows) if len(r) != len(header))
        raise SchemaError(f"expected {len(header)} cells, got {len(rows[k])}", lines[k])
    return _sweeps(rows, {c: header.index(c) for c in CSV_COLUMNS}, lines, blocks)


# kept lines parsed by one csv.reader; only one chunk's text is held at once
_CHUNK_LINES = 1024


def _csv_rows(texts: list[str], lines: list[int]) -> list[list[str]]:
    """The one row of each line: the lines parsed jointly unless a row runs
    on past its line (a quote left open), then each line on its own."""
    try:
        rows = list(csv.reader(texts))
    except csv.Error:   # a quote left open can run a field past the size limit
        rows = []
    if len(rows) == len(texts):
        return rows
    rows = []
    for t, line in zip(texts, lines):
        try:
            rows.append(next(csv.reader([t])))
        except csv.Error as e:   # a cell past csv's field size limit
            raise SchemaError(str(e), line) from None
    return rows


def _kept_lines(fh, lines: list[int], seats: list[int], device: str | None):
    """Stripped text of each line that is neither blank nor a comment; its
    line number is appended to ``lines``.

    With ``device``, only the first such line (the header) and the lines
    that may hold a row of that device are kept, and each kept line's place
    among all such lines is appended to ``seats``.  A cell's text is a
    substring of its line unless the line holds a quote (``"de"v1`` reads
    as dev1), so a line is kept if it holds the id or a quote.
    """
    seat = 0
    for n, raw in enumerate(fh, start=1):
        text = raw.strip()
        if text and text[0] != "#":
            seat += 1
            if device is None:
                lines.append(n)
                yield text
            elif seat == 1 or device in text or '"' in text:
                lines.append(n)
                seats.append(seat)
                yield text


def _check_header(header: list[str], line: int) -> None:
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"missing column(s) {', '.join(missing)}", line)
    unknown = [c for c in header if c not in CSV_COLUMNS]
    if unknown:
        raise SchemaError(f"unknown column(s) {', '.join(unknown)}", line)
    repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
    if repeated:
        raise SchemaError(f"repeated column(s) {', '.join(repeated)}", line)


def _first_bad_cell(rows, idx: dict, lines: list[int]) -> SchemaError:
    """The error of the first bad kind or number in row order, a row's cells
    checked in CSV_COLUMNS order.

    The row-by-row diagnostic pass, run only after a conversion failed, to
    name the cell.
    """
    for cells, line in zip(rows, lines):
        kind = cells[idx["kind"]].strip().lower()
        if kind not in _KINDS:
            return SchemaError(f"column kind: must be transfer or output, got {kind!r}", line)
        for col in _NUMBERS:
            text = cells[idx[col]].strip()
            try:
                float(text)
            except ValueError:
                return SchemaError(f"column {col}: not a number: {text!r}", line)
    raise AssertionError("a conversion failed but every cell converts")


def _sweeps(rows: list[list[str]], idx: dict, lines: list[int],
            blocks: list[int] | None = None) -> list[IvSweep]:
    """Split the data rows into sweeps and check each one.  ``blocks``, if
    given, numbers each row's block; no sweep spans two blocks."""
    n = len(rows)
    # the key cells (device_id, kind, W_um ... fixed_bias_V) of each row, and
    # its block; a sweep can start only where they differ as text from the
    # row before, and the key there is stripped and converted once for its run
    keys = list(map(itemgetter(*(idx[c] for c in CSV_COLUMNS[:7])), rows))
    if blocks is not None:
        keys = [(*k, b) for k, b in zip(keys, blocks)]
    runs = [0, *(np.flatnonzero(np.fromiter(
        map(ne, islice(keys, 1, None), keys), bool, n - 1)) + 1).tolist()]
    try:
        norm = [(k[0].strip(), k[1].strip().lower(), *(float(c.strip()) for c in k[2:7]),
                 *k[7:]) for k in map(keys.__getitem__, runs)]
        v, i = (np.fromiter(map(float, map(str.strip, map(itemgetter(idx[c]), rows))),
                            float, n) for c in ("v_V", "id_A"))
    except ValueError:
        norm = None
    if norm is None or any(k[1] not in _KINDS for k in norm):
        raise _first_bad_cell(rows, idx, lines)
    starts = []   # (first row, key) of each sweep
    for k, a in enumerate(runs):
        if k == 0 or norm[k] != norm[k - 1]:
            starts.append((a, norm[k]))

    sweeps = []
    ends = [a for a, _ in starts[1:]] + [n]
    for (a, (dev, kind, w, l, lov, cox, fb, *_)), b in zip(starts, ends):
        vs, cs, first = v[a:b], i[a:b], lines[a]
        dv = vs[1:] - vs[:-1]
        if vs.size >= 3 and not ((dv > 0).all() or (dv < 0).all()):
            # single reversal: keep the forward branch
            sgn = np.sign(dv[0])
            turn = int(np.argmax(np.sign(dv) != sgn)) + 1
            back = np.nonzero(np.sign(dv[turn:]) == sgn)[0]
            if back.size:
                raise SchemaError(f"{kind} sweep of {dev!r}: second direction "
                                  "reversal; split the sweep", lines[a + turn + back[0]])
            vs, cs = vs[:turn], cs[:turn]
        for col, x in (("cox_nF_cm2", cox), ("W_um", w), ("L_um", l)):
            if not x > 0.0:
                raise SchemaError(f"column {col}: must be positive, got {x}", first)
        if not lov >= 0.0:
            raise SchemaError(f"column LOV_um: must be >= 0, got {lov}", first)
        try:   # a tiny positive W_um or L_um can still underflow to 0 m
            geom = DeviceGeometry(w=w * 1e-6, l=l * 1e-6, lov=lov * 1e-6)
            sweeps.append(IvSweep(kind=kind, device_id=dev, geom=geom,
                                  cox=cox * 1e-5,  # nF/cm^2 -> F/m^2
                                  fixed_bias=fb, v=vs, i=cs))
        except ValueError as e:
            raise SchemaError(f"{kind} sweep of {dev!r}: {e}", first) from None
    return sweeps


def write_iv_csv(path, sweeps: list[IvSweep]) -> None:
    """Write sweeps in schema v1 with Python's csv module (QUOTE_MINIMAL)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_COLUMNS)
        for s in sweeps:
            g = s.geom
            meta = (s.device_id, s.kind, g.w * 1e6, g.l * 1e6, g.lov * 1e6,
                    s.cox * 1e5, s.fixed_bias)
            out.writerows((*meta, v, i) for v, i in zip(s.v.tolist(), s.i.tolist()))


# -- figure-of-merit extraction ---------------------------------------------


class SatFit(NamedTuple):
    mu_sat: float
    vth: float
    window: tuple[float, float]
    r2: float


def _window_lines(x: np.ndarray, y: np.ndarray, width: int):
    """Least-squares lines of y on x over every run of ``width`` points.

    All windows in one pass, by centered sums about each window's means
    (slope = sum(dx*dy) / sum(dx*dx)), which do not cancel as running sums
    would.  Returns per window the slope, the intercept, and the residual
    and total sums of squares of y.
    """
    xw = sliding_window_view(x, width)
    yw = sliding_window_view(y, width)
    xm = xw.mean(axis=1)
    ym = yw.mean(axis=1)
    dx = xw - xm[:, None]
    dy = yw - ym[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    res = dy - slope[:, None] * dx
    return slope, ym - slope * xm, (res * res).sum(axis=1), (dy * dy).sum(axis=1)


def extract_saturation_mobility(s: IvSweep) -> SatFit:
    """Saturation-regime mobility and threshold from sqrt|ID| vs VGS.

    Fits a line over the contiguous 40% of points with the best linear-fit
    R^2, restricted to windows that reach into the on-state (mean |ID| above
    5% of the sweep maximum, which rejects flat-looking subthreshold spans).
    Every window is fitted by centered least squares (``_window_lines``);
    the first window with the largest R^2 wins.  mu = 2L/(W*Cox)*slope^2;
    vth is the x-intercept.
    """
    if s.kind != "transfer":
        raise ExtractionError("saturation mobility needs a transfer sweep")
    sw = s.ascending
    ai = np.abs(sw.i)
    if not np.any(ai > 0.0):
        raise ExtractionError("all currents are zero")
    width = max(4, math.ceil(0.4 * sw.v.size))
    on = np.max(ai)
    slope, icpt, ssr, sst = _window_lines(sw.v, np.sqrt(ai), width)
    usable = (sliding_window_view(ai, width).mean(axis=1) >= 0.05 * on) & (sst > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(usable, 1.0 - ssr / sst, -np.inf)
    start = int(np.argmax(r2))
    if not usable[start] or slope[start] == 0.0:
        raise ExtractionError("no usable linear region in sqrt|ID|")
    mu = 2.0 * s.geom.l / (s.geom.w * s.cox) * slope[start] * slope[start]
    vth = -icpt[start] / slope[start]
    window = (float(sw.v[start]), float(sw.v[start + width - 1]))
    return SatFit(mu_sat=float(mu), vth=float(vth), window=window, r2=float(r2[start]))


def extract_subthreshold_swing(s: IvSweep, floor: float = 1e-13) -> float:
    """Subthreshold swing: min over 5-point windows of dVGS/dlog10|ID|.

    Each window slope comes from regressing VGS on log10|ID|, every window
    by centered least squares (``_window_lines``); windows that reach down
    to the floor or have no spread in log10|ID| are skipped.  Requires at
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
    width = 5
    above = ai > floor
    x = np.log10(np.where(above, ai, 1.0))
    swing = np.abs(_window_lines(x, sw.v, width)[0])
    ok = (sliding_window_view(above, width).all(axis=1)
          & (np.ptp(sliding_window_view(x, width), axis=1) > 0.0) & (swing > 0.0))
    if not np.any(ok):
        raise ExtractionError("no valid 5-point window above the noise floor")
    return float(np.min(swing[ok]))


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
    slope, icpt, ssr, sst = (float(a[0]) for a in _window_lines(l, rw, l.size))
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    return TlmFit(rc_w=icpt, r_sheet=slope, r2=r2,
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
    lo, hi = _BOUNDS["vth"]
    # written so that NaN fails: every comparison with NaN is False
    if vth is not None and not lo <= vth <= hi:
        raise model.ParameterError(f"held vth must be within [{lo:g}, {hi:g}] V, got {vth!r}")
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
