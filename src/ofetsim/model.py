"""Compact DC model for organic field-effect transistors.

A single smooth equation covers subthreshold, triode and saturation for both
polarities.  The gate overdrive is softened with a softplus whose width is
set by the subthreshold swing, effective mobility follows a power law of the
overdrive, and the triode-to-saturation transition uses a smooth clamp of
order ``order``.  Channel-length modulation multiplies the whole expression.

Sign conventions: drain current is positive into the drain for n-type and
negative for p-type devices.  ``transconductance`` and ``output_conductance``
are derivatives of that signed current, so both are positive for a conducting
device of either polarity.

``apply_strain`` scales a card by the piecewise-linear strain response of
``data/strain_table.json``, which ``load_strain_table`` returns as the file
keys it, by (quantity, orientation).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import kernels

class ParameterError(ValueError):
    """Physically invalid device or strain parameters."""


class ContactSolveError(ArithmeticError):
    """drain_current_with_contacts did not converge within its budget."""


@dataclass(frozen=True)
class DeviceGeometry:
    """Channel width, length and gate/contact overlap length, in meters."""

    w: float
    l: float
    lov: float = 0.0

    def __post_init__(self):
        if not (self.w > 0.0 and self.l > 0.0):
            raise ParameterError(f"geometry needs positive W and L, got {self.w}, {self.l}")
        if self.lov < 0.0:
            raise ParameterError(f"overlap length must be >= 0, got {self.lov}")


@dataclass(frozen=True)
class OtftParams:
    """Complete parameter card for one device.

    mu0    low-field mobility prefactor, m^2/(V s)
    vth    threshold voltage, V (negative for typical p-type enhancement)
    ss     subthreshold swing, V/decade
    lam    channel-length modulation, 1/V
    gamma  mobility enhancement exponent (dimensionless, >= 0)
    rc     total width-dependent contact resistance, ohm (split evenly
           between source and drain when contacts are modeled)
    cox    areal gate capacitance, F/m^2
    order  smoothness order of the triode-to-saturation clamp
    """

    polarity: str
    mu0: float
    vth: float
    ss: float
    lam: float
    gamma: float
    rc: float
    cox: float
    geom: DeviceGeometry
    order: float = 3.0

    def __post_init__(self):
        if self.polarity not in ("p", "n"):
            raise ParameterError(f"polarity must be 'p' or 'n', got {self.polarity!r}")
        if not self.mu0 > 0.0:
            raise ParameterError(f"mu0 must be positive, got {self.mu0}")
        if not self.ss > 0.0:
            raise ParameterError(f"subthreshold swing must be positive, got {self.ss}")
        if self.lam < 0.0:
            raise ParameterError(f"channel-length modulation must be >= 0, got {self.lam}")
        if self.gamma < 0.0:
            raise ParameterError(f"mobility exponent must be >= 0, got {self.gamma}")
        if self.rc < 0.0:
            raise ParameterError(f"contact resistance must be >= 0, got {self.rc}")
        if not self.cox > 0.0:
            raise ParameterError(f"areal capacitance must be positive, got {self.cox}")
        if not self.order >= 1.0:
            raise ParameterError(f"saturation order must be >= 1, got {self.order}")
        if not math.isfinite(self.vth):
            raise ParameterError(f"threshold must be finite, got {self.vth}")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "n" else -1.0

    def replace(self, **changes) -> "OtftParams":
        return dataclasses.replace(self, **changes)


def kernel_args(p: OtftParams) -> tuple:
    """The card arguments of kernels.otft_eval after vgs and vds, in order:
    sign, W/L * cox, mu0, sign * vth, ss, gamma, lam, order."""
    return (p.sign, p.geom.w / p.geom.l * p.cox, p.mu0, p.sign * p.vth,
            p.ss, p.gamma, p.lam, p.order)


def _bias(vgs, vds) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Flat float64 arrays of the broadcast biases, and their shape."""
    vg = np.asarray(vgs, dtype=float)
    vd = np.asarray(vds, dtype=float)
    if not (np.all(np.isfinite(vg)) and np.all(np.isfinite(vd))):
        raise ValueError("bias voltages must be finite")
    vg, vd = np.broadcast_arrays(vg, vd)
    return (np.ascontiguousarray(vg.ravel()), np.ascontiguousarray(vd.ravel()),
            vg.shape)


def _card_args(p: OtftParams, n: int) -> tuple:
    """kernel_args(p) for a batch of n biases, the exponents gamma and order
    as arrays: see kernels.otft_eval."""
    sign, kwl, mu0, vthn, ss, gamma, lam, order = kernel_args(p)
    return sign, kwl, mu0, vthn, ss, np.full(n, gamma), lam, np.full(n, order)


def _eval_batch(p: OtftParams, vgs, vds, rows: int = 3) -> tuple[np.ndarray, tuple]:
    vg, vd, shape = _bias(vgs, vds)
    out = kernels.otft_eval(vg, vd, *_card_args(p, vg.size), out=np.empty((rows, vg.size)))
    return out, shape


def _shaped(row: np.ndarray, shape: tuple):
    if shape == ():
        return float(row[0])
    return row.reshape(shape)


def drain_current(p: OtftParams, vgs, vds):
    """Intrinsic (contact-free) drain current at the given bias."""
    out, shape = _eval_batch(p, vgs, vds)
    return _shaped(out[0], shape)


def transconductance(p: OtftParams, vgs, vds):
    """Analytic d(id)/d(vgs) at fixed vds."""
    out, shape = _eval_batch(p, vgs, vds)
    return _shaped(out[1], shape)


def output_conductance(p: OtftParams, vgs, vds):
    """Analytic d(id)/d(vds) at fixed vgs."""
    out, shape = _eval_batch(p, vgs, vds)
    return _shaped(out[2], shape)


def sensitivities(p: OtftParams, vgs, vds) -> np.ndarray:
    """Intrinsic current and its derivatives as a (6, n) array over flat biases.

    Rows: drain current, d/d(vgs), d/d(vds), d/d(ss), d/d(gamma), d/d(lam).
    The current depends on mu0 linearly and on vth through vgs - vth, so
    d/d(mu0) = id/mu0 and d/d(vth) = -d/d(vgs) need no row of their own.
    """
    return _eval_batch(p, vgs, vds, rows=6)[0]


# iteration budget of drain_current_with_contacts
CONTACT_MAX_ITERS = 100
# the smallest normal double: below it a current has no relative precision
_TINY = np.finfo(float).tiny


def drain_current_with_contacts(p: OtftParams, vgs, vds, start=None):
    """Drain current with rc split as two series contact resistors.

    Solves id = f(vgs - id*rc/2, vds - id*rc) for every bias of the arrays
    at once, by Newton on the current kept inside a root bracket (rtsafe:
    Press et al., Numerical Recipes, 3rd ed., 2007, 9.4).  The current has
    the sign of the internal vds and is 0 where that is, so each root lies
    between 0 and vds/rc.  Each iterate narrows its bias's bracket by the
    sign of the residual there; a Newton step that lands outside the
    bracket is replaced by the bracket's midpoint.  The kernel's card
    arrays and ``kernels.card_constants`` are built once per call.

    The iteration starts from ``start``, currents over the biases, flat or
    in their shape (a nearby card's solution: ``extract.fit_model`` passes
    the accepted card's), or without it from the intrinsic current at the
    external bias; either is clipped into the bracket.  It stops when the
    largest update is at most 1e-14 (1 + max |id|) A and each bias's update
    at most 1e-10 |id| (plus the smallest normal double).  The Newton step
    just taken then leaves each current within 1e-12 relative of its root,
    or within what the rounding of the internal biases resolves.  A solve
    that has not stopped after ``CONTACT_MAX_ITERS`` iterations raises
    ContactSolveError, naming the bias with the largest last update; it
    never returns an unchecked current, and ``ofetsim fit`` exits 3 on it.
    """
    vg, vd, shape = _bias(vgs, vds)
    args = _card_args(p, vg.size)
    card = kernels.card_constants(args[2], args[4], args[5], args[7])
    out = np.empty((3, vg.size))
    if p.rc == 0.0:
        return _shaped(kernels.otft_eval(vg, vd, *args, out=out, card=card)[0], shape)
    rs = 0.5 * p.rc
    end = vd / p.rc
    lo = np.minimum(end, 0.0)   # g(lo) >= 0 >= g(hi) for g(i) = f - i
    hi = np.maximum(end, 0.0)
    if start is None:
        start = kernels.otft_eval(vg, vd, *args, out=out, card=card)[0]
    i = np.clip(np.ravel(start), lo, hi)
    for _ in range(CONTACT_MAX_ITERS):
        out = kernels.otft_eval(vg - i * rs, vd - i * p.rc, *args, out=out, card=card)
        g = out[0] - i
        lo = np.where(g > 0.0, i, lo)
        hi = np.where(g < 0.0, i, hi)
        # -dg/di = 1 + rc (gm/2 + gds) >= 1: gm and gds are >= 0, and where
        # drain and source swap, the rows are -gm and gm + gds
        step = g / (out[1] * rs + out[2] * p.rc + 1.0)
        new = i + step
        inside = (new >= lo) & (new <= hi)   # False for NaN
        if not inside.all():
            mid = 0.5 * (lo + hi)
            step = np.where(inside, step, mid - i)
            new = np.where(inside, new, mid)
        i = new
        size = np.abs(step)
        if (size.max() <= 1e-14 * (1.0 + np.abs(i).max())
                and (size <= 1e-10 * np.abs(i) + _TINY).all()):
            return _shaped(i, shape)
    k = int(np.argmax(np.abs(step)))
    raise ContactSolveError(
        f"contact solve did not converge in {CONTACT_MAX_ITERS} iterations at "
        f"vgs={float(vg[k])!r} V, vds={float(vd[k])!r} V (rc={p.rc!r} ohm, last update "
        f"{step[k]:.3g} A)")


def device_capacitances(p: OtftParams) -> tuple[float, float]:
    """Constant (cgs, cgd) in F: half-channel plus overlap plate caps."""
    c = p.cox * p.geom.w * (0.5 * p.geom.l + p.geom.lov)
    return c, c


# -- strain response ---------------------------------------------------------


@dataclass(frozen=True)
class StrainState:
    """Uniaxial strain applied to a device.

    ``epsilon`` is the engineering strain (0.5 means stretched by 50%);
    ``orientation`` states how the channel (source-to-drain axis) lies
    relative to the strain axis: "parallel" or "perpendicular".
    """

    epsilon: float
    orientation: str = "parallel"

    def __post_init__(self):
        if self.epsilon < 0.0 or not math.isfinite(self.epsilon):
            raise ParameterError(f"strain must be finite and >= 0, got {self.epsilon}")
        if self.orientation not in ("parallel", "perpendicular"):
            raise ParameterError(f"unknown strain orientation {self.orientation!r}")


@functools.cache
def load_strain_table() -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """The package's strain response table (``data/strain_table.json``), read once.

    Returns the file's piecewise-linear curves as ``{(quantity, orientation):
    (strains, values)}``: ``length_scale`` is the relative elongation of a
    dimension lying along ("parallel") or across ("perpendicular") the strain
    axis, ``mobility_retention`` the mobility multiplier of a channel lying
    parallel or perpendicular to it.  Values beyond the last breakpoint hold flat.
    """
    text = resources.files("ofetsim").joinpath("data/strain_table.json").read_text(
        encoding="utf-8")
    raw = json.loads(text)
    if raw.get("version") != 1:
        raise ParameterError(f"unsupported strain table version {raw.get('version')!r}")
    curves = {}
    for quantity in ("length_scale", "mobility_retention"):
        for orientation in ("parallel", "perpendicular"):
            pts = raw[quantity][orientation]
            if len(pts) < 2:
                raise ParameterError(f"strain curve {quantity}.{orientation} needs >= 2 points")
            curves[quantity, orientation] = tuple(np.array(pts, dtype=float).T.copy())
    return curves


def apply_strain(p: OtftParams, strain: StrainState) -> OtftParams:
    """Device card under uniaxial strain.

    Channel length and overlap stretch with the dimension multiplier along
    the channel axis; width follows the multiplier across it.  Mobility is
    scaled by the orientation-resolved retention curve.  Zero strain returns
    a card with bit-identical values.
    """
    curves = load_strain_table()
    eps = strain.epsilon
    along = 1.0 + float(np.interp(eps, *curves["length_scale", "parallel"]))
    across = 1.0 + float(np.interp(eps, *curves["length_scale", "perpendicular"]))
    fl, fw = (along, across) if strain.orientation == "parallel" else (across, along)
    mobility = float(np.interp(eps, *curves["mobility_retention", strain.orientation]))
    geom = DeviceGeometry(w=p.geom.w * fw, l=p.geom.l * fl, lov=p.geom.lov * fl)
    return p.replace(geom=geom, mu0=p.mu0 * mobility)
