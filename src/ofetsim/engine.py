"""Modified nodal analysis: DC operating point, DC sweeps, transient.

The solver assembles node-voltage KCL equations augmented with one branch
current per voltage source.  Transistors stamp their analytic conductances;
contact resistance is elaborated as two internal-node series resistors of
rc/2.  Each circuit is elaborated once into a stamp table: flat matrix and
right-hand-side indices with sign patterns for conductors, voltage-source
incidence, capacitor companions, the six transistor Jacobian entries and the
drain-current injection, plus the node incidence of every branch current for
the residual scale.  A Newton iteration applies it in three scatters and
converges when the last node update is below vntol and every KCL residual is
within abstol + reltol * (sum of |branch currents| at the node), or
vntol + reltol * |V| on a voltage-source row.  DC falls back from plain damped
Newton to a gmin ladder (1e-3 S down to gmin), then to source stepping (0.1 to
1.0); transient uses backward Euler or trapezoidal companions with
step-doubling error control.

Waveforms serialize to CSV and to a compact little-endian binary table; both
writers are bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .model import OtftParams, StrainState, apply_strain, device_capacitances
from .netlist import Circuit, DcSweep, Element, Tran, card_with


class ConvergenceError(Exception):
    """Newton iteration failed after all fallbacks; carries context."""

    def __init__(self, message: str, residual: float | None = None,
                 at: float | None = None):
        self.residual = residual
        self.at = at
        super().__init__(message)


@dataclass(frozen=True)
class SolverConfig:
    abstol: float = 1e-12        # KCL residual floor, A
    reltol: float = 1e-4
    vntol: float = 1e-6          # Newton update floor, V
    max_newton_iters: int = 100
    gmin: float = 1e-12          # permanent transistor shunt, S
    damping: float = 0.5         # max node-voltage update per iteration, V
    method: str = "trap"         # "trap" | "be"
    lte_tol: float = 1e-4
    min_step: float = 1e-15
    max_step: float | None = None
    fixed_step: bool = False     # integrate exactly at the directive step

    def __post_init__(self):
        if min(self.abstol, self.reltol, self.vntol, self.gmin,
               self.damping, self.lte_tol, self.min_step) <= 0.0:
            raise ValueError("all solver tolerances must be positive")
        if self.method not in ("trap", "be"):
            raise ValueError(f"method must be trap or be, got {self.method!r}")


@dataclass(frozen=True, eq=False)
class Waveform:
    """Column-oriented record over a strictly increasing axis."""

    axis_name: str
    axis: np.ndarray
    columns: dict[str, np.ndarray]
    label: str = ""

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.ndim != 1 or (axis.size > 1 and not np.all(np.diff(axis) > 0.0)):
            raise ValueError("axis must be 1-d and strictly increasing")
        cols = {}
        for name, col in self.columns.items():
            arr = np.asarray(col, dtype=float)
            if arr.shape != axis.shape:
                raise ValueError(f"column {name!r} length differs from axis")
            cols[name] = arr
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "columns", cols)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def names(self) -> list[str]:
        return list(self.columns)


def write_waveform_csv(w: Waveform, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        names = w.names
        fh.write(",".join([w.axis_name] + names) + "\n")
        cols = [w.columns[n] for n in names]
        for k in range(w.axis.size):
            fh.write(",".join(repr(float(v)) for v in [w.axis[k]] + [c[k] for c in cols]))
            fh.write("\n")


def read_waveform_csv(path) -> Waveform:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
    return Waveform(axis_name=header[0], axis=data[:, 0], columns=cols)


_MAGIC = b"OFWV"
_BINARY_VERSION = 1


def write_waveform_binary(w: Waveform, path) -> None:
    """Binary table: magic OFWV, version byte, little-endian float64 columns."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BB", _BINARY_VERSION, 0))
        name = w.axis_name.encode()
        fh.write(struct.pack("<H", len(name)) + name)
        fh.write(struct.pack("<I", len(w.columns)))
        for n in w.names:
            nb = n.encode()
            fh.write(struct.pack("<H", len(nb)) + nb)
        fh.write(struct.pack("<Q", w.axis.size))
        fh.write(np.ascontiguousarray(w.axis, dtype="<f8").tobytes())
        for n in w.names:
            fh.write(np.ascontiguousarray(w.columns[n], dtype="<f8").tobytes())


def read_waveform_binary(path) -> Waveform:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a waveform file (bad magic)")
        version, _flags = struct.unpack("<BB", fh.read(2))
        if version != _BINARY_VERSION:
            raise ValueError(f"unsupported waveform version {version}")
        (n,) = struct.unpack("<H", fh.read(2))
        axis_name = fh.read(n).decode()
        (ncols,) = struct.unpack("<I", fh.read(4))
        names = []
        for _ in range(ncols):
            (n,) = struct.unpack("<H", fh.read(2))
            names.append(fh.read(n).decode())
        (nrows,) = struct.unpack("<Q", fh.read(8))
        axis = np.frombuffer(fh.read(8 * nrows), dtype="<f8")
        cols = {}
        for name in names:
            cols[name] = np.frombuffer(fh.read(8 * nrows), dtype="<f8")
    return Waveform(axis_name=axis_name, axis=axis, columns=cols)


# -- elaboration --------------------------------------------------------------

def effective_otft_params(card: OtftParams, e: Element) -> OtftParams:
    """Instance card after per-instance overrides and strain."""
    ov = dict(e.overrides)
    p = card_with(card, ov)
    if "strain" in ov:
        orientation = "perpendicular" if ov.get("dir", "par") == "perp" else "parallel"
        p = apply_strain(p, StrainState(float(ov["strain"]), orientation))
    return p


# Sign patterns of the per-element stamps, entry by entry.
_G_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])   # conductance: (a,a) (b,b) (a,b) (b,a)
_V_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])   # V-source: (a,k) (b,k) (k,a) (k,b)


def _ends(rows, width=2):
    """Node index columns of (node, ..., value) element rows."""
    return np.array([r[:width] for r in rows], dtype=np.intp).reshape(-1, width).T


def _flat(dim, entries, by_element=True):
    """Flat (dim, dim) matrix indices of (rows, cols) arrays, element by element
    (the order of a loop over elements) or entry by entry.  np.add.at and
    np.bincount accumulate in index order, so the layout fixes every rounding."""
    idx = np.stack([r * dim + c for r, c in entries], axis=1 if by_element else 0)
    return idx.ravel()


def _pair_stamp(dim, a, b):
    """Flat indices of two-terminal conductance stamps, in _G_SIGNS order."""
    return _flat(dim, ((a, a), (b, b), (a, b), (b, a)))


class _System:
    """Assembled arrays and stamp table for one circuit; owns its Newton workspace."""

    def __init__(self, circuit: Circuit, cfg: SolverConfig):
        self.circuit = circuit
        self.cfg = cfg
        names = list(circuit.nodes)  # ground at 0
        index = {n: i for i, n in enumerate(names)}

        cond = []     # (a, b, g) linear conductors
        caps = []     # (a, b, C)
        vsrc, isrc = [], []  # (a, b, wave, name) per V / I source
        otfts = []    # (d, g, s, params)

        for e in circuit.elements:
            if e.kind == "R":
                cond.append((index[e.nodes[0]], index[e.nodes[1]], 1.0 / e.value))
            elif e.kind == "C":
                caps.append((index[e.nodes[0]], index[e.nodes[1]], e.value))
            elif e.kind in ("V", "I"):
                (vsrc if e.kind == "V" else isrc).append(
                    (index[e.nodes[0]], index[e.nodes[1]], e.wave, e.name))
            elif e.kind == "M":
                p = effective_otft_params(circuit.model_card(e.model), e)
                d, g, s = (index[n] for n in e.nodes)
                di, si = d, s
                if p.rc > 0.0:
                    gc = 2.0 / p.rc
                    di, si = len(names), len(names) + 1
                    names += [f"{e.name}#d", f"{e.name}#s"]
                    cond += [(d, di, gc), (s, si, gc)]
                cond += [(di, si, cfg.gmin), (g, si, cfg.gmin)]
                cgs, cgd = device_capacitances(p)
                caps += [(g, s, cgs), (g, d, cgd)]
                otfts.append((di, g, si, p))

        self.n_nodes = len(names) - 1
        self.n_branch = len(vsrc)
        self.branch0 = nb0 = len(names)
        self.dim0 = dim0 = nb0 + self.n_branch  # includes ground slot 0
        self.circuit_nodes = [n for n in circuit.nodes if n != "0"]
        self.node_index = index

        # sources, voltage sources first; overrides find theirs by name
        srcs = vsrc + isrc
        self.waves = [w for _a, _b, w, _n in srcs]
        self.source_index = {name: k for k, (_a, _b, _w, name) in enumerate(srcs)}
        self.vsource_names = [name for _a, _b, _w, name in vsrc]

        cond_a, cond_b = _ends(cond)
        self.cond_g = np.array([g for _a, _b, g in cond], dtype=float)
        self.cap_a, self.cap_b = _ends(caps)
        self.cap_c = np.array([c for _a, _b, c in caps], dtype=float)
        va, vb = _ends(vsrc)
        ia, ib = _ends(isrc)
        self.m_d, self.m_g, self.m_s = d, g, s = _ends(otfts, 3)
        # kernel arguments after vgs and vds, one array per card quantity
        self.m_par = tuple(np.array(col) for col in zip(*(
            (p.sign, p.geom.w / p.geom.l * p.cox, p.mu0, p.sign * p.vth,
             p.ss, p.gamma, p.lam, p.order) for *_dgs, p in otfts)))
        self._m_out = np.empty((3, len(otfts)))

        # The stamp table; ground is slot 0 and is sliced off at the solve.
        # Matrix and right-hand-side entries are laid out in the order the
        # per-element stamps were written, so sums are exact replays; the
        # residual scale only feeds the convergence test.
        k = nb0 + np.arange(self.n_branch)
        static = np.concatenate((_pair_stamp(dim0, cond_a, cond_b),
                                 _flat(dim0, ((va, k), (vb, k), (k, va), (k, vb)))))
        vals = np.concatenate(((self.cond_g[:, None] * _G_SIGNS).ravel(),
                               np.tile(_V_SIGNS, k.size)))
        self.a_static = np.bincount(static, vals, dim0 * dim0).reshape(dim0, dim0)
        self.cap_stamp = _pair_stamp(dim0, self.cap_a, self.cap_b)
        self.m_jac = _flat(dim0, ((d, d), (d, g), (d, s), (s, d), (s, g), (s, s)),
                           by_element=False)
        self.m_inj = np.concatenate((d, s))
        self.rhs_idx = np.concatenate((np.stack((ia, ib), axis=1).ravel(), k,
                                       self.cap_a, self.cap_b))
        # both ends of every branch current: conductors and capacitor
        # companions, current sources, voltage sources, transistor channels
        self.lin_a = np.concatenate((cond_a, self.cap_a))
        self.lin_b = np.concatenate((cond_b, self.cap_b))
        self.scale_idx = np.concatenate((self.lin_a, ia, va, d, self.lin_b, ib, vb, s))

    # -- right-hand side and residual helpers --------------------------------

    def _source_values(self, t, alpha, overrides):
        """Voltage-source and current-source values at t, scaled by alpha."""
        vals = np.array([w.value(t) for w in self.waves], dtype=float)
        for name, v in (overrides or {}).items():
            vals[self.source_index[name]] = v
        return alpha * vals[:self.n_branch], alpha * vals[self.n_branch:]

    def newton(self, x0, t=None, alpha=1.0, gshunt=0.0,
               cap_geq=None, cap_ieq=None, src_overrides=None):
        """Damped Newton; returns solution or None on failure.

        Terms that do not depend on the iterate (sources, shunts, capacitor
        companions, branch-row tolerances) are stamped once per call; each
        iteration then makes three scatters: drain-current injection, the
        residual scale and the transistor Jacobian.
        """
        cfg = self.cfg
        dim0, nb0, nn = self.dim0, self.branch0, self.n_nodes
        vs, cs = self._source_values(t, alpha, src_overrides)

        a_base = self.a_static.copy()
        if gshunt > 0.0:
            idx = np.arange(1, nb0)
            a_base[idx, idx] += gshunt
        if cap_geq is None:
            cap_geq = cap_ieq = np.zeros(self.cap_c.size)
        else:
            np.add.at(a_base.reshape(-1), self.cap_stamp,
                      (cap_geq[:, None] * _G_SIGNS).ravel())
        b_full = np.bincount(self.rhs_idx, np.concatenate(
            (np.stack((-cs, cs), axis=1).ravel(), vs, cap_ieq, -cap_ieq)), dim0)
        g_lin = np.concatenate((self.cond_g, cap_geq))
        i0_lin = np.concatenate((np.zeros(self.cond_g.size), cap_ieq))
        # voltage-source rows are potential differences, not currents
        tol_branch = cfg.vntol + cfg.reltol * np.abs(vs)

        x = x0.copy()
        xfull = np.zeros(dim0)
        idr, gm, gds = self._m_out  # rows filled in place by the kernel
        last_dv = math.inf
        for _ in range(cfg.max_newton_iters):
            xfull[1:] = x
            if idr.size:
                kernels.otft_eval(xfull[self.m_g] - xfull[self.m_s],
                                  xfull[self.m_d] - xfull[self.m_s],
                                  *self.m_par, self._m_out)
            f_full = a_base @ xfull - b_full
            np.add.at(f_full, self.m_inj, np.concatenate((idr, -idr)))
            i_br = np.concatenate((g_lin * (xfull[self.lin_a] - xfull[self.lin_b]) - i0_lin,
                                   cs, xfull[nb0:], idr))
            scale = np.bincount(self.scale_idx, np.tile(np.abs(i_br), 2), dim0)
            tol = cfg.abstol + cfg.reltol * scale
            tol[nb0:] = tol_branch
            if last_dv < cfg.vntol and np.all(np.abs(f_full[1:]) <= tol[1:]):
                return x
            jac = a_base.copy()
            gsum = gm + gds
            np.add.at(jac.reshape(-1), self.m_jac,
                      np.concatenate((gds, gm, -gsum, -gds, -gm, gsum)))
            try:
                dx = np.linalg.solve(jac[1:, 1:], -f_full[1:])
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(dx)):
                return None
            dx[:nn] = np.clip(dx[:nn], -cfg.damping, cfg.damping)
            x = x + dx
            last_dv = float(np.max(np.abs(dx[:nn]))) if nn else 0.0
        return None

    def solve_dc(self, x0=None, t=None, src_overrides=None, context="dc operating point"):
        """Newton with gmin-ladder and source-stepping fallbacks."""
        if x0 is None:
            x0 = np.zeros(self.dim0 - 1)
        x = self.newton(x0, t=t, src_overrides=src_overrides)
        if x is not None:
            return x
        # gmin ladder: decade continuation down to the configured gmin
        x = np.zeros(self.dim0 - 1)
        ladder_ok = True
        g = 1e-3
        while g >= self.cfg.gmin:
            xn = self.newton(x, t=t, gshunt=g, src_overrides=src_overrides)
            if xn is None:
                ladder_ok = False
                break
            x = xn
            g *= 0.1
        if ladder_ok:
            xn = self.newton(x, t=t, src_overrides=src_overrides)
            if xn is not None:
                return xn
        # source stepping
        x = np.zeros(self.dim0 - 1)
        for alpha in np.linspace(0.1, 1.0, 10):
            xn = self.newton(x, t=t, alpha=alpha, src_overrides=src_overrides)
            if xn is None:
                raise ConvergenceError(
                    f"{context}: no convergence (failed at source step {alpha:.1f})",
                    at=alpha)
            x = xn
        return x

    def node_voltages(self, x) -> dict[str, float]:
        xfull = np.concatenate(([0.0], x))
        return {n: float(xfull[self.node_index[n]]) for n in self.circuit.nodes}

    def columns_of(self, xs: np.ndarray) -> dict[str, np.ndarray]:
        """Waveform columns v(node) for circuit nodes and i(src) per V source."""
        cols = {}
        for n in self.circuit_nodes:
            cols[f"v({n})"] = xs[:, self.node_index[n] - 1]
        for k, name in enumerate(self.vsource_names):
            cols[f"i({name})"] = xs[:, self.branch0 - 1 + k]
        return cols


def dc_operating_point(c: Circuit, cfg: SolverConfig | None = None) -> dict[str, float]:
    """Node voltages of the DC solution (sources at their t = 0- levels)."""
    sys = _System(c, cfg or SolverConfig())
    x = sys.solve_dc()
    return sys.node_voltages(x)


def _sweep_values(start, stop, step):
    n = int(math.floor((stop - start) / step + 1e-9)) + 1 if stop > start else 1
    return start + step * np.arange(n)


def dc_sweep(c: Circuit, directive: DcSweep, cfg: SolverConfig | None = None):
    """Swept-source DC solution with warm-started continuation.

    Returns a Waveform; if the directive has a secondary sweep, returns a
    list of Waveforms (one per secondary value, labeled `src2=value`).
    """
    cfg = cfg or SolverConfig()
    if directive.source2 is not None:
        if directive.source2.lower() == directive.source.lower():
            raise ConvergenceError(
                f"dc sweep: secondary source {directive.source2!r} is the swept source")
        outer = _sweep_values(directive.start2, directive.stop2, directive.step2)
        prim = replace(directive, source2=None, start2=None, stop2=None, step2=None)
        return [_dc_sweep_single(c, prim, cfg, extra={directive.source2: float(val2)},
                                 label=f"{directive.source2}={val2:g}")
                for val2 in outer]
    return _dc_sweep_single(c, directive, cfg)


def _dc_sweep_single(c, d, cfg, extra=None, label=""):
    sys = _System(c, cfg)
    src = d.source.lower()
    extra = {k.lower(): v for k, v in (extra or {}).items()}
    for name in (src, *extra):
        if name not in sys.source_index:
            raise ConvergenceError(f"dc sweep: unknown source {name!r}")
    values = _sweep_values(d.start, d.stop, d.step)
    rows = np.empty((values.size, sys.dim0 - 1))
    x = None
    for i, val in enumerate(values):
        overrides = {src: float(val), **extra}
        # warm start from the previous point; cold DC solve on the first or on failure
        xn = None if x is None else sys.newton(x, src_overrides=overrides)
        x = xn if xn is not None else sys.solve_dc(
            src_overrides=overrides, context=f"dc sweep at {d.source}={val:g}")
        rows[i] = x
    return Waveform(axis_name=src, axis=values, columns=sys.columns_of(rows),
                    label=label)


def transient(c: Circuit, directive: Tran, cfg: SolverConfig | None = None,
              ic: dict[str, float] | None = None) -> Waveform:
    """Adaptive-step integration of the circuit over [0, stop].

    With `ic` the initial node voltages are taken as given (unlisted nodes
    start at 0 V and the first step uses backward Euler); otherwise the DC
    operating point at t = 0 seeds the run.
    """
    cfg = cfg or SolverConfig()
    sys = _System(c, cfg)
    stop = directive.stop
    max_h = directive.max_step if directive.max_step is not None else directive.step
    if cfg.max_step is not None:
        max_h = min(max_h, cfg.max_step)

    cap_c = sys.cap_c
    if ic is None:
        x = sys.solve_dc(t=0.0, context="transient t=0 operating point")
        first_be = False
    else:
        x = np.zeros(sys.dim0 - 1)
        for name, v in ic.items():
            key = name.lower()
            if key not in sys.node_index:
                raise KeyError(f"initial condition for unknown node {name!r}")
            if key != "0":
                x[sys.node_index[key] - 1] = float(v)
        first_be = True
    cap_i = np.zeros(cap_c.size)

    def vab(xv):
        xfull = np.concatenate(([0.0], xv))
        return xfull[sys.cap_a] - xfull[sys.cap_b]

    def step_once(x_in, i_in, t_new, h, method):
        if method == "be":
            geq = cap_c / h
            ieq = geq * vab(x_in)
        else:
            geq = 2.0 * cap_c / h
            ieq = geq * vab(x_in) + i_in
        xn = sys.newton(x_in, t=t_new, cap_geq=geq, cap_ieq=ieq)
        if xn is None:
            return None, None
        return xn, geq * vab(xn) - ieq

    times = [0.0]
    states = [x.copy()]
    t = 0.0
    if cfg.fixed_step:
        h = directive.step
        # guard relative to h: a rounding-residue final step of width ~eps*stop
        # would blow up geq = C/h and stall the linear solve
        while t < stop - 1e-9 * h:
            h_eff = min(h, stop - t)
            method = "be" if (first_be and t == 0.0) else cfg.method
            xn, cin = step_once(x, cap_i, t + h_eff, h_eff, method)
            if xn is None:
                raise ConvergenceError(f"transient: no convergence at t={t + h_eff:g}",
                                       at=t + h_eff)
            x, cap_i = xn, cin
            t += h_eff
            times.append(t)
            states.append(x.copy())
    else:
        h = min(directive.step, stop / 1000.0, max_h)
        order = 1 if cfg.method == "be" else 2
        while t < stop - 1e-15 * stop:
            h = min(max(h, cfg.min_step), max_h, stop - t)
            method = "be" if (first_be and t == 0.0) else cfg.method
            # one full step and two half steps, each only if the last converged
            xf, _ = step_once(x, cap_i, t + h, h, method)
            xh1, ci1 = (None, None) if xf is None else step_once(
                x, cap_i, t + 0.5 * h, 0.5 * h, method)
            xh2, ci2 = (None, None) if xh1 is None else step_once(
                xh1, ci1, t + h, 0.5 * h, method)
            if xh2 is None:
                h *= 0.5
                if h < cfg.min_step:
                    raise ConvergenceError(
                        f"transient: step underflow at t={t:g}", at=t)
                continue
            nn = sys.n_nodes
            diff = np.abs(xh2[:nn] - xf[:nn])
            denom = cfg.lte_tol * (1.0 + np.abs(xh2[:nn]))
            eta = float(np.max(diff / denom)) if nn else 0.0
            if eta <= 1.0:
                t += h
                x, cap_i = xh2, ci2
                first_be = False
                times.append(t)
                states.append(x.copy())
                grow = 2.0 if eta <= 0.0 else min(2.0, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= max(grow, 0.5)
            else:
                shrink = max(0.2, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= min(shrink, 0.9)
                if h < cfg.min_step:
                    raise ConvergenceError(
                        f"transient: step underflow at t={t:g}", at=t)
    xs = np.vstack(states)
    return Waveform(axis_name="time", axis=np.array(times), columns=sys.columns_of(xs))


def small_signal_gain(c: Circuit, source: str, output: str,
                      bias: float, cfg: SolverConfig | None = None,
                      delta: float = 1e-3) -> float:
    """Central-difference dV(output)/dV(source) at the given source bias."""
    cfg = cfg or SolverConfig()
    lo = dc_operating_point(c.with_source_level(source, bias - delta), cfg)
    hi = dc_operating_point(c.with_source_level(source, bias + delta), cfg)
    key = output.lower()
    return (hi[key] - lo[key]) / (2.0 * delta)
