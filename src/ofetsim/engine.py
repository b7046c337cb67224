"""Modified nodal analysis: DC operating point, DC sweeps, transient.

The solver assembles node-voltage KCL equations augmented with one branch
current per voltage source.  Transistors stamp their analytic conductances;
contact resistance is elaborated as two internal-node series resistors of
rc/2.  Each circuit is elaborated once into a stamp table: flat matrix and
right-hand-side indices with sign patterns for conductors, voltage-source
incidence, capacitor companions, the six transistor Jacobian entries and the
drain-current injection, plus the node incidence of every branch current for
the residual scale.  A Newton iteration applies it in two scatters (and a
third for the residual scale once the update is small), solves for the
update and stops on that update: when every KCL residual at the point
just evaluated is within abstol + reltol * (sum of |branch currents| at the
node), or vntol + reltol * |V| on a voltage-source row, and every clipped node
update is below vntol, it returns the point plus the update, with no further
evaluation.  A failed call records its largest |residual| and that row for
ConvergenceError.  DC falls back from plain damped Newton to a gmin ladder
(1e-3 S down to gmin), then to source stepping (0.1 to 1.0); transient uses
backward Euler or trapezoidal companions with step-doubling error control.
Each transient step solve starts from its initial point moved along the
polynomial through the last three accepted points, and each warm-started DC
sweep point from that polynomial in the swept value; the start changes only
the work of a solve, not its tolerances or the step control.

Newton runs over a leading replica axis: B solves of one circuit, each with
its own start, source values and capacitor companions, share every
iteration's kernel call (over B x n_m devices), scatters, matrix product and
stacked np.linalg.solve.  Each replica's entries keep the order of a lone
solve, so its result is bit-identical to one; a replica leaves the stack when
it converges or fails, and its failure record is its own.  Step doubling
solves the full step and the first half step, which start from the same
point, as one call of two replicas, then the second half step.  A DC sweep
with a secondary source solves all its curves as replicas, one call per
point; a curve whose warm start fails falls back alone to a cold DC solve.
Every other solve is a lone call (B = 1).

Waveforms serialize to CSV and to a compact little-endian binary table; both
writers are bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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
_I_SIGNS = np.array([-1.0, 1.0])              # I-source right-hand side: a, b


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


@dataclass(frozen=True)
class _Replicas:
    """Flat indices into the stacked arrays of nrep replicas of one circuit,
    their card arrays and kernel output; see _System._replicas."""

    m_dgs: np.ndarray        # (3, nrep * n_m) drain, gate, source
    m_inj: np.ndarray
    branch: np.ndarray
    lin_a: np.ndarray
    lin_b: np.ndarray
    rhs_idx: np.ndarray
    scale_idx: np.ndarray
    m_jac: np.ndarray
    cap_stamp: np.ndarray
    m_par: tuple
    out: np.ndarray          # (3, nrep * n_m) kernel output
    cond_g: np.ndarray       # (nrep * n_g,) conductances
    zero_g: np.ndarray       # (nrep * n_g,) zeros


def _solve_each(a, b):
    """Replica-by-replica solve of stacked systems, NaN for a singular one."""
    dx = np.full(b.shape, np.nan)
    for k in range(b.shape[0]):
        try:
            dx[k] = np.linalg.solve(a[k], b[k])
        except np.linalg.LinAlgError:
            pass
    return dx


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
        self.unknown_names = names
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
        self._stacks = {}
        # per replica of the last Newton call: None, or the largest |residual|
        # of a failed solve and its row
        self.fail = []

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
        # Vector index kinds.  A stack of replicas lays out each kind for
        # every replica in turn, so a replica's entries keep a lone call's
        # order and the lone call's arrays are the concatenated kinds.
        self._kinds = dict(
            m_inj=(d, s), branch=(k,),
            lin_a=(cond_a, self.cap_a), lin_b=(cond_b, self.cap_b),
            rhs_idx=(np.stack((ia, ib), axis=1).ravel(), k, self.cap_a, self.cap_b),
            # both ends of every branch current: conductors and capacitor
            # companions, current sources, voltage sources, transistor channels
            scale_idx=(cond_a, self.cap_a, ia, va, d, cond_b, self.cap_b, ib, vb, s))
        self.lin_a, self.lin_b = (np.concatenate(self._kinds[n]) for n in ("lin_a", "lin_b"))

    def _replicas(self, nrep):
        """Stamp table and kernel arguments of a stack of nrep replicas.

        Replica r's indices move by r vectors of dim0 or r (dim0, dim0)
        matrices into the flattened stacked arrays; the card arrays are
        tiled, so the exponents stay arrays.
        """
        tab = self._stacks.get(nrep)
        if tab is None:
            def stack(kinds, step=self.dim0):
                off = step * np.arange(nrep)[:, None]
                return np.concatenate([(kind + off).ravel() for kind in kinds])

            tab = self._stacks[nrep] = _Replicas(
                **{name: stack(kinds) for name, kinds in self._kinds.items()},
                m_dgs=np.stack([stack([m]) for m in (self.m_d, self.m_g, self.m_s)]),
                m_jac=stack(self.m_jac.reshape(6, -1), self.dim0 ** 2),
                cap_stamp=stack([self.cap_stamp], self.dim0 ** 2),
                m_par=tuple(np.tile(col, nrep) for col in self.m_par),
                out=np.empty((3, nrep * self.m_d.size)),
                cond_g=np.tile(self.cond_g, nrep), zero_g=np.zeros(nrep * self.cond_g.size))
        return tab

    def _source_values(self, t, alpha, overrides, nrep):
        """Voltage-source and current-source values, (nrep, n_v) and (nrep,
        n_i), at time t scaled by alpha; t and overrides are shared or lists
        with one entry per replica."""
        ts = t if isinstance(t, list) else [t] * nrep
        ovs = overrides if isinstance(overrides, list) else [overrides] * nrep
        rows = []
        for tk, ov in zip(ts, ovs):
            row = [w.value(tk) for w in self.waves]
            for name, v in (ov or {}).items():
                row[self.source_index[name]] = v
            rows.append(row)
        vals = np.array(rows, dtype=float)
        if alpha != 1.0:
            vals *= alpha
        return vals[:, :self.n_branch], vals[:, self.n_branch:]

    def newton(self, x0, t=None, alpha=1.0, gshunt=0.0,
               cap_geq=None, cap_ieq=None, src_overrides=None):
        """Damped Newton over a leading replica axis.

        ``x0`` is one start (n,) or B starts (B, n) of this circuit.  With B
        starts, ``t`` and ``src_overrides`` may be lists (one time, one
        override dict per replica) and ``cap_geq``/``cap_ieq`` are (B, n_cap)
        arrays; ``alpha`` and ``gshunt`` are shared.  Returns the solution or
        None for one start, a list of B of them for stacked starts.

        All active replicas share each iteration's work: one kernel call over
        every replica's transistors, scatters over the stacked stamp table,
        one stacked product and one stacked solve.  These act on each replica
        alone and in a lone call's order, so a replica's result is
        bit-identical to a lone call's.  A replica stops on the update that
        converges and returns the point plus that update, without evaluating
        the devices again; it leaves the stack then, as does a replica whose
        solve fails.  Terms that do not depend on the iterate (sources,
        shunts, capacitor companions, branch-row tolerances) are stamped once
        per call, and the residual tolerances only once an update is small.
        """
        cfg = self.cfg
        dim0, nb0, nn = self.dim0, self.branch0, self.n_nodes
        x = x0 if x0.ndim == 2 else x0[None]
        nrep = x.shape[0]
        vs, cs = self._source_values(t, alpha, src_overrides, nrep)
        tab = self._stacks.get(nrep) or self._replicas(nrep)

        a_base = np.array([self.a_static] * nrep)
        if gshunt > 0.0:
            idx = np.arange(1, nb0)
            a_base[:, idx, idx] += gshunt
        if cap_geq is None:
            cap_geq = cap_ieq = np.zeros((nrep, self.cap_c.size))
        else:
            cap_geq, cap_ieq = cap_geq.reshape(nrep, -1), cap_ieq.reshape(nrep, -1)
            np.add.at(a_base.reshape(-1), tab.cap_stamp,
                      (cap_geq[:, :, None] * _G_SIGNS).ravel())
        b_full = np.bincount(tab.rhs_idx, np.concatenate(
            ((cs[:, :, None] * _I_SIGNS).ravel(), vs.ravel(), cap_ieq.ravel(),
             -cap_ieq.ravel())), nrep * dim0).reshape(nrep, dim0, 1)
        # voltage-source rows are potential differences, not currents
        tol_branch = cfg.vntol + cfg.reltol * np.abs(vs)

        live = range(nrep)   # replica of each stacked row
        result = [None] * nrep
        self.fail = [None] * nrep
        xfull = np.zeros((nrep, dim0))
        xfull[:, 1:] = x
        xf, xcol = xfull.reshape(-1), xfull[:, :, None]
        idr, gm, gds = tab.out   # rows filled in place by the kernel
        for _ in range(cfg.max_newton_iters):
            if idr.size:
                v_d, v_g, v_s = xf[tab.m_dgs]
                kernels.otft_eval(v_g - v_s, v_d - v_s, *tab.m_par, tab.out)
            f_col = a_base @ xcol - b_full
            np.add.at(f_col.reshape(-1), tab.m_inj, np.concatenate((idr, -idr)))
            jac = a_base.copy()
            gsum = gm + gds
            np.add.at(jac.reshape(-1), tab.m_jac,
                      np.concatenate((gds, gm, -gsum, -gds, -gm, gsum)))
            try:
                dx = np.linalg.solve(jac[:, 1:, 1:], -f_col[:, 1:])[:, :, 0]
            except np.linalg.LinAlgError:
                dx = _solve_each(jac[:, 1:, 1:], -f_col[:, 1:, 0])
            finite = np.isfinite(dx).all(axis=1).tolist()
            dxn = dx[:, :nn]
            np.minimum(np.maximum(dxn, -cfg.damping, out=dxn), cfg.damping, out=dxn)
            conv = (np.abs(dxn) < cfg.vntol).all(axis=1).tolist()
            if True in conv:
                # residuals at the point just evaluated, against their tolerances
                g_lin = np.concatenate((tab.cond_g, cap_geq.ravel()))
                i0_lin = np.concatenate((tab.zero_g, cap_ieq.ravel()))
                i_br = np.concatenate((g_lin * (xf[tab.lin_a] - xf[tab.lin_b]) - i0_lin,
                                       cs.ravel(), xf[tab.branch], idr))
                a_br = np.abs(i_br)
                scale = np.bincount(tab.scale_idx, np.concatenate((a_br, a_br)), xf.size)
                tol = (cfg.abstol + cfg.reltol * scale).reshape(xfull.shape)
                tol[:, nb0:] = tol_branch
                within = (np.abs(f_col[:, 1:, 0]) <= tol[:, 1:]).all(axis=1).tolist()
                conv = [a and b for a, b in zip(conv, within)]
            xfull[:, 1:] += dx
            if True in conv or False in finite:
                keep = []
                for k, (ok, fin) in enumerate(zip(conv, finite)):
                    if not fin:
                        self._failed(live[k], f_col[k, :, 0])
                    elif ok:
                        result[live[k]] = xfull[k, 1:]   # a row not written again
                    else:
                        keep.append(k)
                if not keep:
                    break
                live = [live[k] for k in keep]
                if keep[-1] - keep[0] == len(keep) - 1:   # a run of rows: views
                    keep = slice(keep[0], keep[-1] + 1)
                xfull, f_col, a_base, b_full, cs, cap_geq, cap_ieq, tol_branch = (
                    a[keep] for a in (xfull, f_col, a_base, b_full, cs, cap_geq, cap_ieq,
                                      tol_branch))
                tab = self._replicas(len(live))
                xf, xcol = xfull.reshape(-1), xfull[:, :, None]
                idr, gm, gds = tab.out
        else:
            for k, rep in enumerate(live):
                self._failed(rep, f_col[k, :, 0])
        return result if x0.ndim == 2 else result[0]

    def _failed(self, rep, f_full):
        """Record the largest |residual| of a replica's failed Newton solve and its row."""
        r = int(np.argmax(np.abs(f_full[1:]))) + 1
        self.fail[rep] = (float(abs(f_full[r])),
                          f"node {self.unknown_names[r]}" if r < self.branch0
                          else f"i({self.vsource_names[r - self.branch0]})")

    def error(self, message, at):
        """ConvergenceError for the first replica that failed in the last Newton call."""
        residual, row = next(f for f in self.fail if f is not None)
        return ConvergenceError(f"{message}; largest residual {residual:.3g} at {row}",
                                residual=residual, at=at)

    def solve_dc(self, t=None, src_overrides=None, context="dc operating point"):
        """Newton from zero with gmin-ladder and source-stepping fallbacks."""
        x = self.newton(np.zeros(self.dim0 - 1), t=t, src_overrides=src_overrides)
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
                raise self.error(
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


def _extrapolate(ts, xs, t):
    """Value at t of the polynomial through the last three (or fewer) points
    (ts[k], xs[k]): the predicted start of the next Newton solve."""
    ts, xs = ts[-3:], xs[-3:]
    p = 0.0
    for j, (tj, xj) in enumerate(zip(ts, xs)):
        w = 1.0
        for k, tk in enumerate(ts):
            if k != j:
                w *= (t - tk) / (tj - tk)
        p = p + w * xj
    return p


def _sweep_values(start, stop, step):
    n = int(math.floor((stop - start) / step + 1e-9)) + 1 if stop > start else 1
    return start + step * np.arange(n)


def dc_sweep(c: Circuit, directive: DcSweep, cfg: SolverConfig | None = None):
    """Swept-source DC solution with warm-started continuation.

    Returns a Waveform; if the directive has a secondary sweep, returns a
    list of Waveforms (one per secondary value, labeled `src2=value`).
    """
    cfg = cfg or SolverConfig()
    if directive.source2 is None:
        return _dc_sweep_curves(c, directive, cfg, [{}], [""])[0]
    if directive.source2.lower() == directive.source.lower():
        raise ValueError(
            f"dc sweep: secondary source {directive.source2!r} is the swept source")
    outer = _sweep_values(directive.start2, directive.stop2, directive.step2)
    return _dc_sweep_curves(c, directive, cfg,
                            [{directive.source2.lower(): float(v)} for v in outer],
                            [f"{directive.source2}={v:g}" for v in outer])


def _dc_sweep_curves(c, d, cfg, extras, labels):
    """One Waveform per curve: d.source swept with that curve's fixed source
    overrides.  The curves are the replicas of one Newton call per point; a
    curve whose warm start fails falls back alone to a cold DC solve, and a
    curve that fails there leaves the sweep, whose error is raised once the
    other curves are done, so the first failing curve is the one reported."""
    sys = _System(c, cfg)
    src = d.source.lower()
    for name in (src, *extras[0]):
        if name not in sys.source_index:
            raise KeyError(f"dc sweep: unknown source {name!r}")
    values = _sweep_values(d.start, d.stop, d.step)
    rows = np.zeros((values.size, len(extras), sys.dim0 - 1))
    live = list(range(len(extras)))   # curves that have not failed
    errors = {}
    points = values.tolist()
    for i, val in enumerate(points):
        overrides = [{src: val, **extras[k]} for k in live]
        # start from the curve through the last points; cold DC solve on the
        # first point or on failure
        if i:
            lo = max(i - 3, 0)
            x0 = _extrapolate(points[lo:i], rows[lo:i], val)
            xs = sys.newton(x0 if len(live) == len(extras) else x0[live],
                            src_overrides=overrides)
        else:
            xs = [None] * len(live)
        for k, ov, x in zip(list(live), overrides, xs):
            if x is None:
                try:
                    x = sys.solve_dc(src_overrides=ov,
                                     context=f"dc sweep at {d.source}={val:g}")
                except ConvergenceError as e:
                    errors[k] = e
                    live.remove(k)
                    continue
            rows[i, k] = x
        if not live:
            break
    if errors:
        raise errors[min(errors)]
    return [Waveform(axis_name=src, axis=values, columns=sys.columns_of(rows[:, k]),
                     label=label) for k, label in enumerate(labels)]


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

    def companion(x_in, i_in, h, method):
        if method == "be":
            geq = cap_c / h
            return geq, geq * vab(x_in)
        geq = 2.0 * cap_c / h
        return geq, geq * vab(x_in) + i_in

    def steps_from(x_in, i_in, steps, method):
        """Solve the steps [(t_new, h), ...] that all start at (x_in, i_in) as
        replicas of one Newton call; (state, capacitor currents) or None each."""
        comp = [companion(x_in, i_in, h, method) for _t, h in steps]
        # start from x_in moved along the curve through the accepted points
        x0 = np.array([x_in + (_extrapolate(times, states, t_new)
                               - _extrapolate(times, states, t_new - h))
                       for t_new, h in steps])
        xs = sys.newton(x0, t=[t_new for t_new, _h in steps],
                        cap_geq=np.array([geq for geq, _ieq in comp]),
                        cap_ieq=np.array([ieq for _geq, ieq in comp]))
        return [None if xn is None else (xn, geq * vab(xn) - ieq)
                for xn, (geq, ieq) in zip(xs, comp)]

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
            (done,) = steps_from(x, cap_i, [(t + h_eff, h_eff)], method)
            if done is None:
                raise sys.error(f"transient: no convergence at t={t + h_eff:g}",
                                at=t + h_eff)
            x, cap_i = done
            t += h_eff
            times.append(t)
            states.append(x.copy())
    else:
        h = min(directive.step, stop / 1000.0, max_h)
        order = 1 if cfg.method == "be" else 2
        nn = sys.n_nodes
        while t < stop - 1e-15 * stop:
            h = min(max(h, cfg.min_step), max_h, stop - t)
            method = "be" if (first_be and t == 0.0) else cfg.method
            # the full step and the first half step, both from x, as one
            # call; then the second half step
            full, half = steps_from(x, cap_i, [(t + h, h), (t + 0.5 * h, 0.5 * h)],
                                    method)
            if full is not None and half is not None:
                (half,) = steps_from(*half, [(t + h, 0.5 * h)], method)
            if full is None or half is None:
                h *= 0.5
                if h < cfg.min_step:
                    raise sys.error(f"transient: step underflow at t={t:g}", at=t)
                continue
            xf, xh2 = full[0], half[0]
            ratio = np.abs(xh2[:nn] - xf[:nn]) / (cfg.lte_tol * (1.0 + np.abs(xh2[:nn])))
            eta = float(np.max(ratio)) if nn else 0.0
            if eta <= 1.0:
                t += h
                x, cap_i = half
                first_be = False
                times.append(t)
                states.append(x.copy())
                grow = 2.0 if eta <= 0.0 else min(2.0, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= max(grow, 0.5)
            else:
                shrink = max(0.2, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= min(shrink, 0.9)
                if h < cfg.min_step:
                    worst = sys.unknown_names[int(np.argmax(ratio)) + 1]
                    raise ConvergenceError(
                        f"transient: step underflow at t={t:g}; largest LTE ratio "
                        f"{eta:.3g} at node {worst}", at=t)
    xs = np.vstack(states)
    return Waveform(axis_name="time", axis=np.array(times), columns=sys.columns_of(xs))
