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
just evaluated is within ABSTOL + reltol * (sum of |branch currents| at the
node), or VNTOL + reltol * |V| on a voltage-source row, and every node update
is below VNTOL, it returns the point plus the update.  A node update is
limited to DAMPING + 2 |v| at the node's voltage v (SPICE3's drain-source
limit), so from 0 V a node reaches 0.5, 2, 6.5, 20, 60 V in five iterations.
A failed call records its largest |residual| and that row for
ConvergenceError.  DC climbs one rescue ladder, a table of rungs each tried
from zero: plain Newton, gmin (node shunts from 1e-3 S down to GMIN, then
none), source (source levels 0.1 to 1.0).  Transient uses backward Euler or
trapezoidal companions with step-doubling error control.
Every Newton solve after the first point starts from the predictor, as in
SPICE2: the polynomial through the last points of the solution path at the
solve's own time or swept value.  An attempt is one Newton call of three
replicas: the first half step to t + h/2, the full step and the second half
step to t + h, whose capacitor history follows the first half step's
iterate in every iteration, solved after the others.  Each starts through
the last four points of the half-step path: every accepted attempt adds its
first half step's solution and its accepted point, h/2 apart; a fixed step
starts through the last four accepted points.  A DC sweep value starts
through solved coarse sweep points, below.  Starts change the work of a
solve, not its tolerances.

Newton takes B starts and B source rows and returns B solutions: B solves
of one circuit, each with its own start, source row and capacitor
companions, share every iteration's kernel call (over B x n_m devices),
scatters, matrix product and stacked np.linalg.solve.  Callers build the
rows from _System.sources, so Newton reads no waveform.  Each replica's
entries keep the order of a lone solve, so its result is bit-identical to
one, except the chained second half step's; a replica leaves the stack when
it converges or fails.  A DC sweep is one loop of such calls over a list
of blocks, each call's replicas every (value, curve) pair of its block (see
dc_sweep): the first value cold, then every SWEEP_STRIDE-th value and the
last, each from the polynomial through the three coarse points before its
block, then every other value from the cubic through its four nearest
coarse points.  A replica that fails there climbs the rescue ladder alone.
Fixed steps and DC solves are stacks of one.

Transients stack 1 or 3 replicas of 12-24 transistors, so an iteration costs
numpy calls, not arithmetic.  The stamp table of a stack therefore also
holds the tiled card arrays of its transistors and their card constants
(kernels.card_constants, computed once per table, not per kernel call), all
views into the arrays of the largest stack yet.  The matrices, residuals and
scatter values are allocated by each call and iteration: at this size an
allocation costs about what filling a kept array in place does.

Waveforms serialize to CSV, the one waveform file: every number is repr() of
a float, so read_waveform_csv returns the written bits.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import kernels
from .model import device_capacitances, kernel_args
from .netlist import Circuit, DcSweep, Tran, card_with, sweep_count


class ConvergenceError(Exception):
    """Newton iteration failed after all fallbacks; carries context.

    ``residual`` is the largest |residual| of the failed Newton solve and
    ``row`` names where it was ("node x" or "i(vsrc)"); for a step underflow
    of the error test, ``row`` names the node with the largest local-error
    ratio.  ``at`` is the time or source-stepping level of the failure.
    """

    def __init__(self, message: str, residual: float | None = None,
                 at: float | None = None, row: str | None = None):
        self.residual = residual
        self.at = at
        self.row = row
        super().__init__(message)


# Newton and elaboration constants, the same for every solve
ABSTOL = 1e-12    # KCL residual floor, A
VNTOL = 1e-6      # Newton update floor, V
GMIN = 1e-12      # permanent transistor shunt, S
DAMPING = 0.5     # node update limit at 0 V; DAMPING + 2 |v| at v, V


@dataclass(frozen=True)
class SolverConfig:
    reltol: float = 1e-4
    max_newton_iters: int = 100
    method: str = "trap"         # "trap" | "be"
    lte_tol: float = 1e-4
    min_step: float = 1e-15
    fixed_step: bool = False     # integrate exactly at the directive step

    def __post_init__(self):
        for name in ("reltol", "lte_tol", "min_step"):
            v = getattr(self, name)
            # written so that NaN fails: every comparison with NaN is False
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        n = self.max_newton_iters
        try:   # Newton counts iterations up to it == n, which a float may never meet
            operator.index(n)
        except TypeError:
            raise ValueError(f"max_newton_iters must be an integer, got {n!r}") from None
        if n < 1:
            raise ValueError(f"max_newton_iters must be at least 1, got {n!r}")
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

    @property
    def names(self) -> list[str]:
        return list(self.columns)


# rows per block of a CSV write: one tolist() call converts a block and one
# format call writes it, and the block bounds the memory its Python floats take
_CSV_BLOCK = 32


def write_waveform_csv(w: Waveform, path) -> None:
    """Header, then one row per axis value; every number is repr() of a float."""
    names = w.names
    cols = [w.axis] + [w.columns[n] for n in names]
    line = ",".join(["%r"] * len(cols)) + "\n"   # %r of a float is its repr()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([w.axis_name] + names) + "\n")
        for k in range(0, w.axis.size, _CSV_BLOCK):
            block = np.column_stack([c[k:k + _CSV_BLOCK] for c in cols])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def read_waveform_csv(path) -> Waveform:
    """Inverse of write_waveform_csv, bit for bit, at any row count (0 too)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([ln.split(",") for ln in fh], dtype=float).reshape(-1, len(header))
    cols = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
    return Waveform(axis_name=header[0], axis=data[:, 0], columns=cols)


# -- elaboration --------------------------------------------------------------

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


_PLAIN = ((0.0, 1.0),)   # one Newton solve: no node shunt, sources at full level

# the DC rescue ladder, see solve_dc: (name, solves), a solve (gshunt, alpha)
_SHUNTS = [1e-3]
while _SHUNTS[-1] * 0.1 >= GMIN:   # repeated products, not 10.0 ** -k: the ladder's floats
    _SHUNTS.append(_SHUNTS[-1] * 0.1)
_RUNGS = (("plain", _PLAIN), ("gmin", (*((g, 1.0) for g in _SHUNTS), *_PLAIN)),
          ("source", tuple((0.0, a) for a in np.linspace(0.1, 1.0, 10))))
# the update floor: numpy takes 0-d arrays faster than floats
_VNTOL = np.array(VNTOL)


class _System:
    """Assembled arrays and stamp table for one circuit, and its Newton solver."""

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
                p = card_with(circuit.model_card(e.model), e.overrides)
                d, g, s = (index[n] for n in e.nodes)
                di, si = d, s
                if p.rc > 0.0:
                    gc = 2.0 / p.rc
                    di, si = len(names), len(names) + 1
                    names += [f"{e.name}#d", f"{e.name}#s"]
                    cond += [(d, di, gc), (s, si, gc)]
                cond += [(di, si, GMIN), (g, si, GMIN)]
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
        self.source_names = [name for _a, _b, _w, name in srcs]
        self.source_index = {name: k for k, name in enumerate(self.source_names)}
        self.vsource_names = self.source_names[:len(vsrc)]

        cond_a, cond_b = _ends(cond)
        self.cond_g = np.array([g for _a, _b, g in cond], dtype=float)
        self.cap_a, self.cap_b = _ends(caps)
        self.cap_c = np.array([c for _a, _b, c in caps], dtype=float)
        va, vb = _ends(vsrc)
        ia, ib = _ends(isrc)
        self.m_d, self.m_g, self.m_s = d, g, s = _ends(otfts, 3)
        # kernel arguments after vgs and vds, one array per card quantity
        self.m_par = tuple(np.array([kernel_args(p) for *_dgs, p in otfts],
                                    dtype=float).reshape(-1, 8).T)
        self._stacks = {}    # nrep -> stack table, views into self._full
        self._full = None    # the stacked arrays of the largest stack yet
        self.fail = []   # per replica of the last Newton call: None, or see _failed

        # The stamp table; ground is slot 0 and is sliced off at the solve.
        # Matrix and right-hand-side entries are laid out in the order the
        # per-element stamps were written, so sums are exact replays; the
        # residual scale only feeds the convergence test.
        k = nb0 + np.arange(self.n_branch)
        static = np.concatenate((_pair_stamp(dim0, cond_a, cond_b),
                                 _flat(dim0, ((va, k), (vb, k), (k, va), (k, vb)))))
        vals = np.concatenate(((self.cond_g[:, None] * _G_SIGNS).ravel(),
                               np.tile(_V_SIGNS, k.size)))
        # float even with no entry: np.bincount of nothing gives integers
        self.a_static = np.bincount(static, vals, dim0 * dim0).astype(
            float, copy=False).reshape(dim0, dim0)
        self.cap_stamp = _pair_stamp(dim0, self.cap_a, self.cap_b)
        self.m_jac = _flat(dim0, ((d, d), (d, g), (d, s), (s, d), (s, g), (s, s)),
                           by_element=False)
        self.cap_inc = np.eye(dim0)[self.cap_a] - np.eye(dim0)[self.cap_b]
        self.lin_a = np.concatenate((cond_a, self.cap_a))
        self.lin_b = np.concatenate((cond_b, self.cap_b))
        # Each stamp-table array as a lone call's flat indices, and the size
        # of the vector (dim0) or matrix (dim0 ** 2) they move by from one
        # replica to the next.  A stack lays the lone array out replica after
        # replica, so each replica's entries keep a lone call's order.
        self._lone = dict(
            m_dgs=(np.stack((d, g, s)), dim0), m_inj=(np.concatenate((d, s)), dim0),
            # the unknowns the residual scale reads: both ends of every
            # conductor and capacitor, then the branch currents
            res_idx=(np.concatenate((self.lin_a, self.lin_b, k)), dim0),
            rhs_idx=(np.concatenate((np.stack((ia, ib), axis=1).ravel(), k,
                                     self.cap_a, self.cap_b)), dim0),
            # both ends of every branch current: conductors and capacitor
            # companions, current sources, voltage sources, transistor channels
            scale_idx=(np.concatenate((cond_a, self.cap_a, ia, va, d,
                                       cond_b, self.cap_b, ib, vb, s)), dim0),
            m_jac=(self.m_jac, dim0 * dim0), cap_stamp=(self.cap_stamp, dim0 * dim0))

    def _replicas(self, nrep):
        """Stamp table and kernel arguments of a stack of nrep replicas: the
        arrays of self._lone, the card arrays m_par and their constants card.

        Replica r's entries are a lone call's, moved by r vectors of dim0 or
        r (dim0, dim0) matrices into the flattened stacked arrays, and follow
        replica r - 1's; the card arrays are tiled, so the exponents stay
        arrays, and their card constants are computed once here.  The table
        of nrep replicas is therefore the start of any larger stack's: one
        table, of the largest stack yet, serves every smaller stack through
        views.
        """
        tab = self._stacks.get(nrep)
        if tab is None:
            full = self._full
            if full is None or nrep > full["nrep"]:
                # each array flattened over (replica, entry): a stack's part
                # is a slice of it
                off = np.arange(nrep)[:, None]
                full = self._full = {
                    name: (lone[..., None, :] + step * off).reshape(*lone.shape[:-1], -1)
                    for name, (lone, step) in self._lone.items()}
                m_par = [np.tile(col, nrep) for col in self.m_par]
                _sign, _kwl, mu0, _vthn, ss, gamma, _lam, order = m_par
                full.update(nrep=nrep, m_par=m_par,
                            card=kernels.card_constants(mu0, ss, gamma, order))
                self._stacks.clear()
            n = nrep * self.m_d.size   # devices of the stack
            tab = self._stacks[nrep] = SimpleNamespace(
                **{name: full[name][..., :nrep * lone.shape[-1]]
                   for name, (lone, _step) in self._lone.items()},
                m_par=tuple(col[:n] for col in full["m_par"]),
                card=kernels.Card(*(f[:n] if isinstance(f, np.ndarray) else f
                                    for f in full["card"])))
        return tab

    def sources(self, t=None, overrides=None):
        """One source row, voltage sources first: each wave's value at the
        time t (None: its DC level), with the sources named in overrides set.
        A wave with no float value at t (a sine whose phase or envelope leaves
        the float range) is a ConvergenceError that names its source."""
        vals = []
        try:
            vals.extend(w.value(t) for w in self.waves)   # appends wave by wave
        except (ValueError, OverflowError):
            raise ConvergenceError(f"source {self.source_names[len(vals)]}: value out of "
                                   f"the float range at t={t:g}", at=t) from None
        row = np.array(vals, dtype=float)
        for name, v in (overrides or {}).items():
            row[self.source_index[name]] = v
        return row

    def newton(self, x0, src, alpha=1.0, gshunt=0.0, cap_geq=None, cap_ieq=None, chain=None):
        """Damped Newton over a leading replica axis.

        ``x0`` is B starts (B, n) of this circuit and ``src`` their B source
        rows (B, n_src), see sources; ``cap_geq``/``cap_ieq`` are (B, n_cap)
        capacitor companions, and ``alpha`` (the scale of every source) and
        ``gshunt`` (a shunt on every node) are shared.  Returns a list of B
        solutions, None where a solve failed.

        ``chain`` (n_cap,) couples the last replica to replica 0: its
        ``cap_ieq`` row, formed from replica 0's start, moves by chain times
        each update of replica 0's capacitor voltages, before it is solved:
        exact Newton on the pair, which is linear in replica 0.  It converges
        no earlier than replica 0, with cfg.max_newton_iters iterations from
        replica 0's converging one; any failure ends the call.

        All active replicas share each iteration's work: one kernel call over
        every replica's transistors, scatters over the stacked stamp table,
        one stacked product and stacked solves.  These act on each replica
        alone and in a lone call's order, so an unchained replica's result is
        bit-identical to a lone call's; the chained one's currents gather the
        rounding of their moves.  A replica stops on the update that
        converges and returns the point plus that update, without evaluating
        the devices again; it leaves the stack then, as does a replica whose
        solve fails.  Terms that do not depend on the iterate (sources,
        shunts, capacitor companions, branch-row tolerances) are stamped once
        per call, and the residual tolerances only once an update is small.
        """
        cfg = self.cfg
        dim0, nb0, nn = self.dim0, self.branch0, self.n_nodes
        nrep = len(x0)
        if alpha != 1.0:
            src = src * alpha
        vs, cs = src[:, :self.n_branch], src[:, self.n_branch:]
        tab = self._stacks.get(nrep) or self._replicas(nrep)

        a_base = np.array([self.a_static] * nrep)
        if gshunt > 0.0:
            idx = np.arange(1, nb0)
            a_base[:, idx, idx] += gshunt
        if cap_geq is None:
            cap_geq = cap_ieq = np.zeros((nrep, self.cap_c.size))
        else:
            np.add.at(a_base.reshape(-1), tab.cap_stamp,
                      (cap_geq[:, :, None] * _G_SIGNS).ravel())
        if chain is not None:   # the last row's currents and right-hand side
            k_ieq = chain[:, None] * self.cap_inc[:, 1:]   # per unit update of replica 0
            k_rhs, cap_ieq = self.cap_inc.T @ k_ieq, cap_ieq.copy()
        b_full = np.bincount(tab.rhs_idx, np.concatenate(
            ((cs[:, :, None] * _I_SIGNS).reshape(nrep, -1), vs, cap_ieq, -cap_ieq),
            axis=1).ravel(), nrep * dim0).reshape(nrep, dim0, 1)
        # voltage-source rows are potential differences, not currents
        tol_branch = VNTOL + cfg.reltol * np.abs(vs)

        live = range(nrep)   # replica of each stacked row
        result = [None] * nrep
        self.fail = [None] * nrep
        xfull = np.zeros((nrep, dim0))
        xfull[:, 1:] = x0
        xf, xcol = xfull.reshape(-1), xfull[:, :, None]
        n_g, n_lin = self.cond_g.size, self.lin_a.size
        limit = cfg.max_newton_iters   # moved on for a chained replica, below
        for it in itertools.count():
            if it == limit or it == cfg.max_newton_iters and live[0] < nrep - 1:
                for k, rep in enumerate(live):
                    self._failed(rep, f_col[k, :, 0])
                break
            nrow = xfull.shape[0]
            v_d, v_g, v_s = xf[tab.m_dgs]
            # the kernel's rows, one row per replica
            idr, gm, gds = kernels.otft_eval(
                v_g - v_s, v_d - v_s, *tab.m_par, card=tab.card).reshape(3, nrow, -1)
            f_col = a_base @ xcol - b_full
            np.add.at(f_col.reshape(-1), tab.m_inj, np.concatenate((idr, -idr), axis=1).ravel())
            jac = a_base.copy()
            gsum = gm + gds
            np.add.at(jac.reshape(-1), tab.m_jac,
                      np.concatenate((gds, gm, -gsum, -gds, -gm, gsum), axis=1).ravel())
            couple = chain is not None and live[0] == 0 and live[-1] == nrep - 1
            dx = (self._update(jac[:-1], f_col[:-1], xfull[:-1]) if couple
                  else self._update(jac, f_col, xfull))
            if couple:
                cap_ieq[-1] += k_ieq @ dx[0]
                db = k_rhs @ dx[0]
                b_full[-1, :, 0] += db
                f_col[-1, :, 0] -= db
                dx = np.concatenate((dx, self._update(jac[-1:], f_col[-1:], xfull[-1:])))
            finite = np.isfinite(dx).all(axis=1).tolist()
            conv = (np.abs(dx[:, :nn]) < _VNTOL).all(axis=1).tolist()
            if True in conv:
                # residuals at the point just evaluated, against their tolerances;
                # each |branch current| counts at both ends of its branch
                v = xf[tab.res_idx].reshape(nrow, -1)
                dv = v[:, :n_lin] - v[:, n_lin:2 * n_lin]
                a_br = np.abs(np.concatenate((self.cond_g * dv[:, :n_g],
                                              cap_geq * dv[:, n_g:] - cap_ieq, cs,
                                              v[:, 2 * n_lin:], idr), axis=1))
                scale = np.bincount(tab.scale_idx, np.concatenate((a_br, a_br), axis=1).ravel(),
                                    xf.size)
                tol = (ABSTOL + cfg.reltol * scale).reshape(xfull.shape)
                tol[:, nb0:] = tol_branch
                within = (np.abs(f_col[:, 1:, 0]) <= tol[:, 1:]).all(axis=1).tolist()
                conv = [a and b for a, b in zip(conv, within)]
                if couple:
                    conv[-1] = conv[-1] and conv[0]
                    limit += it * conv[0]
            xfull[:, 1:] += dx
            if True in conv or False in finite:
                keep = []
                for k, (ok, fin) in enumerate(zip(conv, finite)):
                    if not fin:
                        self._failed(live[k], f_col[k, :, 0], jac[k])
                    elif ok:
                        result[live[k]] = xfull[k, 1:]   # a row not written again
                    else:
                        keep.append(k)
                if not keep or (chain is not None and False in finite):
                    break
                live = [live[k] for k in keep]
                if keep[-1] - keep[0] == len(keep) - 1:   # a run of rows: views
                    keep = slice(keep[0], keep[-1] + 1)
                xfull, f_col, a_base, b_full, cs, cap_geq, cap_ieq, tol_branch = (
                    a[keep] for a in (xfull, f_col, a_base, b_full, cs, cap_geq, cap_ieq,
                                      tol_branch))
                tab = self._replicas(len(live))
                xf, xcol = xfull.reshape(-1), xfull[:, :, None]
        return result

    def _update(self, jac, f_col, xfull):
        """Stacked Newton updates, NaN where singular, each node's update
        limited to DAMPING + 2 |v| about its voltage v in xfull."""
        a, b = jac[:, 1:, 1:], -f_col[:, 1:]
        try:
            dx = np.linalg.solve(a, b)[:, :, 0]
        except np.linalg.LinAlgError:   # replica by replica
            dx = np.full(b.shape[:2], np.nan)
            for k in range(len(b)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    dx[k] = np.linalg.solve(a[k], b[k, :, 0])
        dxn = dx[:, :self.n_nodes]
        # written so that NaN takes this branch: a NaN replica must not turn
        # the limit off for the rest of its stack (initial: a deck of no node)
        if not np.maximum.reduce(np.abs(dxn), axis=None, initial=0.0) <= DAMPING:
            hi = DAMPING + 2.0 * np.abs(xfull[:, 1:self.n_nodes + 1])
            np.minimum(np.maximum(dxn, -hi, out=dxn), hi, out=dxn)
        return dx

    def _failed(self, rep, f_full, jac=None):
        """Record a replica's failed Newton solve: its largest |residual| and its
        row, or the first node whose row of a singular matrix is all zero."""
        zero = [] if jac is None else np.flatnonzero(~jac[1:self.branch0, 1:].any(axis=1))
        r = int(zero[0] if len(zero) else np.argmax(np.abs(f_full[1:]))) + 1
        self.fail[rep] = (float(abs(f_full[r])),
                          f"node {self.unknown_names[r]}" if r < self.branch0
                          else f"i({self.vsource_names[r - self.branch0]})", len(zero) > 0)

    def error(self, message, at):
        """ConvergenceError for the first replica that failed in the last Newton call."""
        residual, row, no_path = next(f for f in self.fail if f is not None)
        cause = f"{row} has no DC path" if no_path else f"largest residual {residual:.3g} at {row}"
        return ConvergenceError(f"{message}; {cause}", residual=residual, at=at, row=row)

    def solve_dc(self, src, context="dc operating point"):
        """Newton at the source row ``src`` up the rescue ladder: plain, then
        gmin (shunts of 1e-3 S down to GMIN, then none), then source
        (levels 0.1 to 1.0).  Each rung's first solve starts from zero and
        each later one from the solve before; the first rung whose solves
        all converge gives the point."""
        for _name, solves in _RUNGS:
            x = np.zeros(self.dim0 - 1)
            for gshunt, alpha in solves:
                (x,) = self.newton(x[None], src[None], alpha=alpha, gshunt=gshunt)
                if x is None:
                    break
            else:
                return x
        raise self.error(f"{context}: no convergence (failed at source step {alpha:.1f})",
                         at=alpha)

    def node_voltages(self, x) -> dict[str, float]:
        xfull = np.concatenate(([0.0], x))
        return {n: float(xfull[self.node_index[n]]) for n in self.circuit.nodes}

    def columns_of(self, xs: np.ndarray) -> dict[str, np.ndarray]:
        """Waveform columns v(node) for circuit nodes and i(src) per V source."""
        cols = {f"v({n})": xs[:, self.node_index[n] - 1] for n in self.circuit_nodes}
        for k, name in enumerate(self.vsource_names):
            cols[f"i({name})"] = xs[:, self.branch0 - 1 + k]
        return cols


def dc_operating_point(c: Circuit, cfg: SolverConfig | None = None) -> dict[str, float]:
    """Node voltages of the DC solution (sources at their t = 0- levels)."""
    sys = _System(c, cfg or SolverConfig())
    return sys.node_voltages(sys.solve_dc(sys.sources()))


def _extrapolate(ts, xs, t):
    """Value at t of the polynomial through the last four (or fewer) points
    (ts[k], xs[k]), in Lagrange form: the predicted start of the next Newton
    solve.  An array t broadcasts against the points' values: t of shape
    (m, 1, ..., 1) gives the m values at once, also through a single point,
    each equal bit for bit to its own float call, and so do points of their
    own for each value: ts of shape (k, m, 1, ..., 1), xs of (k, m, ...), or
    of (k, 1, ...) shared by every value; for a few values the float calls
    are cheaper, the weights then being floats."""
    ts, xs = ts[-4:], xs[-4:]
    p = np.zeros(np.shape(t))
    for j, (tj, xj) in enumerate(zip(ts, xs)):
        w = 1.0
        for k, tk in enumerate(ts):
            if k != j:
                w = w * ((t - tk) / (tj - tk))
        p = p + w * xj
    return p


def _sweep_values(start, stop, step):
    return start + step * np.arange(sweep_count(start, stop, step))


# coarse values per stacked Newton call of a DC sweep (a fine call, whose
# starts interpolate, takes twice as many), and the stride of the coarse values
SWEEP_BLOCK = 32
SWEEP_STRIDE = 16


def dc_sweep(c: Circuit, directive: DcSweep, cfg: SolverConfig | None = None):
    """Swept-source DC solution by block continuation.

    Returns a Waveform; if the directive has a secondary sweep, returns a
    list of Waveforms (one per secondary value, labeled `src2=value`).

    One loop of Newton calls solves every curve, each call's replicas every
    (value, live curve) pair of a block of values: the first value cold,
    then every SWEEP_STRIDE-th value and the last in blocks of SWEEP_BLOCK,
    each replica from its curve's polynomial through the three coarse
    values before its block, then every other value in blocks of
    2 * SWEEP_BLOCK, each from the cubic through its curve's four coarse
    values nearest it.  A replica that fails climbs the rescue ladder alone
    (see _System.solve_dc); a curve that fails there leaves the sweep, whose
    error is raised once the other curves are done, so the first failing
    curve is the one reported.
    """
    d = directive
    sys = _System(c, cfg or SolverConfig())
    extras, labels = [{}], [""]
    if d.source2 is not None:
        outer = _sweep_values(d.start2, d.stop2, d.step2)
        extras = [{d.source2: float(v)} for v in outer]
        labels = [f"{d.source2}={v:g}" for v in outer]
    for name in (d.source, *extras[0]):
        if name not in sys.source_index:
            raise KeyError(f"dc sweep: unknown source {name!r}")
    values = _sweep_values(d.start, d.stop, d.step)
    curves = np.array([sys.sources(overrides=extra) for extra in extras])
    swept = sys.source_index[d.source]
    rows = np.zeros((values.size, len(extras), sys.dim0 - 1))
    live = list(range(len(extras)))   # curves that have not failed
    errors = {}
    coarse = np.array([*range(0, values.size - 1, SWEEP_STRIDE), values.size - 1])
    fine = np.setdiff1d(np.arange(values.size), coarse)
    # each fine value's four nearest coarse points, as (4, values) sweep indices
    near = coarse[np.clip(fine // SWEEP_STRIDE - 1, 0, max(coarse.size - 4, 0))
                  + np.arange(min(coarse.size, 4))[:, None]]
    # each call's sweep indices and their start points as (points, values)
    # sweep indices; a coarse block's one column of points serves all its values
    blocks = [(coarse[:1], None),
              *((coarse[p:p + SWEEP_BLOCK], coarse[max(p - 3, 0):p, None])
                for p in range(1, coarse.size, SWEEP_BLOCK)),
              *((fine[b:b + 2 * SWEEP_BLOCK], near[:, b:b + 2 * SWEEP_BLOCK])
                for b in range(0, fine.size, 2 * SWEEP_BLOCK))]
    for idx, pts in blocks:
        if not live:
            break
        called = list(live)
        # a source row per replica, (value, curve) pairs value after value
        src = np.tile(curves[called], (idx.size, 1))
        src[:, swept] = values[idx].repeat(len(called))
        xs = [None] * len(src) if pts is None else sys.newton(_extrapolate(
            values[pts, None, None], rows[pts][:, :, called],
            values[idx, None, None]).reshape(len(src), -1), src)
        if not any(x is None for x in xs):
            rows[np.ix_(idx, called)] = np.reshape(xs, (idx.size, len(called), -1))
            continue
        for r, (x, row) in enumerate(zip(xs, src)):
            i, k = idx[r // len(called)], called[r % len(called)]
            if k not in live:
                continue
            if x is None:
                at = f"dc sweep at {d.source}={values[i]:g}"
                try:
                    x = sys.solve_dc(row, f"{at} ({labels[k]})" if labels[k] else at)
                except ConvergenceError as e:
                    errors[k] = e
                    live.remove(k)
                    continue
            rows[i, k] = x
    if errors:
        raise errors[min(errors)]
    waves = [Waveform(axis_name=d.source, axis=values, columns=sys.columns_of(rows[:, k]),
                      label=label) for k, label in enumerate(labels)]
    return waves if d.source2 is not None else waves[0]


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

    cap_c = sys.cap_c
    if ic is None:
        x = sys.solve_dc(sys.sources(0.0), "transient t=0 operating point")
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

    def vab(xv):
        xfull = np.concatenate(([0.0], xv))
        return xfull[sys.cap_a] - xfull[sys.cap_b]

    def steps_from(state, t_new, hs, method, path):
        """Solve steps of widths hs ending at the times t_new from the state
        (x, capacitor currents, capacitor voltages) as one Newton call, each
        from the polynomial through the points path = (times, xs) and with
        the sources at its own time: the solutions (None where failed) and the last step's new
        state.  Three steps are an attempt, the last chained to the first;
        the new state re-forms its history from the first's solution: the
        iterated one to rounding, so an accepted attempt's half step and new
        point lie on one path."""
        _x, i_in, v_in = state
        geq = (1.0 if method == "be" else 2.0) * cap_c / np.array(hs)[:, None]

        def companion(g, v, i):
            return g * v if method == "be" else g * v + i

        def second_half(xv):   # its companions from the first half step's x
            return companion(geq[2], v := vab(xv), geq[0] * v - ieq[0])

        ieq = companion(geq, v_in, i_in)
        at = {tn: (_extrapolate(*path, tn), sys.sources(tn))   # see _extrapolate
              for tn in dict.fromkeys(t_new)}
        x0, src = (np.array(a) for a in zip(*(at[tn] for tn in t_new)))
        chain = None
        if len(hs) == 3:   # second_half is linear: the chain is its slope
            ieq[2], chain = second_half(x0[0]), companion(geq[2], 1.0, geq[0])
        sols = sys.newton(x0, src, cap_geq=geq, cap_ieq=ieq, chain=chain)
        if sols[-1] is None:
            return sols, None
        ie = ieq[-1] if chain is None else second_half(sols[0])
        return sols, (sols[-1], geq[-1] * (v := vab(sols[-1])) - ie, v)

    state = (x, np.zeros(cap_c.size), vab(x))
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
            _x, state = steps_from(state, [t + h_eff], [h_eff], method, (times, states))
            if state is None:
                raise sys.error(f"transient: no convergence at t={t + h_eff:g}",
                                at=t + h_eff)
            t += h_eff
            times.append(t)
            states.append(state[0].copy())
    else:
        h = min(directive.step, stop / 1000.0, max_h)
        order = 1 if cfg.method == "be" else 2
        nn = sys.n_nodes
        path = (times[:], states[:])   # the last four points of the half-step path
        while t < stop - 1e-15 * stop:
            h = min(max(h, cfg.min_step), max_h, stop - t)
            method = "be" if (first_be and t == 0.0) else cfg.method
            (xh, xf, xh2), half = steps_from(state, [t + 0.5 * h, t + h, t + h],
                                             [0.5 * h, h, 0.5 * h], method, path)
            if xf is None or half is None:
                h *= 0.5
                if h < cfg.min_step:
                    raise sys.error(f"transient: step underflow at t={t:g}", at=t)
                continue
            ratio = np.abs(xh2[:nn] - xf[:nn]) / (cfg.lte_tol * (1.0 + np.abs(xh2[:nn])))
            eta = float(np.max(ratio)) if nn else 0.0
            if eta <= 1.0:
                path = (path[0][-2:] + [t + 0.5 * h, t + h], path[1][-2:] + [xh, xh2])
                t += h
                state = half
                first_be = False
                times.append(t)
                states.append(xh2.copy())
                grow = 2.0 if eta <= 0.0 else min(2.0, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= max(grow, 0.5)
            else:
                shrink = max(0.2, 0.9 * eta ** (-1.0 / (order + 1)))
                h *= min(shrink, 0.9)
                if h < cfg.min_step:
                    worst = f"node {sys.unknown_names[int(np.argmax(ratio)) + 1]}"
                    raise ConvergenceError(
                        f"transient: step underflow at t={t:g}; largest LTE ratio "
                        f"{eta:.3g} at {worst}", at=t, row=worst)
    xs = np.vstack(states)
    return Waveform(axis_name="time", axis=np.array(times), columns=sys.columns_of(xs))
