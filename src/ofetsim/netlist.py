"""SPICE-like netlist dialect: parsing, flattening, validation, serialization.

Grammar (line-oriented, case-insensitive; `*` starts a comment line, `+`
continues the previous line; the first line is always the title):

    R/C<name> n+ n- value
    V<name> n+ n- [DC] value | PULSE(v1 v2 td tr tf ton period) | SIN(vo va f td theta)
    I<name> n+ n- [DC] value | PULSE(...)
    M<name> d g s modelname [W=..] [L=..] [LOV=..] [STRAIN=.. DIR=PAR|PERP] [param=..]
    X<name> node... subcktname
    .model <name> OTFTP|OTFTN key=value...
    .subckt <name> ports... / .ends
    .param name=value ...
    .op | .dc SRC start stop step [SRC2 start2 stop2 step2]
    .tran step stop [maxstep] | .mc count seed [param=normal(a,b) ...]
    .end

Engineering suffixes f p n u m k meg g t and mil (25.4e-6) are understood;
`meg` and `mil` are read before `m`.  Parentheses and commas count as
whitespace; a bare identifier in a value position resolves against
`.param` constants.  Subcircuits are flattened with hierarchical names
(`x1.node`, element `rx1.r1`), so the serialized form is flat and
`parse(serialize(parse(text)))` is a fixed point.  A `.subckt` port may
appear once and may not be ground `0`.

Every record holds its own rules and raises ValueError when built against
them, whether by the parser or in code, so no circuit that round-trips
badly can be built: `SourceWave` (shape, argument count, finite values),
`DcSweep` (finite positive steps, stop >= start, a secondary sweep given
whole and on another source, at most MAX_SWEEP_POINTS points in all),
`Tran` (finite positive step, stop and maxstep, at most MAX_TRAN_STEPS
steps) and `Mc` (count of at most MAX_MC_COUNT, seed, parameters,
distributions, spreads).  The parser reports a record's
ValueError at its card line.  One table, `_DIRECTIVES`, gives the card
grammar of `.op`, `.dc` and `.tran` to both parse and serialize.  An
override is a model-card key, `strain` or `dir` (`par` or `perp`); the
parser and `Circuit.with_otft_overrides` apply the same check.
`card_with` turns a model card and an instance's overrides into the
effective card, strain included; `validate` reports every transistor whose
effective card the model rejects.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field, replace
from typing import Union

from .model import (DeviceGeometry, OtftParams, ParameterError, StrainState,
                    apply_strain)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    message: str

    def __str__(self):
        return f"{self.severity}: line {self.line}: {self.message}"


class NetlistError(Exception):
    """Parse or validation failure; carries all collected diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


# per source shape: position of the operating level in SourceWave.args, and
# the fewest and most arguments a card gives (missing ones are 0)
_SHAPES = {"dc": (0, 1, 1), "pulse": (1, 2, 7), "sin": (0, 3, 5)}


@dataclass(frozen=True)
class SourceWave:
    """Time shape of an independent source.

    kinds: "dc" (value,); "pulse" (v1, v2, td, tr, tf, ton, period) where
    period <= 0 means one-shot and ton <= 0 means hold-until-period-end;
    "sin" (vo, va, freq, td, theta).  Trailing arguments a card may omit
    are padded with 0.  Raises ValueError on an unknown kind, too few or
    too many arguments, or an argument that is not finite.
    """

    kind: str
    args: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _SHAPES:
            raise ValueError(f"unknown source shape {self.kind!r}")
        _k, lo, hi = _SHAPES[self.kind]
        if not lo <= len(self.args) <= hi:
            raise ValueError(f"{self.kind} takes "
                             + (f"{lo}..{hi} arguments" if lo < hi else "one value"))
        args = tuple(float(a) for a in self.args)
        if not all(map(math.isfinite, args)):
            raise ValueError(f"{self.kind} arguments must be finite, got {args}")
        object.__setattr__(self, "args", args + (0.0,) * (hi - len(args)))

    def value(self, t: float | None) -> float:
        if self.kind == "dc":
            return self.args[0]
        if self.kind == "pulse":
            v1, v2, td, tr, tf, ton, period = self.args
            if t is None or t <= td:
                return v1
            tau = t - td
            if period > 0.0:
                tau = tau % period
            if tau < tr:
                return v1 + (v2 - v1) * (tau / tr if tr > 0.0 else 1.0)
            tau -= tr
            if ton <= 0.0 or tau < ton:
                return v2
            tau -= ton
            if tau < tf:
                return v2 + (v1 - v2) * (tau / tf if tf > 0.0 else 1.0)
            return v1
        # sin
        vo, va, freq, td, theta = self.args
        if t is None or t <= td:
            return vo
        return vo + va * math.exp(-(t - td) * theta) * math.sin(2.0 * math.pi * freq * (t - td))

    @property
    def level(self) -> float:
        """The operating level: DC value, pulse high value, or sine offset."""
        return self.args[_SHAPES[self.kind][0]]

    def with_level(self, level: float) -> "SourceWave":
        """The same wave with its operating level replaced."""
        k = _SHAPES[self.kind][0]
        return SourceWave(self.kind, self.args[:k] + (level,) + self.args[k + 1:])


@dataclass(frozen=True)
class Element:
    """One flattened circuit element.

    nodes: R/C/V/I hold (n+, n-); M holds (drain, gate, source).
    overrides: sorted (key, value) pairs from the M card (w, l, lov, strain,
    dir, or any model parameter by its dialect name, e.g. "lambda").
    """

    kind: str  # "R" | "C" | "V" | "I" | "M"
    name: str
    nodes: tuple[str, ...]
    value: float | None = None
    wave: SourceWave | None = None
    model: str | None = None
    overrides: tuple[tuple[str, Union[float, str]], ...] = ()
    # netlist line of the element's own card (0 when built in code); not
    # part of the element's identity, so equality and serialize ignore it
    line: int = field(default=0, compare=False)

    def override(self, key: str, default=None):
        for k, v in self.overrides:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class DcOp:
    pass


# most points one .dc may solve, its secondary sweep included
MAX_SWEEP_POINTS = 10 ** 6
# most replicas one .mc may draw
MAX_MC_COUNT = 10 ** 5
# most steps of its step (or maxstep, if smaller) one .tran may span
MAX_TRAN_STEPS = 10 ** 6


def sweep_count(start: float, stop: float, step: float) -> int:
    """Points of the sweep start, start + step, ... up to stop.  ValueError
    unless the step is finite and positive and stop >= start (NaN fails every
    comparison), or once (stop - start) / step, overflow included, reaches
    MAX_SWEEP_POINTS."""
    if not (0.0 < step < math.inf and stop >= start):
        raise ValueError(f"needs a finite step > 0 and stop >= start, got {start} {stop} {step}")
    if not (stop - start) / step < MAX_SWEEP_POINTS:
        raise ValueError(f"sweeps more than {MAX_SWEEP_POINTS} points")
    return int(math.floor((stop - start) / step + 1e-9)) + 1 if stop > start else 1


@dataclass(frozen=True)
class DcSweep:
    """`source` swept from start to stop by step, once per value of an
    optional secondary sweep of `source2`; source names are held in lower
    case.  Raises ValueError on a sweep sweep_count refuses, secondary fields
    not all set or all None, a secondary source that is the swept one, or
    more than MAX_SWEEP_POINTS points in all."""

    source: str
    start: float
    stop: float
    step: float
    source2: str | None = None
    start2: float | None = None
    stop2: float | None = None
    step2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "source", self.source.lower())
        n = sweep_count(self.start, self.stop, self.step)
        second = (self.source2, self.start2, self.stop2, self.step2)
        if second != (None,) * 4:
            if None in second:
                raise ValueError("a secondary sweep needs SRC2 start2 stop2 step2")
            object.__setattr__(self, "source2", self.source2.lower())
            if self.source2 == self.source:
                raise ValueError(f"secondary source {self.source2!r} is the swept source")
            n *= sweep_count(self.start2, self.stop2, self.step2)
        if n > MAX_SWEEP_POINTS:
            raise ValueError(f"sweeps more than {MAX_SWEEP_POINTS} points")


@dataclass(frozen=True)
class Tran:
    """Transient from 0 to stop at step, no wider than max_step; ValueError
    unless each is finite and positive (NaN fails every comparison) and
    stop / min(step, max_step), overflow included, is at most MAX_TRAN_STEPS."""

    step: float
    stop: float
    max_step: float | None = None

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.stop < math.inf):
            raise ValueError(f"needs finite positive step and stop, got {self.step} {self.stop}")
        if self.max_step is not None and not 0.0 < self.max_step < math.inf:
            raise ValueError(f"needs a finite positive maxstep, got {self.max_step}")
        h = self.step if self.max_step is None else min(self.step, self.max_step)
        if not self.stop / h <= MAX_TRAN_STEPS:
            raise ValueError(f"spans more than {MAX_TRAN_STEPS} steps of {h:g}")


@dataclass(frozen=True)
class Mc:
    """Mismatch experiment: replica count, seed, and per-parameter draws.

    dists entries are (param, kind, a, b) with param one of vth, mu0, ss,
    lambda, gamma, rc and kind "normal" (a = mean, b = sigma) or "lognormal"
    (a = median, b = sigma of log).  Every transistor instance receives an independent draw
    of each parameter.  Raises ValueError on a count that is not an integer
    in [1, MAX_MC_COUNT], a seed that is no Philox key (an integer in [0, 2**128)), an
    unknown parameter or kind, or a negative sigma.  ``line`` is the netlist
    line of the `.mc` card (0 when built in code).
    """

    count: int
    seed: int
    dists: tuple[tuple[str, str, float, float], ...] = ()
    line: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (1 <= self.count <= MAX_MC_COUNT and float(self.count).is_integer()):
            raise ValueError(f"count must be an integer in [1, {MAX_MC_COUNT}], got {self.count}")
        if not (0 <= self.seed < 2 ** 128 and float(self.seed).is_integer()):
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed}")
        for p, kind, _a, b in self.dists:
            if p not in _MC_PARAMS:
                raise ValueError(f"unknown parameter {p!r}")
            if kind not in ("normal", "lognormal"):
                raise ValueError(f"unknown distribution {kind!r} for {p}")
            if not b >= 0:
                raise ValueError(f"{p} spread must be >= 0, got {b}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "seed", int(self.seed))


AnalysisDirective = Union[DcOp, DcSweep, Tran, Mc]


@dataclass(frozen=True, eq=True)
class Circuit:
    """Flattened immutable circuit."""

    title: str
    nodes: tuple[str, ...]  # ground "0" first, then first-use order
    elements: tuple[Element, ...]
    models: tuple[tuple[str, OtftParams], ...]  # sorted by name
    analyses: tuple[AnalysisDirective, ...]
    params: tuple[tuple[str, float], ...]  # sorted .param constants

    def model_card(self, name: str) -> OtftParams:
        for n, p in self.models:
            if n == name:
                return p
        raise KeyError(name)

    def element(self, name: str) -> Element:
        key = name.lower()
        for e in self.elements:
            if e.name == key:
                return e
        raise KeyError(name)

    def _with_changed(self, changed: dict[str, Element]) -> "Circuit":
        """New circuit with each element named in `changed` swapped for its value."""
        return replace(self, elements=tuple(changed.get(e.name, e)
                                            for e in self.elements))

    def with_source_level(self, name: str, level: float) -> "Circuit":
        """New circuit with a V/I source's operating level replaced."""
        e = self.element(name)
        if e.kind not in ("V", "I"):
            raise KeyError(f"{name} is not a source")
        return self._with_changed({e.name: replace(e, wave=e.wave.with_level(level))})

    def with_otft_overrides(self, updates: dict) -> "Circuit":
        """Merge per-instance override values; updates: name -> {key: value}.

        Raises KeyError for a name that is no transistor and ValueError for
        an override the netlist dialect cannot hold (see _override).
        """
        ups = {k.lower(): v for k, v in updates.items()}
        changed = {}
        for e in self.elements:
            if e.name in ups:
                if e.kind != "M":
                    raise KeyError(f"{e.name} is not a transistor")
                merged = dict(e.overrides)
                for k, v in ups[e.name].items():
                    key = k.lower()
                    merged[key] = _override(key, v)
                changed[e.name] = replace(e, overrides=tuple(sorted(merged.items())))
        unknown = sorted(set(ups) - set(changed))
        if unknown:
            raise KeyError(f"no transistor named {', '.join(unknown)}")
        return self._with_changed(changed)

    def with_strain(self, epsilon: float, orientation: str) -> "Circuit":
        """Apply one strain state to every transistor instance.

        orientation is a StrainState orientation ("parallel" or
        "perpendicular"); ParameterError if the state is invalid.
        """
        s = StrainState(float(epsilon), orientation)
        dirtok = next(k for k, v in _DIRS.items() if v == s.orientation)
        ups = {e.name: {"strain": s.epsilon, "dir": dirtok}
               for e in self.elements if e.kind == "M"}
        return self.with_otft_overrides(ups)

    def with_analyses(self, analyses) -> "Circuit":
        """New circuit with these directives; ValueError for a .dc of no source."""
        c = replace(self, analyses=tuple(analyses))
        missing = _unknown_sources(c.elements, c.analyses)
        if missing:
            raise ValueError(f".dc: {missing[0][1]!r} names no V or I source")
        return c


# -- tokenization -------------------------------------------------------------

_NUM_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)([a-z]*)\Z")
_SUFFIX = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
           "k": 1e3, "g": 1e9, "t": 1e12}

# The model-card vocabulary in card order: (dialect key, OtftParams field,
# default, None for a required key).  w, l and lov are fields of
# OtftParams.geom.  Parsing, serializing and instance overrides all read it.
_CARD = (("mu0", "mu0", None), ("vth", "vth", None), ("ss", "ss", None),
         ("lambda", "lam", 0.0), ("gamma", "gamma", 0.0), ("rc", "rc", 0.0),
         ("cox", "cox", None), ("w", "w", None), ("l", "l", None),
         ("lov", "lov", 0.0), ("order", "order", 3.0))
_CARD_KEYS = {k for k, _f, _d in _CARD}
_GEOM_KEYS = ("w", "l", "lov")
_OVERRIDE_KEYS = _CARD_KEYS | {"strain", "dir"}
_DIRS = {"par": "parallel", "perp": "perpendicular"}  # dir token -> StrainState
_MC_PARAMS = {"vth", "mu0", "ss", "lambda", "gamma", "rc"}


def _override(key: str, value):
    """`value` as instance override `key` holds it: a dir token for dir, else a
    finite float.  Raises ValueError if the dialect cannot hold the pair."""
    if key not in _OVERRIDE_KEYS:
        raise ValueError(f"unknown override {key!r}")
    if key == "dir":
        if value not in _DIRS:
            raise ValueError(f"dir must be par or perp, got {value!r}")
        return value
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"override {key} must be finite, got {value}")
    return value


def card_with(card: OtftParams, overrides) -> OtftParams:
    """The effective instance card: `card` under an instance's overrides.

    `overrides` maps dialect keys (e.g. "lambda", "w", "strain") to values,
    as a dict or as Element.overrides pairs.  Card keys replace card
    entries; a `strain` then stretches the card along `dir` (default par).
    """
    values = dict(overrides)
    changes = {f: float(values[k]) for k, f, _d in _CARD
               if k in values and k not in _GEOM_KEYS}
    geom = {k: float(values[k]) for k in _GEOM_KEYS if k in values}
    if geom:
        changes["geom"] = replace(card.geom, **geom)
    p = card.replace(**changes) if changes else card
    if "strain" in values:
        p = apply_strain(p, StrainState(float(values["strain"]),
                                        _DIRS[values.get("dir", "par")]))
    return p


def _tokenize(line: str) -> list[str]:
    text = line.lower().replace("(", " ").replace(")", " ").replace(",", " ")
    text = re.sub(r"\s*=\s*", "=", text)
    return text.split()


class _Parser:
    def __init__(self, params_override: dict | None):
        self.diags: list[Diagnostic] = []
        self.params_override = {k.lower(): float(v)
                                for k, v in (params_override or {}).items()}
        self.params: dict[str, float] = dict(self.params_override)
        self.models: dict[str, OtftParams] = {}
        self.elements: list[Element] = []
        self.analyses: list = []
        self.lines: list[int] = []  # card line of each analysis
        self.names: set[str] = set()
        self.nodes = {"0": None}  # node names in first-use order

    def error(self, line: int, msg: str):
        self.diags.append(Diagnostic("error", line, msg))

    def number(self, tok: str, line: int, what: str) -> float | None:
        if tok in self.params:
            val = self.params[tok]
        else:
            m = _NUM_RE.match(tok)
            if not m:
                self.error(line, f"{what}: malformed number or unknown parameter {tok!r}")
                return None
            val = float(m.group(1))
            suffix = m.group(2)
            if suffix.startswith("meg"):
                val *= 1e6
            elif suffix.startswith("mil"):
                val *= 25.4e-6
            elif suffix and suffix[0] in _SUFFIX:
                val *= _SUFFIX[suffix[0]]
            # any remaining letters are units and are ignored
        if not math.isfinite(val):
            self.error(line, f"{what}: {tok!r} is not a finite number")
            return None
        return val

    # -- cards ---------------------------------------------------------------

    def kwargs(self, toks: list[str], line: int, what: str):
        out = {}
        for t in toks:
            if "=" not in t:
                self.error(line, f"{what}: expected key=value, got {t!r}")
                continue
            k, v = t.split("=", 1)
            out[k] = v
        return out

    def parse_model_card(self, toks: list[str], line: int):
        if len(toks) < 3:
            self.error(line, ".model needs a name and a type")
            return
        name, mtype = toks[1], toks[2]
        if mtype not in ("otftp", "otftn"):
            self.error(line, f".model type must be otftp or otftn, got {mtype!r}")
            return
        raw = self.kwargs(toks[3:], line, f".model {name}")
        vals = {}
        for k, v in raw.items():
            if k not in _CARD_KEYS:
                self.error(line, f".model {name}: unknown key {k!r}")
                return
            num = self.number(v, line, f".model {name} key {k}")
            if num is None:
                return
            vals[k] = num
        missing = [k for k, _f, d in _CARD if d is None and k not in vals]
        if missing:
            self.error(line, f".model {name}: missing key(s) {', '.join(missing)}")
            return
        if name in self.models:
            self.error(line, f"duplicate model name {name!r}")
            return
        card = {f: vals.get(k, d) for k, f, d in _CARD}
        try:
            geom = DeviceGeometry(**{f: card.pop(f) for f in _GEOM_KEYS})
            self.models[name] = OtftParams(
                polarity="p" if mtype == "otftp" else "n", geom=geom, **card)
        except ParameterError as exc:
            self.error(line, f".model {name}: {exc}")

    def parse_source(self, kind: str, name: str, rest: list[str], line: int):
        shape, *vals = rest
        if shape not in _SHAPES and (_NUM_RE.match(shape) or shape in self.params):
            shape, vals = "dc", rest  # a bare value is a dc level
        if shape == "sin" and kind == "I":
            self.error(line, f"{name}: current sources support dc and pulse only")
            return None
        args = [self.number(t, line, name) for t in vals]
        if None in args:
            return None
        try:
            return {"wave": SourceWave(shape, tuple(args))}
        except ValueError as exc:
            self.error(line, f"{name}: {exc}")
            return None

    def parse_rc(self, kind: str, name: str, rest: list[str], line: int):
        v = self.number(rest[0], line, name)
        return None if v is None else {"value": v}

    def parse_otft(self, kind: str, name: str, rest: list[str], line: int):
        raw = self.kwargs(rest[1:], line, name)
        overrides = {}
        for k, v in raw.items():
            if k in _OVERRIDE_KEYS and k != "dir":
                v = self.number(v, line, f"{name} override {k}")
                if v is None:
                    return None
            try:
                overrides[k] = _override(k, v)
            except ValueError as exc:
                self.error(line, f"{name}: {exc}")
                return None
        if rest[0] not in self.models:
            self.error(line, f"{name}: undefined model {rest[0]!r}")
            return None
        return {"model": rest[0], "overrides": tuple(sorted(overrides.items()))}

    def parse_analysis(self, toks: list[str], line: int):
        card, args = toks[0], toks[1:]
        if card == ".mc":
            if len(args) < 2:
                self.error(line, ".mc takes count seed [param=dist a b ...]")
                return
            cnt = self.number(args[0], line, ".mc count")
            seed = self.number(args[1], line, ".mc seed")
            if cnt is None or seed is None:
                return
            dists = []
            for j in range(2, len(args), 3):
                t, *ab = args[j:j + 3]
                if "=" not in t:
                    self.error(line, f".mc: expected param=dist, got {t!r}")
                    return
                if len(ab) < 2:
                    self.error(line, f".mc: {t} needs two arguments")
                    return
                nums = [self.number(v, line, ".mc") for v in ab]
                if None in nums:
                    return
                dists.append((*t.split("=", 1), *nums))
            self.add_analysis(line, card, Mc, cnt, seed, tuple(dists), line)
            return
        if card not in _DIRECTIVES:
            self.error(line, f"unknown card {card!r}")
            return
        record, usage = _DIRECTIVES[card]
        words = usage.replace("[", "").replace("]", "").split()
        if len(args) not in (len(usage.partition("[")[0].split()), len(words)):
            self.error(line, f"{card} takes {usage or 'no arguments'}")
            return
        vals = [t if w.isupper() else self.number(t, line, card)
                for w, t in zip(words, args)]
        if None in vals:
            return
        self.add_analysis(line, card, record, *vals)

    def add_analysis(self, line: int, card: str, record, *args):
        """Append the record built from args, or report its ValueError."""
        try:
            self.analyses.append(record(*args))
            self.lines.append(line)
        except ValueError as exc:
            self.error(line, f"{card}: {exc}")


# Analysis directives besides .mc: keyword -> (record, usage).  The usage is
# the card grammar: each word is the next record field, an upper-case word a
# source name and any other a number; a bracketed tail is given whole or not
# at all.  serialize writes the fields in order, source names as they are.
_DIRECTIVES = {
    ".op": (DcOp, ""),
    ".dc": (DcSweep, "SRC start stop step [SRC2 start2 stop2 step2]"),
    ".tran": (Tran, "step stop [maxstep]"),
}


def _unknown_sources(elements, analyses) -> list[tuple[int, str]]:
    """(k, name) for each source the k-th directive sweeps that no V or I
    element is."""
    sources = {e.name for e in elements if e.kind in ("V", "I")}
    return [(k, s) for k, d in enumerate(analyses) if isinstance(d, DcSweep)
            for s in (d.source, d.source2) if s is not None and s not in sources]


# Element cards by letter: (kind, terminal count, most values after the
# terminals or None for no limit, message for a card too short, parser).
# A parser takes (kind, flattened name, values, line) and returns the
# element's remaining fields, or None after reporting an error.
_ELEMENTS = {
    "r": ("R", 2, 1, "R card needs two nodes and a value", _Parser.parse_rc),
    "c": ("C", 2, 1, "C card needs two nodes and a value", _Parser.parse_rc),
    "v": ("V", 2, None, "V card needs two nodes and a value", _Parser.parse_source),
    "i": ("I", 2, None, "I card needs two nodes and a value", _Parser.parse_source),
    "m": ("M", 3, None, "{name}: transistor needs d g s and a model name",
          _Parser.parse_otft),
}


def _logical_lines(text: str):
    """Join `+` continuations; yields (first_line_number, text)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("+"):
            if out:
                out[-1] = (out[-1][0], out[-1][1] + " " + stripped[1:])
            continue
        out.append((lineno, raw.rstrip("\n")))
    return out


def parse(text: str, params: dict | None = None) -> Circuit:
    """Parse netlist text into a flattened Circuit.

    `params` overrides `.param` constants before any card is read, so
    `.param` cards see the overrides too (used for ratio studies).  Raises
    NetlistError carrying line-numbered diagnostics if any error is found.
    """
    p = _Parser(params)
    lines = _logical_lines(text)
    if not lines:
        raise NetlistError([Diagnostic("error", 1, "empty netlist")])
    title = lines[0][1].strip()
    body = []
    for lineno, raw in lines[1:]:
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        body.append((lineno, _tokenize(stripped)))

    # pass 1: collect subcircuit definitions and .param constants
    subckts: dict[str, tuple[int, list[str], list]] = {}
    top: list[tuple[int, list[str]]] = []
    current = None  # (line, name, ports, body)
    ended = False
    for lineno, toks in body:
        if not toks:
            continue
        card = toks[0]
        if ended:
            p.diags.append(Diagnostic("warning", lineno, "content after .end ignored"))
            continue
        if card == ".end":
            ended = True
            continue
        if card == ".subckt":
            if current is not None:
                p.error(lineno, "nested .subckt definitions are not supported")
                continue
            if len(toks) < 3:
                p.error(lineno, ".subckt needs a name and at least one port")
                current = (lineno, None, [], [])
                continue
            ports = toks[2:]
            if "0" in ports:
                p.error(lineno, f".subckt {toks[1]}: ground node 0 cannot be a port")
            for port in sorted({q for q in ports if ports.count(q) > 1}):
                p.error(lineno, f".subckt {toks[1]}: repeated port {port!r}")
            current = (lineno, toks[1], ports, [])
            continue
        if card == ".ends":
            if current is None:
                p.error(lineno, ".ends without matching .subckt")
                continue
            _, name, ports, cbody = current
            if name is not None:
                if name in subckts:
                    p.error(lineno, f"duplicate subcircuit {name!r}")
                else:
                    subckts[name] = (lineno, ports, cbody)
            current = None
            continue
        if current is not None:
            if card == ".param":
                p.error(lineno, ".param is only allowed at top level")
            else:
                current[3].append((lineno, toks))
            continue
        if card == ".param":
            for k, v in p.kwargs(toks[1:], lineno, ".param").items():
                num = p.number(v, lineno, f".param {k}")
                if num is not None and k not in p.params_override:
                    p.params[k] = num
            continue
        top.append((lineno, toks))
    if current is not None:
        p.error(current[0], f".subckt {current[1]!r} never closed with .ends")

    # pass 2: models first so instances can bind in file order
    cards = []
    for lineno, toks in top:
        if toks[0] == ".model":
            p.parse_model_card(toks, lineno)
        else:
            cards.append((lineno, toks))

    # pass 3: elements, subcircuit expansion, analyses
    def expand(lineno, toks, prefix, nodemap, stack):
        card = toks[0]
        letter = card[0]
        if card.startswith("."):
            p.error(lineno, f"directive {card!r} not allowed inside .subckt")
            return
        if len(toks) < 2 or len(card) < 2:
            p.error(lineno, f"unrecognized card {card!r}")
            return

        def map_node(n):
            if n == "0":
                return "0"
            if n in nodemap:
                return nodemap[n]
            return f"{prefix}.{n}" if prefix else n

        if letter == "x":
            if len(toks) < 3:
                p.error(lineno, f"{card}: instance needs nodes and a subcircuit name")
                return
            sname = toks[-1]
            if sname not in subckts:
                p.error(lineno, f"{card}: undefined subcircuit {sname!r}")
                return
            if sname in stack:
                p.error(lineno, f"{card}: recursive subcircuit {sname!r}")
                return
            _, ports, sbody = subckts[sname]
            conns = toks[1:-1]
            if len(conns) != len(ports):
                p.error(lineno, f"{card}: {sname} has {len(ports)} ports, got {len(conns)}")
                return
            inner_prefix = f"{prefix}.{card}" if prefix else card
            inner_map = {port: map_node(n) for port, n in zip(ports, conns)}
            for bl, btoks in sbody:
                expand(bl, btoks, inner_prefix, inner_map, stack + (sname,))
            return

        if letter not in _ELEMENTS:
            p.error(lineno, f"unknown card {card!r}")
            return
        kind, nterm, most, short, parser = _ELEMENTS[letter]
        name = f"{letter}{prefix}.{card}" if prefix else card
        rest = toks[1 + nterm:]
        if not rest or (most is not None and len(rest) > most):
            p.error(lineno, short.format(name=name))
            return
        # an element error fails the whole parse, so nodes may be touched first
        nodes = tuple(map_node(n) for n in toks[1:1 + nterm])
        p.nodes.update(dict.fromkeys(nodes))
        fields = parser(p, kind, name, rest, lineno)
        if fields is None:
            return
        if name in p.names:
            p.error(lineno, f"duplicate element name {name!r}")
            return
        p.names.add(name)
        p.elements.append(Element(kind, name, nodes, line=lineno, **fields))

    for lineno, toks in cards:
        if toks[0].startswith("."):
            p.parse_analysis(toks, lineno)
        else:
            expand(lineno, toks, "", {}, ())

    # swept sources may be defined after the directive
    for k, src in _unknown_sources(p.elements, p.analyses):
        p.error(p.lines[k], f".dc: {src!r} names no V or I source")

    if any(d.severity == "error" for d in p.diags):
        raise NetlistError(p.diags)

    return Circuit(title=title, nodes=tuple(p.nodes), elements=tuple(p.elements),
                   models=tuple(sorted(p.models.items())), analyses=tuple(p.analyses),
                   params=tuple(sorted(p.params.items())))


# -- validation ---------------------------------------------------------------


def validate(c: Circuit) -> list[Diagnostic]:
    """All invariant violations; an empty list means simulatable.

    Errors: non-positive R/C values, unresolved models, a transistor whose
    effective card (card_with) the model rejects, with the model's message
    (each at its element's card line), no ground connection.
    Warnings: nodes with no DC path to ground, unused model cards.
    Circuit-wide diagnostics are reported at line 0.
    """
    diags: list[Diagnostic] = []
    models = dict(c.models)
    used_models = set()
    table = {n: i for i, n in enumerate(c.nodes)}
    parent = list(range(len(c.nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    touched = set()
    for e in c.elements:
        touched.update(e.nodes)
        if e.kind in ("R", "C"):
            if not (e.value is not None and e.value > 0.0):
                diags.append(Diagnostic("error", e.line,
                                        f"{e.name}: value must be > 0, got {e.value}"))
            if e.kind == "R":
                union(table[e.nodes[0]], table[e.nodes[1]])
        elif e.kind == "V":
            union(table[e.nodes[0]], table[e.nodes[1]])
        elif e.kind == "M":
            if e.model not in models:
                diags.append(Diagnostic("error", e.line,
                                        f"{e.name}: unresolved model {e.model!r}"))
            else:
                used_models.add(e.model)
                try:
                    card_with(models[e.model], e.overrides)
                except ParameterError as exc:
                    diags.append(Diagnostic("error", e.line, f"{e.name}: {exc}"))
            # the channel and the engine's gmin shunts provide DC paths
            d, g, s = (table[n] for n in e.nodes)
            union(d, s)
            union(g, s)
    if touched and "0" not in touched:
        diags.append(Diagnostic("error", 0, "no element connects to ground node 0"))
    ground_root = find(0)
    for n in sorted(touched):
        if n != "0" and find(table[n]) != ground_root:
            diags.append(Diagnostic("warning", 0,
                                    f"node {n!r} has no DC path to ground"))
    for name in sorted(set(models) - used_models):
        diags.append(Diagnostic("warning", 0, f"model {name!r} is never instantiated"))
    return diags


# -- canonical serializer -----------------------------------------------------


def _fmt(x) -> str:
    """A field as a card writes it: a name as it is, a number by repr."""
    return x if isinstance(x, str) else repr(float(x))


def serialize(c: Circuit) -> str:
    """Canonical flat text form; parse(serialize(parse(t))) is a fixed point."""
    out = [c.title]
    if c.params:
        out.append(".param " + " ".join(f"{k}={_fmt(v)}" for k, v in c.params))
    for name, m in c.models:
        vals = " ".join(f"{k}={_fmt(getattr(m.geom if k in _GEOM_KEYS else m, f))}"
                        for k, f, _d in _CARD)
        out.append(f".model {name} otft{m.polarity} {vals}")
    for e in c.elements:
        if e.kind == "M":
            vals = [e.model] + [f"{k}={_fmt(v)}" for k, v in e.overrides]
        else:
            vals = [e.value] if e.wave is None else [e.wave.kind, *e.wave.args]
        out.append(" ".join([e.name, *e.nodes] + [_fmt(v) for v in vals]))
    for a in c.analyses:
        if isinstance(a, Mc):
            line = f".mc {a.count} {a.seed}"
            for pname, dname, aa, bb in a.dists:
                line += f" {pname}={dname} {_fmt(aa)} {_fmt(bb)}"
            out.append(line)
            continue
        card = next(k for k, (r, _u) in _DIRECTIVES.items() if type(a) is r)
        out.append(" ".join([card] + [_fmt(v) for v in astuple(a) if v is not None]))
    out.append(".end")
    return "\n".join(out) + "\n"
