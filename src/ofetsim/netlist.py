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

Engineering suffixes f p n u m k meg g are understood; parentheses and commas
count as whitespace; a bare identifier in a value position resolves against
`.param` constants.  Subcircuits are flattened with hierarchical names
(`x1.node`, element `rx1.r1`), so the serialized form is flat and
`parse(serialize(parse(text)))` is a fixed point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Union

from .model import DeviceGeometry, OtftParams, ParameterError


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


# position of the operating level in SourceWave.args, per kind
_LEVEL_ARG = {"dc": 0, "pulse": 1, "sin": 0}


@dataclass(frozen=True)
class SourceWave:
    """Time shape of an independent source.

    kinds: "dc" (value,); "pulse" (v1, v2, td, tr, tf, ton, period) where
    period <= 0 means one-shot and ton <= 0 means hold-until-period-end;
    "sin" (vo, va, freq, td, theta).
    """

    kind: str
    args: tuple[float, ...]

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
        return self.args[_LEVEL_ARG[self.kind]]

    def with_level(self, level: float) -> "SourceWave":
        """The same wave with its operating level replaced."""
        k = _LEVEL_ARG[self.kind]
        return SourceWave(self.kind, self.args[:k] + (float(level),) + self.args[k + 1:])


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


@dataclass(frozen=True)
class DcSweep:
    source: str
    start: float
    stop: float
    step: float
    source2: str | None = None
    start2: float | None = None
    stop2: float | None = None
    step2: float | None = None


@dataclass(frozen=True)
class Tran:
    step: float
    stop: float
    max_step: float | None = None


@dataclass(frozen=True)
class Mc:
    count: int
    seed: int
    dists: tuple[tuple[str, str, float, float], ...] = ()  # (param, kind, a, b)


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

    @property
    def node_table(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

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

    def with_element_value(self, name: str, value: float) -> "Circuit":
        """New circuit with one R/C value replaced."""
        e = self.element(name)
        if e.kind not in ("R", "C"):
            raise KeyError(f"{name} has no scalar value")
        return self._with_changed({e.name: replace(e, value=float(value))})

    def with_scaled_values(self, prefix: str, factor: float) -> "Circuit":
        """Scale every R/C value whose name starts with prefix (lowercased)."""
        pref = prefix.lower()
        return self._with_changed({e.name: replace(e, value=e.value * factor)
                                   for e in self.elements
                                   if e.kind in ("R", "C") and e.name.startswith(pref)})

    def with_otft_overrides(self, updates: dict) -> "Circuit":
        """Merge per-instance override values; updates: name -> {key: value}."""
        ups = {k.lower(): v for k, v in updates.items()}
        changed = {}
        for e in self.elements:
            if e.name in ups:
                if e.kind != "M":
                    raise KeyError(f"{e.name} is not a transistor")
                merged = dict(e.overrides)
                merged.update({k.lower(): v for k, v in ups[e.name].items()})
                changed[e.name] = replace(e, overrides=tuple(sorted(merged.items())))
        unknown = sorted(set(ups) - set(changed))
        if unknown:
            raise KeyError(f"no transistor named {', '.join(unknown)}")
        return self._with_changed(changed)

    def with_strain(self, epsilon: float, orientation: str) -> "Circuit":
        """Apply one strain state to every transistor instance."""
        dirtok = "par" if orientation == "parallel" else "perp"
        ups = {e.name: {"strain": float(epsilon), "dir": dirtok}
               for e in self.elements if e.kind == "M"}
        return self.with_otft_overrides(ups)

    def with_analyses(self, analyses) -> "Circuit":
        return replace(self, analyses=tuple(analyses))


# -- tokenization -------------------------------------------------------------

_NUM_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)([a-z]*)\Z")
_SUFFIX = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
           "k": 1e3, "g": 1e9}

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
_MC_PARAMS = {"vth", "mu0", "ss", "lambda", "gamma", "rc"}


def card_with(card: OtftParams, values: dict) -> OtftParams:
    """`card` with its entries replaced by the card keys found in `values`.

    `values` is keyed by dialect name (e.g. "lambda", "w"); other keys are
    ignored, so an instance's full override dict can be passed as is.
    """
    changes = {f: float(values[k]) for k, f, _d in _CARD
               if k in values and k not in _GEOM_KEYS}
    geom = {k: float(values[k]) for k in _GEOM_KEYS if k in values}
    if geom:
        changes["geom"] = replace(card.geom, **geom)
    return card.replace(**changes) if changes else card


def _tokenize(line: str) -> list[str]:
    text = line.lower().replace("(", " ").replace(")", " ").replace(",", " ")
    text = re.sub(r"\s*=\s*", "=", text)
    return text.split()


class _Parser:
    def __init__(self, params_override: dict | None):
        self.diags: list[Diagnostic] = []
        self.params: dict[str, float] = {}
        self.params_override = {k.lower(): float(v)
                                for k, v in (params_override or {}).items()}
        self.models: dict[str, OtftParams] = {}
        self.elements: list[Element] = []
        self.analyses: list = []
        self.sweep_lines: list[tuple[int, DcSweep]] = []
        self.names: set[str] = set()
        self.nodes: list[str] = ["0"]
        self._node_seen = {"0"}

    def error(self, line: int, msg: str):
        self.diags.append(Diagnostic("error", line, msg))

    def warning(self, line: int, msg: str):
        self.diags.append(Diagnostic("warning", line, msg))

    def number(self, tok: str, line: int, what: str) -> float | None:
        if tok in self.params:
            return self.params[tok]
        m = _NUM_RE.match(tok)
        if not m:
            self.error(line, f"{what}: malformed number or unknown parameter {tok!r}")
            return None
        val = float(m.group(1))
        suffix = m.group(2)
        if suffix.startswith("meg"):
            val *= 1e6
        elif suffix and suffix[0] in _SUFFIX:
            val *= _SUFFIX[suffix[0]]
        # any remaining letters are units and are ignored
        return val

    def touch_node(self, name: str) -> str:
        if name not in self._node_seen:
            self._node_seen.add(name)
            self.nodes.append(name)
        return name

    def add_element(self, e: Element, line: int):
        if e.name in self.names:
            self.error(line, f"duplicate element name {e.name!r}")
            return
        self.names.add(e.name)
        self.elements.append(replace(e, line=line))

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
        fields = {f: vals.get(k, d) for k, f, d in _CARD}
        try:
            geom = DeviceGeometry(**{f: fields.pop(f) for f in _GEOM_KEYS})
            self.models[name] = OtftParams(
                polarity="p" if mtype == "otftp" else "n", geom=geom, **fields)
        except ParameterError as exc:
            self.error(line, f".model {name}: {exc}")

    def parse_source(self, toks: list[str], line: int, kind: str):
        if len(toks) < 4:
            self.error(line, f"{kind} card needs two nodes and a value")
            return
        name, np_, nm = toks[0], toks[1], toks[2]
        rest = toks[3:]
        wave = None
        head = rest[0]
        if head == "dc" or _NUM_RE.match(head) or head in self.params:
            if head == "dc":
                rest = rest[1:]
            if len(rest) != 1:
                self.error(line, f"{name}: dc source takes exactly one value")
                return
            v = self.number(rest[0], line, name)
            if v is None:
                return
            wave = SourceWave("dc", (v,))
        elif head == "pulse":
            args = [self.number(t, line, name) for t in rest[1:]]
            if None in args or not 2 <= len(args) <= 7:
                if None not in args:
                    self.error(line, f"{name}: pulse takes 2..7 arguments")
                return
            args += [0.0] * (7 - len(args))
            wave = SourceWave("pulse", tuple(args))
        elif head == "sin":
            if kind == "I":
                self.error(line, f"{name}: current sources support dc and pulse only")
                return
            args = [self.number(t, line, name) for t in rest[1:]]
            if None in args or not 3 <= len(args) <= 5:
                if None not in args:
                    self.error(line, f"{name}: sin takes 3..5 arguments")
                return
            args += [0.0] * (5 - len(args))
            wave = SourceWave("sin", tuple(args))
        else:
            self.error(line, f"{name}: unknown source shape {head!r}")
            return
        self.add_element(Element(kind=kind, name=name,
                                 nodes=(self.touch_node(np_), self.touch_node(nm)),
                                 wave=wave), line)

    def parse_rc(self, toks: list[str], line: int, kind: str):
        if len(toks) != 4:
            self.error(line, f"{kind} card needs two nodes and a value")
            return
        v = self.number(toks[3], line, toks[0])
        if v is None:
            return
        self.add_element(Element(kind=kind, name=toks[0],
                                 nodes=(self.touch_node(toks[1]), self.touch_node(toks[2])),
                                 value=v), line)

    def parse_otft(self, toks: list[str], line: int):
        if len(toks) < 5:
            self.error(line, f"{toks[0]}: transistor needs d g s and a model name")
            return
        name = toks[0]
        d, g, s, mname = toks[1], toks[2], toks[3], toks[4]
        raw = self.kwargs(toks[5:], line, name)
        overrides = {}
        for k, v in raw.items():
            if k not in _OVERRIDE_KEYS:
                self.error(line, f"{name}: unknown override {k!r}")
                return
            if k == "dir":
                if v not in ("par", "perp"):
                    self.error(line, f"{name}: dir must be par or perp, got {v!r}")
                    return
                overrides[k] = v
            else:
                num = self.number(v, line, f"{name} override {k}")
                if num is None:
                    return
                overrides[k] = num
        if mname not in self.models:
            self.error(line, f"{name}: undefined model {mname!r}")
            return
        self.add_element(Element(
            kind="M", name=name,
            nodes=(self.touch_node(d), self.touch_node(g), self.touch_node(s)),
            model=mname, overrides=tuple(sorted(overrides.items()))), line)

    def parse_analysis(self, toks: list[str], line: int):
        card = toks[0]
        if card == ".op":
            self.analyses.append(DcOp())
            return
        if card == ".dc":
            if len(toks) not in (5, 9):
                self.error(line, ".dc takes SRC start stop step [SRC2 start2 stop2 step2]")
                return
            nums = [self.number(t, line, ".dc") for t in toks[2:5]]
            if None in nums:
                return
            start, stop, step = nums
            if step <= 0 or stop < start:
                self.error(line, ".dc needs step > 0 and stop >= start")
                return
            d = DcSweep(source=toks[1], start=start, stop=stop, step=step)
            if len(toks) == 9:
                if toks[5] == toks[1]:
                    self.error(line, f".dc: secondary source {toks[5]!r} is the swept source")
                    return
                nums2 = [self.number(t, line, ".dc") for t in toks[6:9]]
                if None in nums2:
                    return
                if nums2[2] <= 0 or nums2[1] < nums2[0]:
                    self.error(line, ".dc secondary needs step > 0 and stop >= start")
                    return
                d = replace(d, source2=toks[5], start2=nums2[0],
                            stop2=nums2[1], step2=nums2[2])
            self.analyses.append(d)
            self.sweep_lines.append((line, d))
            return
        if card == ".tran":
            if len(toks) not in (3, 4):
                self.error(line, ".tran takes step stop [maxstep]")
                return
            nums = [self.number(t, line, ".tran") for t in toks[1:]]
            if None in nums:
                return
            if nums[0] <= 0 or nums[1] <= 0:
                self.error(line, ".tran needs positive step and stop")
                return
            self.analyses.append(Tran(step=nums[0], stop=nums[1],
                                      max_step=nums[2] if len(nums) > 2 else None))
            return
        if card == ".mc":
            if len(toks) < 3:
                self.error(line, ".mc takes count seed [param=dist a b ...]")
                return
            cnt = self.number(toks[1], line, ".mc count")
            seed = self.number(toks[2], line, ".mc seed")
            if cnt is None or seed is None:
                return
            if cnt < 1 or cnt != int(cnt):
                self.error(line, ".mc count must be a positive integer")
                return
            dists = []
            i = 3
            while i < len(toks):
                t = toks[i]
                if "=" not in t:
                    self.error(line, f".mc: expected param=dist, got {t!r}")
                    return
                pname, dname = t.split("=", 1)
                if pname not in _MC_PARAMS:
                    self.error(line, f".mc: unknown parameter {pname!r}")
                    return
                if dname not in ("normal", "lognormal"):
                    self.error(line, f".mc: unknown distribution {dname!r}")
                    return
                if i + 2 >= len(toks):
                    self.error(line, f".mc: {pname}={dname} needs two arguments")
                    return
                a = self.number(toks[i + 1], line, ".mc")
                b = self.number(toks[i + 2], line, ".mc")
                if a is None or b is None:
                    return
                if b < 0:
                    self.error(line, f".mc: {pname} spread must be >= 0")
                    return
                dists.append((pname, dname, a, b))
                i += 3
            self.analyses.append(Mc(count=int(cnt), seed=int(seed),
                                    dists=tuple(dists)))
            return
        self.error(line, f"unknown card {card!r}")


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

    `params` overrides `.param` constants before substitution (used for
    ratio studies).  Raises NetlistError carrying line-numbered diagnostics
    if any error is found.
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
            p.warning(lineno, "content after .end ignored")
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
            current = (lineno, toks[1], toks[2:], [])
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
            for t in toks[1:]:
                if "=" not in t:
                    p.error(lineno, f".param: expected name=value, got {t!r}")
                    continue
                k, v = t.split("=", 1)
                num = p.number(v, lineno, f".param {k}")
                if num is not None:
                    p.params[k] = num
            p.params.update(p.params_override)
            continue
        top.append((lineno, toks))
    if current is not None:
        p.error(current[0], f".subckt {current[1]!r} never closed with .ends")
    p.params.update(p.params_override)

    # pass 2: models first so instances can bind in file order
    rest = []
    for lineno, toks in top:
        if toks[0] == ".model":
            p.parse_model_card(toks, lineno)
        else:
            rest.append((lineno, toks))

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

        def local_name():
            bare = card
            return f"{letter}{prefix}.{bare}" if prefix else bare

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

        mapped = [local_name()] + toks[1:]
        if letter in ("r", "c"):
            if len(toks) == 4:
                mapped = [local_name(), map_node(toks[1]), map_node(toks[2]), toks[3]]
            p.parse_rc(mapped, lineno, letter.upper())
        elif letter in ("v", "i"):
            if len(toks) >= 4:
                mapped = [local_name(), map_node(toks[1]), map_node(toks[2])] + toks[3:]
            p.parse_source(mapped, lineno, letter.upper())
        elif letter == "m":
            if len(toks) >= 5:
                mapped = ([local_name(), map_node(toks[1]), map_node(toks[2]),
                           map_node(toks[3])] + toks[4:])
            p.parse_otft(mapped, lineno)
        else:
            p.error(lineno, f"unknown card {card!r}")

    for lineno, toks in rest:
        if toks[0].startswith("."):
            p.parse_analysis(toks, lineno)
        else:
            expand(lineno, toks, "", {}, ())

    # swept sources may be defined after the directive
    sources = {e.name for e in p.elements if e.kind in ("V", "I")}
    for lineno, d in p.sweep_lines:
        for src in (d.source, d.source2):
            if src is not None and src not in sources:
                p.error(lineno, f".dc: {src!r} names no V or I source")

    if any(d.severity == "error" for d in p.diags):
        raise NetlistError(p.diags)

    return Circuit(
        title=title,
        nodes=tuple(p.nodes),
        elements=tuple(p.elements),
        models=tuple(sorted(p.models.items())),
        analyses=tuple(p.analyses),
        params=tuple(sorted(p.params.items())),
    )


# -- validation ---------------------------------------------------------------


def validate(c: Circuit) -> list[Diagnostic]:
    """All invariant violations; an empty list means simulatable.

    Errors: non-positive R/C/W/L, negative strain, unresolved models (each
    at its element's card line), no ground connection.
    Warnings: nodes with no DC path to ground, unused model cards.
    Circuit-wide diagnostics are reported at line 0.
    """
    diags: list[Diagnostic] = []
    model_names = {n for n, _ in c.models}
    used_models = set()
    table = c.node_table
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
        for n in e.nodes:
            touched.add(n)
        if e.kind in ("R", "C"):
            if not (e.value is not None and e.value > 0.0):
                diags.append(Diagnostic("error", e.line,
                                        f"{e.name}: value must be > 0, got {e.value}"))
            if e.kind == "R":
                union(table[e.nodes[0]], table[e.nodes[1]])
        elif e.kind == "V":
            union(table[e.nodes[0]], table[e.nodes[1]])
        elif e.kind == "M":
            if e.model not in model_names:
                diags.append(Diagnostic("error", e.line,
                                        f"{e.name}: unresolved model {e.model!r}"))
            else:
                used_models.add(e.model)
                card = c.model_card(e.model)
                w = e.override("w", card.geom.w)
                l = e.override("l", card.geom.l)
                if not (w > 0.0 and l > 0.0):
                    diags.append(Diagnostic("error", e.line,
                                            f"{e.name}: W and L must be > 0, got {w}, {l}"))
                strain = e.override("strain", 0.0)
                if strain < 0.0:
                    diags.append(Diagnostic("error", e.line,
                                            f"{e.name}: strain must be >= 0, got {strain}"))
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
    for name in sorted(model_names - used_models):
        diags.append(Diagnostic("warning", 0, f"model {name!r} is never instantiated"))
    return diags


# -- canonical serializer -----------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


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
        if e.kind in ("R", "C"):
            out.append(f"{e.name} {e.nodes[0]} {e.nodes[1]} {_fmt(e.value)}")
        elif e.kind in ("V", "I"):
            w = e.wave
            if w.kind == "dc":
                out.append(f"{e.name} {e.nodes[0]} {e.nodes[1]} dc {_fmt(w.args[0])}")
            else:
                args = " ".join(_fmt(a) for a in w.args)
                out.append(f"{e.name} {e.nodes[0]} {e.nodes[1]} {w.kind} {args}")
        else:
            parts = [e.name, *e.nodes, e.model]
            for k, v in e.overrides:
                parts.append(f"{k}={v}" if isinstance(v, str) else f"{k}={_fmt(v)}")
            out.append(" ".join(parts))
    for a in c.analyses:
        if isinstance(a, DcOp):
            out.append(".op")
        elif isinstance(a, DcSweep):
            line = f".dc {a.source} {_fmt(a.start)} {_fmt(a.stop)} {_fmt(a.step)}"
            if a.source2 is not None:
                line += f" {a.source2} {_fmt(a.start2)} {_fmt(a.stop2)} {_fmt(a.step2)}"
            out.append(line)
        elif isinstance(a, Tran):
            line = f".tran {_fmt(a.step)} {_fmt(a.stop)}"
            if a.max_step is not None:
                line += f" {_fmt(a.max_step)}"
            out.append(line)
        elif isinstance(a, Mc):
            line = f".mc {a.count} {a.seed}"
            for pname, dname, aa, bb in a.dists:
                line += f" {pname}={dname} {_fmt(aa)} {_fmt(bb)}"
            out.append(line)
    out.append(".end")
    return "\n".join(out) + "\n"
