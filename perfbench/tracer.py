"""Spans around ofetsim's public functions, installed from outside the package.

``Tracer.install()`` replaces module and class attributes with timing
wrappers; ``uninstall()`` puts the originals back.  The package calls these
functions through their module attribute (``engine.transient``,
``kernels.otft_eval``, ``np.linalg.solve``), so the wrappers see every call.

Each traced call becomes a span (name, start, end, parent, op id).  The two
hot leaves, ``kernels.otft_eval`` and ``numpy.linalg.solve``, each run
about 15,000 times per ring op; recording each call would cost more memory
than the run itself, so they are aggregated into their parent span as
(calls, seconds, devices) instead.  A span's self time is its duration minus the time of the
spans and leaves it directly contains.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np

from ofetsim import analyses, cli, engine, extract, kernels, model, netlist

# (owner, attribute, span name); leaves are aggregated into their parent
SPANS = [
    (cli, "main", "cli.main"),
    (cli.Run, "write_waveform", "cli.write_waveform"),
    (cli.Run, "write_rows", "cli.write_rows"),
    (cli.Run, "finish", "cli.finish"),
    (netlist, "parse", "netlist.parse"),
    (netlist, "validate", "netlist.validate"),
    (engine, "transient", "engine.transient"),
    (engine, "dc_sweep", "engine.dc_sweep"),
    (engine, "dc_operating_point", "engine.dc_operating_point"),
    (model, "drain_current_with_contacts", "model.drain_current_with_contacts"),
    (extract, "read_iv_csv", "extract.read_iv_csv"),
    (extract, "extraction_report", "extract.extraction_report"),
    (extract, "fit_model", "extract.fit_model"),
    (analyses, "oscillation_frequency", "analyses.oscillation_frequency"),
]
LEAVES = [
    (kernels, "otft_eval", "kernels.otft_eval"),
    (np.linalg, "solve", "numpy.linalg.solve"),
]


def _result_facts(name: str, result) -> dict:
    """Deterministic work counts read from a span's return value."""
    if name == "engine.transient":
        return {"steps": int(result.axis.size - 1)}
    if name == "engine.dc_sweep":
        ws = result if isinstance(result, list) else [result]
        return {"points": int(sum(w.axis.size for w in ws))}
    if name == "engine.dc_operating_point":
        return {"points": 1}
    if name == "extract.fit_model":
        return {"iters": int(result.iterations),
                "accepted": len(result.cost_history) - 1}
    return {}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child_s",
                 "leaves", "sub", "facts")

    def __init__(self, sid, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = sid, name, start, parent, op
        self.end = start
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}   # leaf -> [calls, seconds, devices]
        self.sub: Counter = Counter()        # calls of every name in the subtree
        self.facts: dict = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "self_s": self.self_s,
                "leaves": self.leaves, **self.facts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None          # spans are recorded only while an op is set
        self._saved = []

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, self._leaf_wrapper(getattr(owner, attr), name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name):
        clock, stack, spans = time.perf_counter, self.stack, self.spans

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, clock(), parent.id if parent else None, self.op)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.facts = _result_facts(name, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                    parent.sub[name] += 1
                    parent.sub.update(span.sub)

        return wrapper

    def _leaf_wrapper(self, fn, name):
        clock, stack = time.perf_counter, self.stack

        def wrapper(*args, **kwargs):
            if self.op is None or not stack:
                return fn(*args, **kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            top = stack[-1]
            top.child_s += dt
            top.sub[name] += 1
            agg = top.leaves.get(name)
            if agg is None:
                agg = top.leaves[name] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += args[0].shape[0] if name == "kernels.otft_eval" else 0
            return result

        return wrapper

    def dump(self, path, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.record()) + "\n")


def _leaf(spans, leaf, prefix=None):
    calls = secs = devs = 0
    for s in spans:
        if prefix is None or s.name.startswith(prefix):
            c, t, d = s.leaves.get(leaf, (0, 0.0, 0))
            calls, secs, devs = calls + c, secs + t, devs + d
    return calls, secs, devs


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures over the spans of one round."""
    by = lambda prefix: [s for s in spans if s.name.startswith(prefix)]  # noqa: E731
    kcalls, ksecs, kdevs = _leaf(spans, "kernels.otft_eval")
    eng = by("engine.")
    tran = by("engine.transient")
    dc = [s for s in eng if s.name != "engine.transient"]
    e_solves, e_solve_s, _ = _leaf(eng, "numpy.linalg.solve")
    t_solves, _, _ = _leaf(tran, "numpy.linalg.solve")
    t_kcalls, _, _ = _leaf(tran, "kernels.otft_eval")
    d_solves, _, _ = _leaf(dc, "numpy.linalg.solve")
    steps = sum(s.facts.get("steps", 0) for s in tran)
    points = sum(s.facts.get("points", 0) for s in dc)
    e_self = sum(s.self_s for s in eng)
    contact = by("model.")
    m_kcalls, _, _ = _leaf(contact, "kernels.otft_eval")
    fits = by("extract.fit_model")
    iters = sum(s.facts.get("iters", 0) for s in fits)
    accepted = sum(s.facts.get("accepted", 0) for s in fits)
    lm_solves, _, _ = _leaf(fits, "numpy.linalg.solve")
    fit_kcalls = sum(s.sub["kernels.otft_eval"] for s in fits)
    fit_contacts = sum(s.sub["model.drain_current_with_contacts"] for s in fits)
    dur = lambda ss: sum(s.end - s.start for s in ss)  # noqa: E731
    return {
        "kernels.calls": kcalls,
        "kernels.devices_per_call": _ratio(kdevs, kcalls),
        "kernels.self_s": ksecs,
        "kernels.us_per_call": 1e6 * _ratio(ksecs, kcalls),
        "engine.steps": steps,
        "engine.solves": e_solves,
        "engine.solve_s": e_solve_s,
        "engine.solves_per_step": _ratio(t_solves, steps),
        "engine.kernel_calls_per_step": _ratio(t_kcalls, steps),
        "engine.solves_per_point": _ratio(d_solves, points),
        "engine.self_s": e_self,
        "engine.self_us_per_solve": 1e6 * _ratio(e_self, e_solves),
        "model.contact_calls": len(contact),
        "model.kernel_calls_per_contact": _ratio(m_kcalls, len(contact)),
        "model.self_s": sum(s.self_s for s in contact),
        "extract.fit_iters": iters,
        "extract.kernel_calls_per_iter": _ratio(fit_kcalls, iters),
        "extract.contact_calls_per_iter": _ratio(fit_contacts, iters),
        "extract.lm_accept_ratio": _ratio(accepted, lm_solves),
        "netlist.parse_s": dur(by("netlist.parse")),
        "netlist.validate_s": dur(by("netlist.validate")),
        "analyses.self_s": sum(s.self_s for s in by("analyses.")),
        "cli.write_s": dur(by("cli.write_")),
        "cli.manifest_s": dur(by("cli.finish")),
    }


# counts that must repeat exactly for identical inputs
COUNTERS = ("kernels.calls", "engine.steps", "engine.solves", "model.contact_calls",
            "extract.fit_iters", "cli.bytes_written")
