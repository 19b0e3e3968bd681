"""Span tracing from outside the program, for the benchmark's traced run.

The program under test carries no tracing of its own here: this module
wraps a fixed list of the program's public functions and methods at run
time, records one span per call (name, start, end, parent span, operation
id) in memory, and restores every binding afterwards.  Simulator ``run``
calls are labelled from their arguments:

* ``<layer>.golden``  -- no injection, no checkpoints, no resume;
* ``<layer>.stream``  -- ``checkpoints=`` (the engine's checkpoint pass);
* ``<layer>.replay``  -- ``resume_from=`` (one suffix replay);
* ``<layer>.full``    -- ``inject_index=`` only (a full re-execution).

The engine calls replays from inside the stream's checkpoint callback, so
replay spans nest under their stream span and the stream's self time is
the checkpoint pass alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute) of every wrapped free function, with its span name
FUNCTIONS = [
    ("repro.frontend.codegen", "compile_source", "compile_source"),
    ("repro.protection.api", "protect", "protect"),
    ("repro.protection.planner", "profile_module", "profile_module"),
    ("repro.backend.lower", "lower_module", "lower_module"),
    ("repro.machine.machine", "compile_program", "compile_program"),
    ("repro.fi.engine", "run_injection_suite", "run_injection_suite"),
    ("repro.fi.outcomes", "classify_outcome", "classify_outcome"),
    ("repro.analysis.rootcause", "classify_campaign", "classify_campaign"),
    ("repro.fi.compose", "cached_site_map", "cached_site_map"),
    ("repro.interp.decode", "decode_module", "prepare"),
    ("repro.machine.decode", "decode_program", "prepare"),
    ("repro.interp.codegen", "codegen_module", "prepare"),
    ("repro.machine.codegen", "codegen_program", "prepare"),
]

#: (module, class, method, span name); ``None`` span name = simulator run
METHODS = [
    ("repro.interp.interpreter", "IRInterpreter", "run", None),
    ("repro.machine.machine", "AsmMachine", "run", None),
    ("repro.fi.resilience", "InjectionJournal", "record", "journal.record"),
    ("repro.fi.resilience", "InjectionJournal", "open", "journal.open"),
    ("repro.fi.compose", "SectionProfileStore", "__init__", "store.open"),
    ("repro.fi.compose", "SectionProfileStore", "refresh", "store.refresh"),
    ("repro.fi.compose", "SectionProfileStore", "commit_profile",
     "store.commit"),
    ("repro.fi.compose", "SectionProfileStore", "record_row", "store.commit"),
    ("repro.fi.journal", "FileLock", "acquire", "lock.acquire"),
]

SIM_LAYER = {"IRInterpreter": "interp", "AsmMachine": "machine"}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: Optional[str]
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, keeps spans in memory, derives metrics."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        #: operation id stamped on every span opened while it is set
        self.op: Optional[str] = None
        #: (operation id, start, end) of every traced operation
        self.windows: List[Tuple[str, float, float]] = []
        #: golden trace length per simulated program object (suffix_frac)
        self._golden_len: "weakref.WeakKeyDictionary[object, int]" = \
            weakref.WeakKeyDictionary()

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(
            name=name, start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1, op=self.op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str,
              after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer.spans[idx], args, kwargs, result)
                return result
            finally:
                tracer._close(idx)

        return wrapper

    def _wrap_sim(self, fn: Callable, layer: str) -> Callable:
        tracer = self
        signature = inspect.signature(fn)
        golden_len = self._golden_len

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            bound = signature.bind(sim, *args, **kwargs).arguments
            if bound.get("checkpoints") is not None:
                kind = "stream"
            elif bound.get("resume_from") is not None:
                kind = "replay"
            elif bound.get("inject_index") is not None:
                kind = "full"
            else:
                kind = "golden"
            idx = tracer._open(f"{layer}.{kind}")
            try:
                res = fn(sim, *args, **kwargs)
                key = getattr(sim, "module", None) or sim.program
                steps = res.dyn_total
                if kind == "golden":
                    golden_len[key] = res.dyn_total
                elif kind == "replay":
                    snap = bound["resume_from"]
                    prefix = getattr(snap, "steps", None)
                    if prefix is None:
                        prefix = snap.dyn_total
                    steps = max(0, res.dyn_total - prefix)
                    tracer.spans[idx].attrs["golden_len"] = \
                        golden_len.get(key)
                tracer.spans[idx].attrs["steps"] = steps
                return res
            finally:
                tracer._close(idx)

        return run

    # -- installation -----------------------------------------------------

    def _rebind_everywhere(self, orig: object, wrapper: object) -> None:
        """Point every ``repro.*`` module binding of ``orig`` at ``wrapper``
        (callers that did ``from x import f`` hold their own binding)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import importlib

        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            self._rebind_everywhere(
                orig, self._wrap(orig, name, _AFTER.get(name)))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if name is None:
                wrapped = self._wrap_sim(raw, SIM_LAYER[cls_name])
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(
                    raw.__func__, name, _AFTER.get(name)))
            else:
                wrapped = self._wrap(raw, name, _AFTER.get(name))
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        orig_fsync = os.fsync
        self._restore.append((os, "fsync", orig_fsync))
        os.fsync = self._wrap(orig_fsync, "fsync", _fsync_after)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "op": s.op, "start": s.start - t0, "end": s.end - t0,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


def _fsync_after(span: Span, args, kwargs, result) -> None:
    try:
        span.attrs["path"] = os.readlink(f"/proc/self/fd/{args[0]}")
    except OSError:
        span.attrs["path"] = ""


def _asm_insts_after(span: Span, args, kwargs, result) -> None:
    span.attrs["insts"] = len(result.uops)


def _site_map_after(span: Span, args, kwargs, result) -> None:
    span.attrs["sections"] = len(result.sections)


def _journal_open_after(span: Span, args, kwargs, result) -> None:
    span.attrs["resumed"] = len(result.completed)


def _store_open_after(span: Span, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    span.attrs["bytes"] = (os.path.getsize(path)
                           if os.path.exists(path) else 0)


#: per span name: records what the span's result says into its attrs
_AFTER = {
    "compile_program": _asm_insts_after,
    "cached_site_map": _site_map_after,
    "journal.open": _journal_open_after,
    "store.open": _store_open_after,
}


def self_times(spans: List[Span], select: Callable[[Span], bool]
               ) -> Dict[str, float]:
    """Self time per span name (duration minus the part its children
    cover), summed over the spans ``select`` accepts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    out: Dict[str, float] = {}
    for i, s in enumerate(spans):
        if select(s):
            out[s.name] = out.get(s.name, 0.0) + s.dur - child[i]
    return out


def coverage(spans: List[Span], windows: List[Tuple[str, float, float]]
             ) -> Tuple[float, float, str]:
    """Share of the operation windows covered by top-level spans, and the
    largest uncovered gap (seconds, description)."""
    tops: Dict[Optional[str], List[Span]] = {}
    for s in spans:
        if s.parent < 0:
            tops.setdefault(s.op, []).append(s)
    total = covered = 0.0
    gap, where = 0.0, ""
    for op, start, end in windows:
        total += end - start
        cursor = start
        prev = "op start"
        for s in sorted(tops.get(op, []), key=lambda s: s.start):
            if s.start - cursor > gap:
                gap, where = s.start - cursor, f"{op}: {prev} -> {s.name}"
            covered += s.end - max(s.start, cursor) if s.end > cursor else 0
            cursor = max(cursor, s.end)
            prev = s.name
        if end - cursor > gap:
            gap, where = end - cursor, f"{op}: {prev} -> op end"
    return (covered / total if total else 0.0), gap, where
