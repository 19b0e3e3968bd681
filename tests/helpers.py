"""Shared helpers importable from test modules."""

import json
from typing import NamedTuple

from repro.backend.lower import lower_module
from repro.frontend.codegen import compile_source
from repro.interp.layout import GlobalLayout
from repro.machine.machine import compile_program


def compile_and_build(source: str, name: str = "t"):
    """(module, layout, asm_program, compiled) for a MiniC source."""
    module = compile_source(source, name)
    layout = GlobalLayout(module)
    asm = lower_module(module, layout)
    compiled = compile_program(asm.flatten())
    return module, layout, asm, compiled


def line_event(line: str):
    """A journal or store line's event kind, whatever its spelling
    (None for a line that does not parse, e.g. a torn tail)."""
    try:
        return json.loads(line).get("ev")
    except ValueError:
        return None


def drop_events(path: str, *evs: str) -> None:
    """Rewrite ``path`` without its ``evs`` lines; at least one must go."""
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    kept = [ln for ln in lines if line_event(ln) not in evs]
    assert len(kept) < len(lines), f"no {evs} line in {path}"
    with open(path, "w") as fh:
        fh.writelines(kept)


class StoreState(NamedTuple):
    """A section-profile store's whole folded state, by key."""

    profiles: dict
    partial: dict
    claims: dict


def store_state(store) -> StoreState:
    """Fold every key of an open store (the view its tools take)."""
    slots = store._index.resolved()
    return StoreState(
        {k: s.profile for k, s in slots if s.profile is not None},
        {k: dict(s.rows) for k, s in slots if s.rows},
        {k: s.claim for k, s in slots if s.claim is not None})
