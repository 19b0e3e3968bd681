"""Per-module caches must not keep dropped builds alive.

The IR decode/codegen caches and the section site-map memo hold values
that reference their module (decoded closures, generated code, the
layout, site maps).  Keyed in a module-keyed weak dictionary, such a
value pins its own key forever; stored on the module object, it dies
with the module.
"""

import gc
import weakref

import pytest

from repro.fi.compose import cached_site_map
from repro.interp.codegen import codegen_module
from repro.interp.decode import decode_module
from repro.interp.interpreter import IRInterpreter
from repro.pipeline import build


def _collected(ref) -> bool:
    gc.collect()
    return ref() is None


@pytest.mark.parametrize("dispatch", ["decoded", "codegen"])
def test_ir_run_does_not_pin_module(dispatch):
    built = build("crc32", scale="tiny")
    res = IRInterpreter(built.module, layout=built.layout,
                        dispatch=dispatch).run()
    assert res.status.value == "ok"
    module_ref = weakref.ref(built.module)
    built_ref = weakref.ref(built)
    del built
    assert _collected(built_ref)
    assert _collected(module_ref)


def test_ir_caches_still_hit():
    built = build("crc32", scale="tiny")
    assert decode_module(built.module, built.layout) is \
        decode_module(built.module, built.layout)
    assert codegen_module(built.module, built.layout) is \
        codegen_module(built.module, built.layout)


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_site_map_memo_does_not_pin_build(layer):
    built = build("crc32", scale="tiny")
    first = cached_site_map(built, layer, "seu")
    assert cached_site_map(built, layer, "seu") is first
    module_ref = weakref.ref(built.module)
    built_ref = weakref.ref(built)
    del built, first
    assert _collected(built_ref)
    assert _collected(module_ref)
