"""One-time decode pass: IR instructions -> bound Python closures.

The naive interpreter loop re-dispatches every dynamic step through an
``op == "..."`` ladder and re-resolves every operand through
``isinstance`` chains.  This module runs that work **once per module**:
each instruction is compiled into a small Python closure with operands
pre-resolved to temp-slot indices, inlined integer constants, baked
global addresses, or argument slots, and with the handler (including
type widths, wrap masks, and element sizes) selected at decode time.

The decoded form of an instruction is a 4-tuple ``(kind, payload, iid,
inst)``:

======== =========================================================
kind     payload
======== =========================================================
K_VALUE  ``fn(ip, fr) -> value`` (allocates an injectable index)
K_CALL1  ``(args_fn, DecodedFunction)`` call with result (allocates)
K_CTRL   ``fn(ip, fr) -> None`` (store / void intrinsic / raiser)
K_CALL0  ``(args_fn, DecodedFunction)`` void call
K_RET    ``fn(ip, fr) -> value`` or ``None`` for ``ret void``
K_BR     ``(block, code)`` pair of the target block
K_CONDBR ``(cond_fn, then_pair, else_pair)``
K_ALLOCA allocation size in bytes
======== =========================================================

``K_BR``/``K_CONDBR`` entries carry a fifth element: the function's
shared ``block_pairs`` list ((block, code) pairs in ``fn.blocks``
order), which the control-flow fault model uses to redirect a corrupted
transfer to a uniformly drawn block.  The SEU/SET loops index only
elements 0–3 and never see it.

The driver loop in :class:`~repro.interp.interpreter.IRInterpreter`
tests ``kind <= 1`` to find the instructions that allocate injectable
dynamic indices — exactly the set the naive loop allocates for, in the
same order, so fault-injection semantics are bit-identical.

Decoding is cached per :class:`~repro.ir.module.Module` (weakly, so
modules stay collectable) and keyed by the global layout's address
assignment, which the closures bake in.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Dict, List, Tuple

from ..errors import FaultDetected, IRError, SimTrap
from ..ir.instructions import Instruction
from ..ir.intrinsics import (
    DETECT,
    INTRINSICS,
    PRINT_CHAR,
    PRINT_F64,
    PRINT_I64,
    math_impl,
)
from ..ir.module import Function, Module
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..utils.fmt import format_char, format_f64, format_i64
from .layout import GlobalLayout

__all__ = [
    "DecodedModule",
    "DecodedFunction",
    "decode_module",
    "K_VALUE",
    "K_CALL1",
    "K_CTRL",
    "K_CALL0",
    "K_RET",
    "K_BR",
    "K_CONDBR",
    "K_ALLOCA",
]

(K_VALUE, K_CALL1, K_CTRL, K_CALL0, K_RET, K_BR, K_CONDBR,
 K_ALLOCA) = range(8)

_M64 = (1 << 64) - 1
_PACK_F64 = struct.Struct("<d")

_ICMP_SIGNED = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
                "sgt": ">", "sge": ">="}
_ICMP_UNSIGNED = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}
_FCMP_OPS = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">",
             "oge": ">="}


class DecodedFunction:
    """Per-function decode result: one code list per basic block."""

    __slots__ = ("fn", "pairs", "entry_pair", "block_pairs")

    def __init__(self, fn: Function):
        self.fn = fn
        #: block -> (block, code) shared pair; branch payloads alias these
        self.pairs = {b: (b, []) for b in fn.blocks}
        self.entry_pair = self.pairs[fn.entry]
        #: pairs in fn.blocks order — the cf-model redirect universe
        self.block_pairs = [self.pairs[b] for b in fn.blocks]


class DecodedModule:
    """Module-wide decode result, cached per (module, layout addresses)."""

    __slots__ = ("module", "functions", "max_iid")

    def __init__(self, module: Module, functions: Dict[Function, DecodedFunction],
                 max_iid: int):
        self.module = module
        self.functions = functions
        self.max_iid = max_iid


def _fingerprint(module: Module) -> Tuple[int, int]:
    """Cheap structural fingerprint, sensitive to pass-applied mutation.

    Transformation passes (duplication, CSE, ...) mutate modules in
    place by inserting/removing/replacing Instruction objects, so the
    instruction count plus a hash mixing object identities with iids
    changes whenever the instruction stream does.  The O(static-size)
    walk per run() is negligible next to executing the program.
    """
    n = 0
    h = 0
    for fn in module.functions.values():
        for block in fn.blocks:
            for inst in block.instructions:
                n += 1
                h ^= id(inst) ^ (inst.iid * 0x9E3779B1)
    return n, h


def decode_module(module: Module, layout: GlobalLayout) -> DecodedModule:
    """Decode ``module`` (cached; re-decodes if the module was mutated
    in place by a pass or the layout moved).

    The cache lives on the module object itself, like the asm decode
    cache on its program: the decoded module references the module, so
    a module-keyed weak dictionary would keep every decoded module alive
    through its own value."""
    fp = _fingerprint(module)
    cached = getattr(module, "_decode_cache", None)
    if cached is not None:
        lay, cached_fp, dm = cached
        if cached_fp == fp and (
            lay is layout or lay.addresses == layout.addresses
        ):
            return dm
    dm = _decode(module, layout)
    module._decode_cache = (layout, fp, dm)
    return dm


# -- closure helpers (plain Python, no eval needed) -----------------------


def _detect(ip, fr):
    raise FaultDetected("checker")


def _ir_raiser(msg: str):
    def f(ip, fr):
        raise IRError(msg)
    return f


def _trap_raiser(kind: str, detail: str):
    def f(ip, fr):
        raise SimTrap(kind, detail)
    return f


def _f_one(a: float, b: float) -> int:
    # ordered 'one': false when either side is NaN
    return 1 if a == a and b == b and a != b else 0


def _fadd(a, b):
    try:
        return a + b
    except OverflowError:
        return float("inf")


def _fsub(a, b):
    try:
        return a - b
    except OverflowError:
        return float("inf")


def _fmul(a, b):
    try:
        return a * b
    except OverflowError:
        return float("inf")


def _fdiv(a, b):
    if b == 0.0:
        return float("inf") if a > 0 else (
            float("-inf") if a < 0 else float("nan")
        )
    try:
        return a / b
    except OverflowError:
        return float("inf")


def _mk_sdiv(width: int):
    h = 1 << (width - 1)
    m = (1 << width) - 1

    def f(a, b):
        if b == 0:
            raise SimTrap("div-by-zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return ((q + h) & m) - h

    return f


def _mk_srem(width: int):
    h = 1 << (width - 1)
    m = (1 << width) - 1

    def f(a, b):
        if b == 0:
            raise SimTrap("div-by-zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return ((a - q * b + h) & m) - h

    return f


def _mk_load_int(size: int, signed: bool):
    """Specialized load: one call replacing the Memory.read_int chain.

    Semantics (including the trap message) are identical to
    ``Memory.read_int(addr, size, signed)``.
    """
    h = 1 << (size * 8 - 1)
    full = 1 << (size * 8)

    def f(mem, a):
        if a < mem.global_base or a + size > mem.size:
            raise SimTrap("segfault", f"access of {size} bytes at {a:#x}")
        v = int.from_bytes(mem.data[a:a + size], "little")
        return v - full if signed and v >= h else v

    return f


def _mk_store_int(size: int):
    """Specialized store, identical to ``Memory.write_int``."""
    m = (1 << (size * 8)) - 1

    def f(mem, a, v):
        if a < mem.global_base or a + size > mem.size:
            raise SimTrap("segfault", f"access of {size} bytes at {a:#x}")
        mem.data[a:a + size] = (v & m).to_bytes(size, "little")

    return f


def _ld_f64(mem, a):
    if a < mem.global_base or a + 8 > mem.size:
        raise SimTrap("segfault", f"access of 8 bytes at {a:#x}")
    return _PACK_F64.unpack_from(mem.data, a)[0]


def _st_f64(mem, a, v):
    if a < mem.global_base or a + 8 > mem.size:
        raise SimTrap("segfault", f"access of 8 bytes at {a:#x}")
    try:
        _PACK_F64.pack_into(mem.data, a, v)
    except (OverflowError, ValueError):
        _PACK_F64.pack_into(mem.data, a, float("nan"))


def _mk_fptosi(width: int):
    h = 1 << (width - 1)
    m = (1 << width) - 1
    inf = float("inf")

    def f(v):
        if v != v or v == inf or v == -inf:
            return 0
        return ((int(v) + h) & m) - h

    return f


# -- the decoder ----------------------------------------------------------


class _Decoder:
    def __init__(self, module: Module, layout: GlobalLayout):
        self.module = module
        self.layout = layout
        self.nk = itertools.count()
        # one shared globals dict for every compiled closure
        self.env: Dict[str, object] = {
            "_f_one": _f_one,
            "_fadd": _fadd,
            "_fsub": _fsub,
            "_fmul": _fmul,
            "_fdiv": _fdiv,
            "_fmt_i64": format_i64,
            "_fmt_f64": format_f64,
            "_fmt_char": format_char,
            "_ldf": _ld_f64,
            "_stf": _st_f64,
            "_NL": "\n",
        }

    def mem_fn(self, prefix: str, size: int, maker, *args) -> str:
        name = f"_{prefix}{size}"
        if name not in self.env:
            self.env[name] = maker(size, *args)
        return name

    def compile(self, expr: str) -> Callable:
        return eval(compile("lambda ip, fr: " + expr, "<ir-decode>", "eval"),
                    self.env)

    def operand(self, v: Value) -> str:
        """Expression reading one operand inside a closure."""
        if isinstance(v, Instruction):
            return f"fr.temps[{v.iid}]"
        if isinstance(v, Constant):
            val = v.value
            if type(val) is int:
                return f"({val})"
            name = f"_k{next(self.nk)}"
            self.env[name] = val
            return name
        if isinstance(v, GlobalVariable):
            return f"({self.layout.address_of(v)})"
        if isinstance(v, Argument):
            return f"fr.arg_values[{v.index}]"
        raise IRError(f"cannot evaluate operand {v!r}")

    def width_fn(self, prefix: str, width: int, maker) -> str:
        name = f"_{prefix}{width}"
        if name not in self.env:
            self.env[name] = maker(width)
        return name

    def _wrap(self, expr: str, width: int) -> str:
        h = 1 << (width - 1)
        m = (1 << width) - 1
        return f"((({expr}) + {h}) & {m}) - {h}"

    # -- per-instruction decode ------------------------------------------

    def decode_inst(self, inst: Instruction, fn: Function, block,
                    dfn: DecodedFunction,
                    functions: Dict[Function, DecodedFunction]) -> tuple:
        op = inst.opcode
        iid = inst.iid

        if op == "br":
            return (K_BR, dfn.pairs[inst.target], iid, inst,
                    dfn.block_pairs)
        if op == "condbr":
            cond = self.compile(self.operand(inst.operands[0]))
            return (K_CONDBR,
                    (cond, dfn.pairs[inst.then_block],
                     dfn.pairs[inst.else_block]),
                    iid, inst, dfn.block_pairs)
        if op == "ret":
            payload = (self.compile(self.operand(inst.operands[0]))
                       if inst.operands else None)
            return (K_RET, payload, iid, inst)
        if op == "store":
            v = self.operand(inst.operands[0])
            p = self.operand(inst.operands[1])
            ty = inst.operands[0].type
            if ty.is_float:
                expr = f"_stf(ip.memory, {p}, float({v}))"
            else:
                st = self.mem_fn("st", ty.size, _mk_store_int)
                expr = f"{st}(ip.memory, {p}, int({v}))"
            return (K_CTRL, self.compile(expr), iid, inst)
        if op == "unreachable":
            return (K_CTRL,
                    _trap_raiser("unreachable", f"@{fn.name}/{block.label}"),
                    iid, inst)
        if op == "call":
            return self._decode_call(inst, functions)
        if op == "alloca":
            return (K_ALLOCA, max(1, inst.allocated_type.size), iid, inst)

        return (K_VALUE, self.compile(self._value_expr(inst, op)), iid, inst)

    def _decode_call(self, inst, functions) -> tuple:
        iid = inst.iid
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, str):
            if callee == PRINT_I64:
                expr = f"ip.outputs.append(_fmt_i64(int({args[0]})) + _NL)"
                return (K_CTRL, self.compile(expr), iid, inst)
            if callee == PRINT_F64:
                expr = f"ip.outputs.append(_fmt_f64(float({args[0]})) + _NL)"
                return (K_CTRL, self.compile(expr), iid, inst)
            if callee == PRINT_CHAR:
                expr = f"ip.outputs.append(_fmt_char(int({args[0]})))"
                return (K_CTRL, self.compile(expr), iid, inst)
            if callee == DETECT:
                return (K_CTRL, _detect, iid, inst)
            if callee in INTRINSICS:
                name = f"_m{next(self.nk)}"
                self.env[name] = math_impl(callee)
                expr = name + "(" + ", ".join(
                    f"float({a})" for a in args) + ")"
                return (K_VALUE, self.compile(expr), iid, inst)
            return (K_CTRL, _ir_raiser(f"unknown intrinsic @{callee}"),
                    iid, inst)

        if callee.is_declaration:
            return (K_CTRL, _ir_raiser(f"call to declaration @{callee.name}"),
                    iid, inst)
        if len(args) != len(callee.args):
            return (K_CTRL,
                    _ir_raiser(f"@{callee.name} expects {len(callee.args)} "
                               f"args, got {len(args)}"),
                    iid, inst)
        args_fn = self.compile("[" + ", ".join(args) + "]")
        kind = K_CALL0 if inst.type.is_void else K_CALL1
        return (kind, (args_fn, functions[callee]), iid, inst)

    def _value_expr(self, inst, op: str) -> str:
        operand = self.operand
        if op == "load":
            a = operand(inst.operands[0])
            ty = inst.type
            if ty.is_float:
                return f"_ldf(ip.memory, {a})"
            if ty.is_pointer:
                ld = self.mem_fn("ldu", 8, _mk_load_int, False)
                return f"{ld}(ip.memory, {a})"
            ld = self.mem_fn("lds", ty.size, _mk_load_int, True)
            return f"{ld}(ip.memory, {a})"
        if op == "gep":
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            return f"(({a}) + ({b}) * {inst.element_size}) & {_M64}"
        if op == "icmp":
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            pred = inst.pred
            if pred in _ICMP_SIGNED:
                return f"(1 if ({a}) {_ICMP_SIGNED[pred]} ({b}) else 0)"
            ty = inst.operands[0].type
            width = 64 if ty.is_pointer else ty.bits
            m = (1 << width) - 1
            cmp = _ICMP_UNSIGNED[pred]
            return f"(1 if (({a}) & {m}) {cmp} (({b}) & {m}) else 0)"
        if op == "fcmp":
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            if inst.pred == "one":
                return f"_f_one(({a}), ({b}))"
            return f"(1 if ({a}) {_FCMP_OPS[inst.pred]} ({b}) else 0)"
        if op == "select":
            c = operand(inst.operands[0])
            a = operand(inst.operands[1])
            b = operand(inst.operands[2])
            return f"(({a}) if ({c}) else ({b}))"
        if op in ("add", "sub", "mul", "and", "or", "xor"):
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            sym = {"add": "+", "sub": "-", "mul": "*",
                   "and": "&", "or": "|", "xor": "^"}[op]
            return self._wrap(f"({a}) {sym} ({b})", inst.type.bits)
        if op in ("shl", "ashr", "lshr"):
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            width = inst.type.bits
            m = (1 << width) - 1
            wm = width - 1
            if op == "shl":
                body = f"(({a}) & {m}) << (({b}) & {wm})"
            elif op == "ashr":
                body = f"({a}) >> (({b}) & {wm})"
            else:
                body = f"(({a}) & {m}) >> (({b}) & {wm})"
            return self._wrap(body, width)
        if op == "sdiv":
            name = self.width_fn("sdiv", inst.type.bits, _mk_sdiv)
            return (f"{name}(({operand(inst.operands[0])}), "
                    f"({operand(inst.operands[1])}))")
        if op == "srem":
            name = self.width_fn("srem", inst.type.bits, _mk_srem)
            return (f"{name}(({operand(inst.operands[0])}), "
                    f"({operand(inst.operands[1])}))")
        if op in ("fadd", "fsub", "fmul", "fdiv"):
            a = operand(inst.operands[0])
            b = operand(inst.operands[1])
            return f"_f{op[1:]}(({a}), ({b}))"
        if op == "sext":
            # canonical signed form is width-independent
            return f"({operand(inst.operands[0])})"
        if op == "zext":
            m = (1 << inst.operands[0].type.bits) - 1
            return f"({operand(inst.operands[0])}) & {m}"
        if op == "trunc":
            return self._wrap(operand(inst.operands[0]), inst.type.bits)
        if op == "sitofp":
            return f"float({operand(inst.operands[0])})"
        if op == "fptosi":
            name = self.width_fn("fptosi", inst.type.bits, _mk_fptosi)
            return f"{name}(({operand(inst.operands[0])}))"
        if op in ("bitcast", "ptrtoint", "inttoptr"):
            return f"({operand(inst.operands[0])}) & {_M64}"
        raise IRError(f"cannot execute opcode {op!r}")


def _decode(module: Module, layout: GlobalLayout) -> DecodedModule:
    dec = _Decoder(module, layout)
    # shell pass first so calls and branches can reference any function
    # or block before its body is filled (mutual recursion, back edges)
    functions: Dict[Function, DecodedFunction] = {
        fn: DecodedFunction(fn)
        for fn in module.functions.values()
        if not fn.is_declaration
    }
    max_iid = 0
    for fn, dfn in functions.items():
        for block in fn.blocks:
            code = dfn.pairs[block][1]
            for inst in block.instructions:
                if inst.iid > max_iid:
                    max_iid = inst.iid
                code.append(dec.decode_inst(inst, fn, block, dfn, functions))
    return DecodedModule(module, functions, max_iid)
