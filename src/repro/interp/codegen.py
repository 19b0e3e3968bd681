"""Program-specialized codegen backend for the IR interpreter.

Third dispatch tier (``dispatch="codegen"``): instead of stepping
pre-decoded closures (one Python call per dynamic instruction), this
module emits one specialized Python source function per IR function —
operands, constants and global addresses inlined as literals, temps held
in Python locals where liveness allows — and ``exec``-compiles the lot
once per (module, layout), cached by the same content fingerprint the
decode cache uses (so in-place module mutation invalidates generated
code exactly when it invalidates the closures).

Shape of the generated code
---------------------------

Each IR function becomes ``def _gN(ip, fr, c, bb)`` structured as a
``while 1`` + chunk ladder.  A *chunk* is a basic block split at real
call sites, so every chunk is straight-line; branches stay inside the
function (``bb = K; continue``) while calls and returns unwind to a
small trampoline driver in :class:`~repro.interp.interpreter
.IRInterpreter` (no host recursion — simulated call depth is bounded by
``max_call_depth``, far beyond Python's recursion limit).  Action
tuples returned to the driver:

* ``(0,)``      — step budget would expire inside the next chunk; the
  frame has been positioned for the decoded loop, which finishes the
  run (and raises the budget trap at exactly the same step).
* ``(1, rv)``   — ``ret``.
* ``(2, dfn, args, ret_iid, flip_bit, after_bb)`` — call.
* ``(4,)``      — the next reconvergence grid point lies ahead inside
  the current chunk; the frame has been positioned (chunk start, or
  right after the flip) for the driver's careful stepper, which
  compares the state there.

Reconvergence grid points (:mod:`repro.fi.ledger`) ride on the flip
machinery at no cost to fast bodies: ``ev`` (``c[4]``) is the next
*event* index — the flip target until the flip lands, then the next
grid point (``c[5]`` holds the first one).  The slow-body test
``inj <= ev < inj + M`` thus also catches a grid point inside a chunk,
and the slow body bails at once when ``ev != tgt``.  Slow bodies write
every temp to the frame dict, so after the flip a grid point among the
chunk's later sites can bail mid-chunk.  Under the cf model (no slow
bodies) a chunk ending in a br/condbr site checks ``inj == ev`` at its
head instead.

Each chunk is emitted twice: a *slow* body that updates ``dyn_total``/
``dyn_injectable`` per instruction and carries the flip hook at every
injection site, and a *fast* body with loads/stores inlined (no helper
call) and both counters coalesced into a single ``dt += N; inj += M``
at the chunk exit.  The chunk picks the slow body only when the
injection target falls inside it (``inj <= tgt < inj + M``), so the one
flip per run is always taken by exact per-site code while everything
else runs coalesced.

Bit-identity contract
---------------------

Counters follow exactly the decoded loop's order and are written back
through the carrier ``c`` in a ``finally`` — so at *every* possible
raise point (traps, checker detections, containment budgets, host
escapes out of a corrupted step) they match the naive and decoded tiers
bit-for-bit.  The fast body keeps this exact despite coalescing via a
raise-site fixup table: every generated line is mapped to its
``(dt, inj)`` offsets from the chunk entry, and an ``except`` arm in
the generated function looks up the faulting line number in the
traceback and repairs the counters before re-raising.  Injection flips
route through ``_interp._flip_value`` (a late module-attribute lookup,
so the chaos harness's fault bombs hit generated code too).

Runs that need snapshots, profiling or trace taps delegate to the
decoded loop (bit-identical by the PR-5 equivalence suite); resuming
*from* a snapshot runs generated code, entering via a short decoded
"careful" stretch when the snapshot stopped mid-chunk.

Fault models (DESIGN §14): generation is parameterized by the fault
model and cached per (module, layout, fault_model).  SEU output is
byte-identical to the historical generator.  SET swaps the flip hook
for ``_interp._set_value``.  Under the control-flow model value sites
vanish (no slow bodies, no ``inj`` accounting mid-chunk) and the
``br``/``condbr`` tails become the injection sites: each allocates one
index and, on a hit, records the corrupted edge and jumps to a
uniformly drawn block-entry chunk of the current function.
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, List, Optional, Set, Tuple

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
from ..simgen import SourceBuilder, compile_generated
from . import interpreter as _interp_mod
from .decode import (
    DecodedFunction,
    DecodedModule,
    _Decoder,
    _PACK_F64,
    _fingerprint,
    _mk_store_int,
    decode_module,
)
from .layout import GlobalLayout

__all__ = ["CodegenFunction", "CodegenModule", "codegen_module"]

_TERMINATORS = frozenset(("br", "condbr", "ret", "unreachable"))


class CodegenFunction:
    """Generated callable plus the chunk map needed to (re-)enter it."""

    __slots__ = ("fn", "run", "entry_bb")

    def __init__(self, fn: Function, entry_bb: Dict[Tuple[object, int], int]):
        self.fn = fn
        self.run = None  # filled after exec
        #: (block, instruction index) -> chunk id, for every chunk
        #: boundary: block starts and after-call positions
        self.entry_bb = entry_bb


class CodegenModule:
    """Module-wide codegen result, cached like the decode cache."""

    __slots__ = ("module", "dm", "functions", "source", "env")

    def __init__(self, module: Module, dm: DecodedModule,
                 functions: Dict[Function, CodegenFunction],
                 source: str, env: dict):
        self.module = module
        self.dm = dm
        self.functions = functions
        self.source = source
        self.env = env


def codegen_module(module: Module, layout: GlobalLayout,
                   fault_model: str = "seu") -> CodegenModule:
    """Generate (cached) specialized code for ``module``; regenerates if
    the module was mutated in place or the layout moved — same
    invalidation rule (and fingerprint) as :func:`decode_module`.  The
    cache keeps one generated module per fault model (the corruption
    hooks are baked into the source).  Cached on the module object, as
    :func:`decode_module` is."""
    fp = _fingerprint(module)
    cached = getattr(module, "_codegen_cache", None)
    if cached is not None:
        lay, cached_fp, by_model = cached
        if cached_fp == fp and (
            lay is layout or lay.addresses == layout.addresses
        ):
            gm = by_model.get(fault_model)
            if gm is None:
                gm = _generate(module, layout, fault_model)
                by_model[fault_model] = gm
            return gm
    gm = _generate(module, layout, fault_model)
    module._codegen_cache = (layout, fp, {fault_model: gm})
    return gm


def _is_real_call(inst: Instruction) -> bool:
    """True for calls that push a simulated frame (split chunks);
    intrinsics are inlined and bad calls become raisers, mirroring
    ``_Decoder._decode_call``."""
    if inst.opcode != "call":
        return False
    callee = inst.callee
    if isinstance(callee, str):
        return False
    if callee.is_declaration:
        return False
    return len(inst.operands) == len(callee.args)


class _Emitter(_Decoder):
    """Reuses the decoder's operand/expression machinery to emit source
    statements instead of compiling closures."""

    def __init__(self, module: Module, layout: GlobalLayout,
                 fault_model: str = "seu"):
        super().__init__(module, layout)
        self.fault_model = fault_model
        #: cf model: value sites vanish, br/condbr tails inject
        self.cf = fault_model == "cf"
        #: flip hook, a late module-attribute lookup so the chaos
        #: harness's fault bombs hit generated code too
        self.flip_name = ("_interp._set_value" if fault_model == "set"
                          else "_interp._flip_value")
        #: raise-site fixup table: generated source line number ->
        #: (dt, inj) offsets from the chunk entry, for fast-body lines
        #: whose counter updates are coalesced at the chunk exit
        self.fix: Dict[int, Tuple[int, int]] = {}
        self.env.update({
            "_SimTrap": SimTrap,
            "_FaultDetected": FaultDetected,
            "_IRError": IRError,
            "_interp": _interp_mod,
            "_FIX": self.fix,
            "_ifb": int.from_bytes,
            "_upf": _PACK_F64.unpack_from,
        })
        self.ng = itertools.count()          # chunk/block env names
        self.dfn_names: Dict[Function, str] = {}
        self._types: Dict[int, str] = {}
        #: iids readable as `t{iid}` locals in the chunk being emitted
        self.local: Set[int] = set()
        #: iids that must also live in the frame's temps dict
        self.escaping: Set[int] = set()
        #: env names of (block, decoded code) per block
        self._block_names: Dict[object, Tuple[str, str]] = {}
        #: emitting a slow body: every temp also goes to the frame dict
        self.spill = False
        #: slow-body position: (block, index, sites later in the chunk)
        self.site: Tuple[object, int, int] = (None, 0, 0)
        self._dfn: Optional[DecodedFunction] = None

    def block_names(self, block) -> Tuple[str, str]:
        """Env names binding ``block`` and its decoded code list, for
        positioning a frame (``fr.block``/``fr.code``)."""
        names = self._block_names.get(block)
        if names is None:
            names = (f"_b{next(self.ng)}", f"_c{next(self.ng)}")
            self.env[names[0]] = block
            self.env[names[1]] = self._dfn.pairs[block][1]
            self._block_names[block] = names
        return names

    def injectable(self, inst: Instruction) -> bool:
        """True iff the decoded loop allocates an injection index for
        this instruction (K_VALUE or K_CALL1).  Under the cf model no
        value producer is a site (br/condbr tails allocate instead)."""
        if self.cf:
            return False
        op = inst.opcode
        if op == "call":
            callee = inst.callee
            if isinstance(callee, str):
                return (callee in INTRINSICS and callee not in
                        (PRINT_I64, PRINT_F64, PRINT_CHAR, DETECT))
            if callee.is_declaration \
                    or len(inst.operands) != len(callee.args):
                return False
            return not inst.type.is_void
        if op in _TERMINATORS or op in ("store", "alloca"):
            return False
        return True

    # -- naming helpers --------------------------------------------------

    def ty_name(self, ty) -> str:
        name = self._types.get(id(ty))
        if name is None:
            name = f"_ty{len(self._types)}"
            self._types[id(ty)] = name
            self.env[name] = ty
        return name

    def operand(self, v: Value) -> str:
        if isinstance(v, Instruction):
            if v.iid in self.local:
                return f"t{v.iid}"
            return f"t[{v.iid}]"
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
            return f"av[{v.index}]"
        raise IRError(f"cannot evaluate operand {v!r}")

    def value_expr(self, inst: Instruction) -> str:
        # the decoder's expressions close over `ip`; the generated
        # functions hoist `mem = ip.memory` into a local
        return self._value_expr(inst, inst.opcode).replace(
            "ip.memory", "mem")

    # -- statement emission ----------------------------------------------

    def assign(self, sb: SourceBuilder, iid: int, expr: str) -> None:
        sb.line(f"t{iid} = {expr}")
        self.local.add(iid)
        if self.spill or iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    def emit_value(self, sb: SourceBuilder, inst: Instruction,
                   expr: str) -> None:
        """An injection site: compute, maybe flip, allocate the index."""
        iid = inst.iid
        sb.line(f"t{iid} = {expr}")
        with sb.block("if inj == tgt:"):
            sb.line(f"t{iid} = {self.flip_name}(t{iid}, "
                    f"{self.ty_name(inst.type)}, bit)")
            sb.line("ip.injected = True")
            sb.line(f"ip.injected_iid = {iid}")
            sb.line("ev = c[4] = c[5]")
            block, i, later = self.site
            if self.spill and later:
                # the first grid point sits among this chunk's later
                # sites: compare there before running on
                bname, cname = self.block_names(block)
                with sb.block(f"if ev <= inj + {later}:"):
                    sb.line("inj += 1")
                    sb.line(f"t[{iid}] = t{iid}")
                    sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                            f"fr.index = {i + 1}")
                    sb.line("return (4,)")
        sb.line("inj += 1")
        self.local.add(iid)
        if self.spill or iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    def emit_call(self, sb: SourceBuilder, inst: Instruction, fn: Function,
                  block, i: int, entry_bb) -> None:
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        sb.line("dt += 1")
        if isinstance(callee, str):
            if callee == PRINT_I64:
                sb.line(f"out.append(_fmt_i64(int({args[0]})) + _NL)")
            elif callee == PRINT_F64:
                sb.line(f"out.append(_fmt_f64(float({args[0]})) + _NL)")
            elif callee == PRINT_CHAR:
                sb.line(f"out.append(_fmt_char(int({args[0]})))")
            elif callee == DETECT:
                sb.line("raise _FaultDetected('checker')")
            elif callee in INTRINSICS:
                name = f"_m{next(self.nk)}"
                self.env[name] = math_impl(callee)
                expr = name + "(" + ", ".join(
                    f"float({a})" for a in args) + ")"
                self.emit_value(sb, inst, expr)
            else:
                sb.line(f"raise _IRError("
                        f"{('unknown intrinsic @' + callee)!r})")
            return
        if callee.is_declaration:
            sb.line(f"raise _IRError("
                    f"{('call to declaration @' + callee.name)!r})")
            return
        if len(args) != len(callee.args):
            msg = (f"@{callee.name} expects {len(callee.args)} args, "
                   f"got {len(args)}")
            sb.line(f"raise _IRError({msg!r})")
            return
        # real call: args are evaluated before the flip decision and the
        # injectable index allocation, exactly like the decoded loop
        sb.line(f"_a = [{', '.join(args)}]")
        has_result = not inst.type.is_void
        if has_result:
            sb.line("fb = None")
            with sb.block("if inj == tgt:"):
                sb.line("fb = bit")
                sb.line(f"ip.injected_iid = {inst.iid}")
                sb.line("ev = c[4] = c[5]")
            sb.line("inj += 1")
        bname, cname = self.block_names(block)
        sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                f"fr.index = {i + 1}")
        after = entry_bb[(block, i + 1)]
        ret_iid = inst.iid if has_result else "None"
        fb = "fb" if has_result else "None"
        sb.line(f"return (2, {self.dfn_names[callee]}, _a, "
                f"{ret_iid}, {fb}, {after})")

    def emit_inst(self, sb: SourceBuilder, inst: Instruction, fn: Function,
                  block, i: int, entry_bb) -> None:
        op = inst.opcode
        if op == "br":
            sb.line("dt += 1")
            sb.line(f"bb = {entry_bb[(inst.target, 0)]}")
            sb.line("continue")
        elif op == "condbr":
            cond = self.operand(inst.operands[0])
            sb.line("dt += 1")
            then_bb = entry_bb[(inst.then_block, 0)]
            else_bb = entry_bb[(inst.else_block, 0)]
            sb.line(f"bb = {then_bb} if {cond} else {else_bb}")
            sb.line("continue")
        elif op == "ret":
            rv = self.operand(inst.operands[0]) if inst.operands else "None"
            sb.line("dt += 1")
            sb.line(f"return (1, {rv})")
        elif op == "store":
            v = self.operand(inst.operands[0])
            p = self.operand(inst.operands[1])
            ty = inst.operands[0].type
            sb.line("dt += 1")
            if ty.is_float:
                sb.line(f"_stf(mem, {p}, float({v}))")
            else:
                st = self.mem_fn("st", ty.size, _mk_store_int)
                sb.line(f"{st}(mem, {p}, int({v}))")
        elif op == "unreachable":
            sb.line("dt += 1")
            detail = f"@{fn.name}/{block.label}"
            sb.line(f"raise _SimTrap('unreachable', {detail!r})")
        elif op == "alloca":
            size = max(1, inst.allocated_type.size)
            sb.line("dt += 1")
            sb.line(f"sp = (ip.sp - {size}) & -8")
            sb.line("ip.sp = sp")
            with sb.block("if sp < SL:"):
                sb.line(f"raise _SimTrap('stack-overflow', "
                        f"{('@' + fn.name)!r})")
            self.assign(sb, inst.iid, "sp")
        elif op == "call":
            self.emit_call(sb, inst, fn, block, i, entry_bb)
        else:
            expr = self.value_expr(inst)
            sb.line("dt += 1")
            self.emit_value(sb, inst, expr)

    # -- fast-body emission (coalesced counters, no flip sites) ----------

    _LD_FMT = {1: "b", 2: "h", 4: "i", 8: "q"}
    _ST_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}

    def struct_fn(self, prefix: str, fmt: str, method: str) -> str:
        """Intern an unpack_from/pack_into bound method in the env."""
        name = f"_{prefix}{fmt}"
        if name not in self.env:
            self.env[name] = getattr(struct.Struct("<" + fmt), method)
        return name

    def emit_fast_load(self, sb: SourceBuilder, inst: Instruction) -> None:
        """Inline ``Memory`` load: bounds check plus a struct
        ``unpack_from`` (sign-extension included for signed widths) —
        byte-for-byte the semantics (and trap message) of the decoded
        tier's ``_lds``/``_ldu8``/``_ldf`` helpers, minus the call."""
        iid = inst.iid
        ty = inst.type
        size = 8 if (ty.is_float or ty.is_pointer) else ty.size
        sb.line(f"_a = {self.operand(inst.operands[0])}")
        sb.line(f"if _a < GB or _a + {size} > MSZ: "
                f"raise _SimTrap('segfault', "
                f"f\"access of {size} bytes at {{_a:#x}}\")")
        if ty.is_float:
            sb.line(f"t{iid} = _upf(md, _a)[0]")
        elif ty.is_pointer:  # unsigned 8-byte
            up = self.struct_fn("up", "Q", "unpack_from")
            sb.line(f"t{iid} = {up}(md, _a)[0]")
        else:
            fmt = self._LD_FMT.get(size)
            if fmt is None:  # odd width: decoded-identical slow form
                h = 1 << (size * 8 - 1)
                sb.line(f"t{iid} = _ifb(md[_a:_a + {size}], 'little')")
                sb.line(f"if t{iid} >= {h}: t{iid} -= {1 << (size * 8)}")
            else:
                up = self.struct_fn("up", fmt, "unpack_from")
                sb.line(f"t{iid} = {up}(md, _a)[0]")
        self.local.add(iid)
        if iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    def emit_fast_store(self, sb: SourceBuilder, inst: Instruction) -> None:
        v = self.operand(inst.operands[0])
        p = self.operand(inst.operands[1])
        ty = inst.operands[0].type
        if ty.is_float:
            sb.line(f"_stf(mem, {p}, float({v}))")
            return
        size = ty.size
        mask = (1 << (size * 8)) - 1
        # address then value conversion, in the decoded helper's
        # argument-evaluation order, before the bounds check
        sb.line(f"_a = {p}; _v = int({v})")
        sb.line(f"if _a < GB or _a + {size} > MSZ: "
                f"raise _SimTrap('segfault', "
                f"f\"access of {size} bytes at {{_a:#x}}\")")
        fmt = self._ST_FMT.get(size)
        if fmt is None:
            sb.line(f"md[_a:_a + {size}] = "
                    f"(_v & {mask}).to_bytes({size}, 'little')")
        else:
            sp = self.struct_fn("sp", fmt, "pack_into")
            sb.line(f"{sp}(md, _a, _v & {mask})")

    def emit_fast_intrinsic(self, sb: SourceBuilder,
                            inst: Instruction) -> None:
        """Mid-chunk call that does not push a frame: inlined intrinsic
        or a raiser for declaration/arity-mismatch/unknown callees."""
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, str):
            if callee == PRINT_I64:
                sb.line(f"out.append(_fmt_i64(int({args[0]})) + _NL)")
            elif callee == PRINT_F64:
                sb.line(f"out.append(_fmt_f64(float({args[0]})) + _NL)")
            elif callee == PRINT_CHAR:
                sb.line(f"out.append(_fmt_char(int({args[0]})))")
            elif callee == DETECT:
                sb.line("raise _FaultDetected('checker')")
            elif callee in INTRINSICS:
                name = f"_m{next(self.nk)}"
                self.env[name] = math_impl(callee)
                self.assign(sb, inst.iid, name + "(" + ", ".join(
                    f"float({a})" for a in args) + ")")
            else:
                sb.line(f"raise _IRError("
                        f"{('unknown intrinsic @' + callee)!r})")
        elif callee.is_declaration:
            sb.line(f"raise _IRError("
                    f"{('call to declaration @' + callee.name)!r})")
        else:
            msg = (f"@{callee.name} expects {len(callee.args)} args, "
                   f"got {len(args)}")
            sb.line(f"raise _IRError({msg!r})")

    def emit_fast(self, sb: SourceBuilder, inst: Instruction,
                  fn: Function) -> None:
        op = inst.opcode
        if op == "load":
            self.emit_fast_load(sb, inst)
        elif op == "store":
            self.emit_fast_store(sb, inst)
        elif op == "alloca":
            size = max(1, inst.allocated_type.size)
            sb.line(f"sp = (ip.sp - {size}) & -8")
            sb.line("ip.sp = sp")
            with sb.block("if sp < SL:"):
                sb.line(f"raise _SimTrap('stack-overflow', "
                        f"{('@' + fn.name)!r})")
            self.assign(sb, inst.iid, "sp")
        elif op == "call":
            self.emit_fast_intrinsic(sb, inst)
        else:
            self.assign(sb, inst.iid, self.value_expr(inst))

    def emit_fast_call_tail(self, sb: SourceBuilder, inst: Instruction,
                            block, i: int, entry_bb) -> None:
        """Chunk-ending real call, counters already coalesced (the
        trailing K_CALL1 index is allocated after argument evaluation,
        exactly like the decoded loop)."""
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        sb.line(f"_a = [{', '.join(args)}]")
        has_result = not inst.type.is_void
        if has_result and not self.cf:
            sb.line("inj += 1")
        bname, cname = self.block_names(block)
        sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                f"fr.index = {i + 1}")
        after = entry_bb[(block, i + 1)]
        ret_iid = inst.iid if has_result else "None"
        sb.line(f"return (2, {self.dfn_names[callee]}, _a, "
                f"{ret_iid}, None, {after})")

    def emit_fast_term(self, sb: SourceBuilder, inst: Instruction,
                       fn: Function, block, entry_bb) -> None:
        op = inst.opcode
        if op == "br":
            if self.cf:
                self._emit_cf_site(sb, inst, fn, block,
                                   normal_label=repr(inst.target.label))
            sb.line(f"bb = {entry_bb[(inst.target, 0)]}")
            sb.line("continue")
        elif op == "condbr":
            cond = self.operand(inst.operands[0])
            then_bb = entry_bb[(inst.then_block, 0)]
            else_bb = entry_bb[(inst.else_block, 0)]
            if self.cf:
                # evaluate the condition once, before the site check —
                # a raise inside it leaves inj unallocated, exactly as
                # in the decoded cf loop
                sb.line(f"_cv = {cond}")
                self._emit_cf_site(
                    sb, inst, fn, block,
                    normal_label=(f"({inst.then_block.label!r} if _cv "
                                  f"else {inst.else_block.label!r})"))
                sb.line(f"bb = {then_bb} if _cv else {else_bb}")
            else:
                sb.line(f"bb = {then_bb} if {cond} else {else_bb}")
            sb.line("continue")
        elif op == "ret":
            rv = self.operand(inst.operands[0]) if inst.operands else "None"
            sb.line(f"return (1, {rv})")
        else:  # unreachable
            detail = f"@{fn.name}/{block.label}"
            sb.line(f"raise _SimTrap('unreachable', {detail!r})")

    def _emit_cf_site(self, sb: SourceBuilder, inst: Instruction,
                      fn: Function, block, normal_label: str) -> None:
        """Control-flow injection site at a br/condbr tail: allocate one
        index; on a hit record the corrupted edge and jump to the
        uniformly drawn block-entry chunk instead of the normal target.
        Counters are exact here — the chunk's ``dt`` coalesce has
        already run and ``inj`` carries no mid-chunk sites under cf."""
        tname, lname, nb = self._cf_fn
        with sb.block("if inj == tgt:"):
            sb.line("inj += 1")
            sb.line("ip.injected = True")
            sb.line(f"ip.injected_iid = {inst.iid}")
            sb.line(f"ip._cf_edge = {{'layer': 'ir', 'fn': {fn.name!r}, "
                    f"'from': {block.label!r}, 'iid': {inst.iid}, "
                    f"'to': {normal_label}, "
                    f"'redirect': {lname}[bit % {nb}]}}")
            sb.line("ev = c[4] = c[5]")
            sb.line(f"bb = {tname}[bit % {nb}]")
            sb.line("continue")
        sb.line("inj += 1")

    def _register_fixups(self, first: int, stop: int,
                         dt_off: int, inj_off: int) -> None:
        for ln in range(first, stop):
            self.fix[ln] = (dt_off, inj_off)

    # -- per-function emission -------------------------------------------

    def emit_function(self, sb: SourceBuilder, fn: Function,
                      dfn: DecodedFunction, gname: str):
        self._dfn = dfn
        # chunk structure: blocks split after every real call site
        chunks: List[Tuple[object, int, int]] = []
        for block in fn.blocks:
            insts = block.instructions
            start = 0
            for i, inst in enumerate(insts):
                if _is_real_call(inst):
                    chunks.append((block, start, i + 1))
                    start = i + 1
            chunks.append((block, start, len(insts)))
        entry_bb = {(block, start): k
                    for k, (block, start, _end) in enumerate(chunks)}

        if self.cf:
            # redirect tables for control-flow faults: chunk id of every
            # block entry (in fn.blocks order) and the matching labels
            # for edge forensics
            tname = f"_cft{next(self.ng)}"
            lname = f"_cfl{next(self.ng)}"
            self.env[tname] = [entry_bb[(b, 0)] for b in fn.blocks]
            self.env[lname] = [b.label for b in fn.blocks]
            self._cf_fn = (tname, lname, len(fn.blocks))

        # liveness: temps read outside their defining chunk must cross
        # through the frame's temps dict (locals die at trampoline
        # bounces and at the decoded fallback boundary)
        iid_chunk: Dict[int, int] = {}
        for k, (block, start, end) in enumerate(chunks):
            for inst in block.instructions[start:end]:
                iid_chunk[inst.iid] = k
        self.escaping = set()
        for k, (block, start, end) in enumerate(chunks):
            for inst in block.instructions[start:end]:
                for op in inst.operands:
                    if isinstance(op, Instruction) \
                            and iid_chunk.get(op.iid) != k:
                        self.escaping.add(op.iid)

        sb.line(f"def {gname}(ip, fr, c, bb):")
        sb.indent()
        for line in ("t = fr.temps", "av = fr.arg_values",
                     "mem = ip.memory", "out = ip.outputs",
                     "md = mem.data", "GB = mem.global_base",
                     "MSZ = mem.size",
                     "SL = mem.stack_limit", "ms = ip.max_steps",
                     "dt = c[0]", "inj = c[1]", "tgt = c[2]",
                     "bit = c[3]", "ev = c[4]"):
            sb.line(line)
        sb.line("try:")
        sb.indent()
        sb.line("while 1:")
        sb.indent()

        def emit_chunk(k: int) -> None:
            block, start, end = chunks[k]
            insts = block.instructions
            n_entries = end - start
            if n_entries:
                # budget precheck: bail to the decoded loop, which will
                # raise the step-budget trap (or an earlier trap) at
                # exactly the right instruction within this chunk
                bname, cname = self.block_names(block)
                with sb.block(f"if dt + {n_entries} > ms:"):
                    sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                            f"fr.index = {start}")
                    sb.line("return (0,)")
            last = insts[end - 1] if n_entries else None
            tail_call = last is not None and _is_real_call(last)
            tail_term = (not tail_call and last is not None
                         and last.opcode in _TERMINATORS)
            if self.cf and tail_term and last.opcode in ("br", "condbr"):
                # the tail is a site: a grid point there is compared by
                # the careful stepper from the chunk head
                with sb.block("if inj == ev and ev != tgt:"):
                    sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                            f"fr.index = {start}")
                    sb.line("return (4,)")
            felloff = (f"fell off block {block.label} in @{fn.name}"
                       if not (tail_call or tail_term) else None)
            ninj = sum(1 for i in range(start, end)
                       if self.injectable(insts[i]))
            if ninj:
                # slow body: per-instruction counters + flip sites,
                # taken only when the flip lands inside this chunk
                with sb.block(f"if inj <= ev < inj + {ninj}:"):
                    with sb.block("if ev != tgt:"):
                        # a grid point, not the flip: compare it first
                        sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                                f"fr.index = {start}")
                        sb.line("return (4,)")
                    self.local = set()
                    self.spill = True
                    for i in range(start, end):
                        self.site = (block, i, sum(
                            1 for j in range(i + 1, end)
                            if self.injectable(insts[j])))
                        self.emit_inst(sb, insts[i], fn, block, i,
                                       entry_bb)
                    self.spill = False
                    if felloff is not None:
                        sb.line(f"raise _IRError({felloff!r})")
            # fast body: coalesced counters, raise sites fixed up via
            # the traceback line table
            self.local = set()
            body_end = end - 1 if (tail_call or tail_term) else end
            npre = 0
            for i in range(start, body_end):
                inst = insts[i]
                first = sb.next_lineno
                self.emit_fast(sb, inst, fn)
                self._register_fixups(first, sb.next_lineno,
                                      i - start + 1, npre)
                if self.injectable(inst):
                    npre += 1
            if n_entries:
                sb.line(f"dt += {n_entries}"
                        + (f"; inj += {npre}" if npre else ""))
            if tail_call:
                self.emit_fast_call_tail(sb, last, block, end - 1,
                                         entry_bb)
            elif tail_term:
                self.emit_fast_term(sb, last, fn, block, entry_bb)
            else:
                sb.line(f"raise _IRError({felloff!r})")

        def emit_tree(lo: int, hi: int) -> None:
            # balanced dispatch: O(log n) compares per block transition
            # instead of a linear if/elif scan (chunk ids are internal,
            # produced only by generated branches and validated
            # `entry_bb` lookups, so every leaf is exact)
            if hi - lo == 1:
                emit_chunk(lo)
            elif hi - lo == 2:
                with sb.block(f"if bb == {lo}:"):
                    emit_chunk(lo)
                with sb.block("else:"):
                    emit_chunk(lo + 1)
            else:
                mid = (lo + hi) // 2
                with sb.block(f"if bb < {mid}:"):
                    emit_tree(lo, mid)
                with sb.block("else:"):
                    emit_tree(mid, hi)

        emit_tree(0, len(chunks))
        sb.dedent()  # while
        sb.dedent()  # try
        sb.line("except BaseException as e:")
        sb.indent()
        # coalesced fast-body counters: repair from the faulting line
        sb.line("_o = _FIX.get(e.__traceback__.tb_lineno)")
        with sb.block("if _o is not None:"):
            sb.line("dt += _o[0]; inj += _o[1]")
        sb.line("raise")
        sb.dedent()
        sb.line("finally:")
        sb.indent()
        sb.line("c[0] = dt; c[1] = inj")
        sb.dedent()
        sb.dedent()  # def
        return entry_bb


def _generate(module: Module, layout: GlobalLayout,
              fault_model: str = "seu") -> CodegenModule:
    dm = decode_module(module, layout)
    em = _Emitter(module, layout, fault_model)
    sb = SourceBuilder()
    fn_list = list(dm.functions.items())
    for n, (fn, dfn) in enumerate(fn_list):
        em.dfn_names[fn] = f"_dfn{n}"
        em.env[f"_dfn{n}"] = dfn
    functions: Dict[Function, CodegenFunction] = {}
    for n, (fn, dfn) in enumerate(fn_list):
        entry_bb = em.emit_function(sb, fn, dfn, f"_g{n}")
        functions[fn] = CodegenFunction(fn, entry_bb)
        sb.blank()
    source = sb.source()
    code = compile_generated(
        source, f"<ir-codegen:{getattr(module, 'name', 'module')}>")
    exec(code, em.env)
    for n, (fn, _dfn) in enumerate(fn_list):
        functions[fn].run = em.env[f"_g{n}"]
    return CodegenModule(module, dm, functions, source, em.env)
