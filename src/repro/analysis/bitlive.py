"""Bit-level liveness / mask dataflow over both execution layers.

BEC-style static pruning (PAPERS.md): most injected bit flips are
provably benign because the flipped bit is *dead* (the destination is
never read again before being overwritten), *masked* (an ``and``/
shift/truncation/narrow store discards it before any observable use),
or lands in a value whose every observable use is a checker compare
(in which case the flip is detected, not silent — and therefore still
**not** Benign: the oracle contract is bit-identical output).

This module computes, per static injection site, the set of fault
*coordinates* (the ``bit`` values a campaign draws in
``[0, fault_bit_range)``) whose flip provably cannot change program
behaviour — status, trap kind, and output all identical to golden.
Soundness is the only hard requirement; precision is best-effort.
``tests/test_bitlive_oracle.py`` enforces the contract exhaustively on
generated programs, and :mod:`repro.testgen.mutants` carries weakened
variants of the transfer functions that the oracle must kill.

Two layer-specific analyses share one report shape:

* **IR** (:func:`analyze_ir`) — a backward observed-bits pass over the
  SSA def-use graph of each function.  A value's *observed mask* is the
  union over its uses of the bits that can influence anything
  observable (memory, control flow, calls, traps, output).  Transfer
  functions follow :data:`repro.ir.instructions.BIT_SEMANTICS`: bitwise
  ops propagate per-bit, constant ``and``/``or`` masks drop forced
  bits, shifts translate the mask, ``add``/``sub``/``mul`` close over
  carry propagation (a low bit can flip every higher bit), and
  division/compares/calls/stores observe operands fully.  Values with
  no bit model (floats, pointers used as data) are fully observed.

* **asm** (:func:`analyze_asm`) — a classic backward liveness fixpoint
  over the uop CFG, at bit granularity for GPRs and flag granularity
  for the five-flag word (:data:`repro.machine.machine.FLAG_BITS`),
  with conditional-code read sets from
  :data:`repro.backend.isa.CC_READS`.  Calls and returns are
  everything-live boundaries; runtime print calls read ``rdi``;
  ``ud2``/``__detect`` terminate unconditionally, so nothing is live
  across them.  XMM destinations are conservatively never benign.

The dataflow facts double as the stratification signal: every site is
classified ``protected`` (checker/shadow provenance — a flip there is
caught or harmless before it can reach output), ``unknown`` (no bit
model: XMM/float/pointer payloads), or ``live``.  Stratified sampling
(:mod:`repro.fi.prune`) is unbiased for *any* partition, so the class
labels carry no soundness burden — only the benign masks do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backend.isa import CC_READS, Role
from ..faultmodel import validate_fault_model
from ..ir.instructions import BIT_SEMANTICS, Instruction
from ..machine.machine import FLAG_BITS
from ..utils import bits

__all__ = [
    "BitliveConfig",
    "BitliveReport",
    "IRLiveTemps",
    "WEAKENINGS",
    "analyze",
    "analyze_ir",
    "analyze_asm",
]

_M64 = (1 << 64) - 1
_SIGN = 1 << 63
_ALL_FLAGS = 31

#: documented analysis weakenings, exercised by the mutation harness —
#: each names a hook below that :mod:`repro.testgen.mutants` patches
WEAKENINGS = (
    "masked-high-dead",      # drop carry closure on add/sub/mul
    "ignore-call-clobbers",  # calls/returns no longer all-live boundaries
    "flags-always-dead",     # condition codes read no flags
    "skip-checker-shadow",   # checker compares observe nothing
)


# ---------------------------------------------------------------------------
# patchable transfer hooks (the mutation surface)
# ---------------------------------------------------------------------------

def _carry_close(m: int) -> int:
    """Bits an operand can influence through carry-propagating
    arithmetic when ``m`` result bits are observed: everything at or
    below the highest observed bit."""
    return (1 << m.bit_length()) - 1 if m else 0


def _call_boundary() -> Optional[int]:
    """Liveness at a call/return boundary.  ``None`` means *everything
    is live* (the sound default: callee/caller behaviour is opaque)."""
    return None


def _cc_reads(cc: str) -> int:
    """Flag mask a condition code reads (zf=1, sf=2, of=4, cf=8, uf=16)."""
    m = 0
    for name in CC_READS[cc]:
        m |= FLAG_BITS[name]
    return m


def _checker_observes(user: Instruction) -> bool:
    """Does a compare instruction observe its operands?  Always true in
    the sound analysis: a checker compare that sees a flipped shadow
    raises a detection, which is *not* a benign outcome.  The
    ``skip-checker-shadow`` weakening returns False for checker
    compares, classifying checker-shadowed bits Benign — unsound, and
    killed by the exhaustive oracle."""
    return True


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class BitliveReport:
    """Per-static-site benign fault coordinates for one (layer, model).

    ``benign`` maps static id (IR iid / asm pc) to a 64-bit mask over
    the campaign's fault-coordinate space: bit ``b`` set means drawing
    ``bit=b`` at that site is provably benign.  Sites absent from the
    map have no benign coordinates.  ``site_class`` labels every
    injectable static site for stratification.
    """

    layer: str
    fault_model: str
    #: static id -> benign coordinate mask (over drawn ``bit`` values)
    benign: Dict[int, int] = field(default_factory=dict)
    #: static id -> 'protected' | 'live' | 'unknown'
    site_class: Dict[int, str] = field(default_factory=dict)
    #: static id -> dead/masked destination bits in width space (debug)
    dead_bits: Dict[int, int] = field(default_factory=dict)

    def benign_pair(self, static_id: int, bit: int) -> bool:
        m = self.benign.get(static_id)
        return bool(m is not None and (m >> (bit & 63)) & 1)

    def benign_coords(self, static_id: int) -> List[int]:
        m = self.benign.get(static_id, 0)
        return [b for b in range(64) if (m >> b) & 1]

    def stats(self) -> Dict[str, object]:
        sites = len(self.site_class)
        with_benign = sum(1 for m in self.benign.values() if m)
        coords = sum(bin(m).count("1") for m in self.benign.values())
        classes: Dict[str, int] = {}
        for c in self.site_class.values():
            classes[c] = classes.get(c, 0) + 1
        return {
            "layer": self.layer,
            "fault_model": self.fault_model,
            "sites": sites,
            "sites_with_benign": with_benign,
            "benign_coords": coords,
            "benign_fraction": coords / (64 * sites) if sites else 0.0,
            "classes": classes,
        }


@dataclass(frozen=True)
class BitliveConfig:
    """Analysis configuration.  ``enabled=False`` yields an empty
    report (no pruning, uniform behaviour); the flag exists so the
    pruning switch can participate in journal specs and profile keys
    as one canonical document (:func:`config_doc`)."""

    enabled: bool = True

    def doc(self) -> Dict[str, object]:
        return {"bitlive": 1, "enabled": bool(self.enabled)}


def _width_of(ty) -> Optional[int]:
    """Bit width of a value's flip space, or None when the type has no
    sound bit model here (floats: any mantissa/exponent flip can change
    printed output; pointers: addresses feed trap checks)."""
    if ty.is_integer:
        return ty.bits
    return None


def _coord_mask(dead: int, width: int, fault_model: str,
                dead_flags: int = _ALL_FLAGS) -> int:
    """Width-space dead mask -> benign mask over drawn coordinates.

    A drawn coordinate ``b`` flips bit ``b % width`` (SEU) or the
    adjacent pair ``b % width``/``(b+1) % width`` (SET).  At asm GPR
    sites a SET additionally flips flag ``b % 5`` — callers pass the
    dead-flag set; IR and asm FLAGS/XMM sites pass all-dead.
    """
    cm = 0
    for b in range(64):
        b1 = b % width
        ok = (dead >> b1) & 1
        if ok and fault_model == "set":
            b2 = (b + 1) % width
            ok = (dead >> b2) & 1 and (dead_flags >> (b % 5)) & 1
        if ok:
            cm |= 1 << b
    return cm


# ---------------------------------------------------------------------------
# IR: backward observed-bits over def-use
# ---------------------------------------------------------------------------

def _const_uns(v, width: int) -> Optional[int]:
    """Unsigned bit pattern of a Constant operand, else None."""
    from ..ir.values import Constant

    if isinstance(v, Constant) and isinstance(v.value, int) \
            and not isinstance(v.value, bool):
        return bits.to_unsigned(v.value, width)
    if isinstance(v, Constant) and isinstance(v.value, bool):
        return int(v.value)
    return None


def _shift_amount(user: Instruction, width: int) -> Optional[int]:
    amt = _const_uns(user.operands[1], width)
    if amt is None:
        return None
    return amt & (width - 1)


def _observe_ir(user: Instruction, pos: int, obs_user: int,
                operand: Instruction) -> int:
    """Bits of ``operand`` observed through one use.

    Returns a mask in the *operand's* width space.  ``obs_user`` is the
    currently-known observed mask of the user's own result.
    """
    w = _width_of(operand.type)
    if w is None:
        w = 64
    full = bits.mask(w)
    kind = BIT_SEMANTICS.get(user.opcode, "opaque")

    if kind == "carry":
        return _carry_close(obs_user) & full
    if kind == "bitwise":                      # xor
        return obs_user & full
    if kind == "mask-and":
        other = _const_uns(user.operands[1 - pos], w)
        if other is None:
            return obs_user & full
        return obs_user & other & full
    if kind == "mask-or":
        other = _const_uns(user.operands[1 - pos], w)
        if other is None:
            return obs_user & full
        return obs_user & ~other & full
    if kind in ("shift-l", "shift-r", "shift-ar"):
        if pos == 1:
            # the amount: only bits below log2(width) participate
            return (w - 1) if obs_user else 0
        sh = _shift_amount(user, w)
        if sh is None:
            return full if obs_user else 0
        if kind == "shift-l":
            return (obs_user >> sh) & full
        shifted = (obs_user << sh) & full
        if kind == "shift-ar" and sh and (obs_user >> (w - sh)):
            shifted |= 1 << (w - 1)
        return shifted
    if kind == "opaque-trap":                  # sdiv/srem: traps observe all
        return full
    if kind == "compare":                      # icmp/fcmp
        if not _checker_observes(user):
            return 0
        return full
    if kind == "cast":
        op = user.opcode
        if op == "sext":
            tm = obs_user
            low = tm & (bits.mask(w - 1) if w > 1 else 0)
            if tm >> (w - 1):
                low |= 1 << (w - 1)
            return low & full
        if op == "zext":
            return obs_user & full
        if op == "trunc":
            tw = user.type.bits
            return obs_user & bits.mask(tw) & full
        if op in ("bitcast", "ptrtoint", "inttoptr"):
            return obs_user & full
        return full                            # sitofp / fptosi
    if kind == "select":
        if pos == 0:
            return full if obs_user else 0
        return obs_user & full
    if kind == "addr":                         # gep operands: address math
        return full if obs_user else 0
    if kind == "load":                         # the pointer: trap-relevant
        return full
    # stores, calls, branches, returns, float arithmetic, unknown:
    # fully observable side effects
    return full


def analyze_ir(module, fault_model: Optional[str] = None,
               config: BitliveConfig = BitliveConfig()) -> BitliveReport:
    """Backward observed-bits pass over every defined function."""
    fm = validate_fault_model(fault_model)
    report = BitliveReport(layer="ir", fault_model=fm)
    if not config.enabled or fm == "cf":
        return report

    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        insts = list(fn.instructions())
        obs: Dict[int, int] = {id(i): 0 for i in insts}
        users: Dict[int, List[Tuple[Instruction, int]]] = {
            id(i): [] for i in insts
        }
        for inst in insts:
            for pos, op in enumerate(inst.operands):
                if isinstance(op, Instruction):
                    u = users.get(id(op))
                    if u is not None:
                        u.append((inst, pos))
        # def-use is acyclic (no phi), so reverse program order converges
        # in one pass; iterate defensively until stable anyway
        changed = True
        while changed:
            changed = False
            for inst in reversed(insts):
                m = 0
                for user, pos in users[id(inst)]:
                    m |= _observe_ir(user, pos, obs[id(user)], inst)
                if m != obs[id(inst)]:
                    obs[id(inst)] = m
                    changed = True

        for inst in insts:
            if not inst.is_ir_injection_site:
                continue
            if inst.is_shadow or inst.is_checker:
                cls = "protected"
            else:
                cls = "live"
            w = _width_of(inst.type)
            if w is None:
                report.site_class[inst.iid] = (
                    "protected" if cls == "protected" else "unknown")
                continue
            report.site_class[inst.iid] = cls
            dead = bits.mask(w) & ~obs[id(inst)]
            if dead:
                report.dead_bits[inst.iid] = dead
                cm = _coord_mask(dead, w, fm)
                if cm:
                    report.benign[inst.iid] = cm
    return report


class IRLiveTemps:
    """Value-level liveness of SSA temps at IR program points.

    ``at(fn, block, index)`` is the set of temp iids that some path from
    the point right before ``block.instructions[index]`` reads before
    redefining — the only temps of a frame at that point that can
    influence the rest of the run.  A frame keeps every temp it ever
    computed until it pops, so state comparisons restricted to this set
    (reconvergence, :mod:`repro.fi.ledger`) see through dead values.
    Classic backward dataflow over each function's CFG (the IR has no
    phi nodes), computed per function on first use and memoized per
    program point.  Returns ``None`` for a block it cannot place.
    """

    def __init__(self) -> None:
        self._live_out: Dict[object, Dict[object, frozenset]] = {}
        self._at: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}

    def _function(self, fn) -> Dict[object, frozenset]:
        live_out = self._live_out.get(fn)
        if live_out is not None:
            return live_out
        gen: Dict[object, set] = {}
        kill: Dict[object, set] = {}
        for block in fn.blocks:
            g: set = set()
            k: set = set()
            for inst in reversed(block.instructions):
                k.add(inst.iid)
                g.discard(inst.iid)
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        g.add(op.iid)
            gen[block] = g
            kill[block] = k
        live_in: Dict[object, frozenset] = {b: frozenset() for b in fn.blocks}
        out: Dict[object, frozenset] = {b: frozenset() for b in fn.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(fn.blocks):
                o = frozenset().union(
                    *(live_in[s] for s in block.successors()
                      if s in live_in))
                i = frozenset(gen[block] | (o - kill[block]))
                if o != out[block] or i != live_in[block]:
                    out[block] = o
                    live_in[block] = i
                    changed = True
        self._live_out[fn] = out
        return out

    def at(self, fn, block, index: int) -> Optional[Tuple[int, ...]]:
        key = (id(block), index)
        if key in self._at:
            return self._at[key]
        out = self._function(fn).get(block)
        if out is None:
            live = None
        else:
            cur = set(out)
            for inst in reversed(block.instructions[index:]):
                cur.discard(inst.iid)
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        cur.add(op.iid)
            live = tuple(sorted(cur))
        self._at[key] = live
        return live


# ---------------------------------------------------------------------------
# asm: backward bit-level liveness over the uop CFG
# ---------------------------------------------------------------------------

def _asm_analysis(program, config: BitliveConfig):
    """Fixpoint live-bits state per uop: (regs: 16 masks, flags mask)."""
    from ..machine import machine as M

    uops = program.uops
    n = len(uops)
    succ: List[Tuple[int, ...]] = []
    for i, u in enumerate(uops):
        code = u[0]
        if code == M.JMP:
            succ.append((u[1],))
        elif code == M.JCC:
            succ.append((u[1], i + 1) if i + 1 < n else (u[1],))
        elif code == M.CALL:
            succ.append((u[1], i + 1) if i + 1 < n else (u[1],))
        elif code in (M.RET, M.UD2):
            succ.append(())
        else:
            succ.append((i + 1,) if i + 1 < n else ())

    # live-in per uop
    in_regs = [[0] * 16 for _ in range(n)]
    in_fl = [0] * n

    rcx = M._RCX
    rax = M._RAX
    rdx = M._RDX
    rdi = M._RDI
    cc_mask = _cc_read_masks()

    def transfer(i: int, u, oregs: List[int], ofl: int):
        code = u[0]
        regs = list(oregs)
        fl = ofl
        if code == M.MOV_RR:
            rd = regs[u[1]]
            regs[u[1]] = 0
            regs[u[2]] |= rd
        elif code == M.MOV_RI:
            regs[u[1]] = 0
        elif code == M.MOV_RM:
            regs[u[1]] = 0
            if u[2] >= 0:
                regs[u[2]] = _M64
        elif code == M.MOV_MR:
            if u[1] >= 0:
                regs[u[1]] = _M64
            regs[u[3]] |= bits.mask(8 * u[4])
        elif code == M.MOV_MI:
            if u[1] >= 0:
                regs[u[1]] = _M64
        elif code in (M.MOVSD_XM,):
            if u[2] >= 0:
                regs[u[2]] = _M64
        elif code in (M.MOVSD_MX,):
            if u[1] >= 0:
                regs[u[1]] = _M64
        elif code in (M.MOVSD_XX, M.MOVSD_XI, M.ADDSD, M.SUBSD,
                      M.MULSD, M.DIVSD):
            pass
        elif code == M.LEA:
            rd = regs[u[1]]
            regs[u[1]] = 0
            if u[2] >= 0:
                regs[u[2]] |= _carry_close(rd)
        elif code in (M.ADD_RR, M.ADD_RI, M.SUB_RR, M.SUB_RI):
            rd = regs[u[1]]
            gen = _M64 if (fl & 15) else _carry_close(rd)
            regs[u[1]] = gen
            if code in (M.ADD_RR, M.SUB_RR):
                regs[u[2]] |= gen
            fl = 0
        elif code in (M.IMUL_RR, M.IMUL_RI):
            rd = regs[u[1]]
            gen = _M64 if (fl & 3) else _carry_close(rd)
            regs[u[1]] = gen
            if code == M.IMUL_RR:
                regs[u[2]] |= gen
            fl = 0
        elif code == M.AND_RR:
            rd = regs[u[1]]
            gen = _M64 if (fl & 3) else rd
            regs[u[1]] = gen
            regs[u[2]] |= gen
            fl = 0
        elif code == M.AND_RI:
            rd = regs[u[1]]
            c = u[2]
            regs[u[1]] = (rd | (_M64 if (fl & 3) else 0)) & c
            fl = 0
        elif code == M.OR_RR:
            rd = regs[u[1]]
            gen = _M64 if (fl & 3) else rd
            regs[u[1]] = gen
            regs[u[2]] |= gen
            fl = 0
        elif code == M.OR_RI:
            rd = regs[u[1]]
            c = u[2]
            regs[u[1]] = (rd | (_M64 if (fl & 3) else 0)) & ~c & _M64
            fl = 0
        elif code == M.XOR_RR:
            if u[1] == u[2]:
                regs[u[1]] = 0
            else:
                rd = regs[u[1]]
                gen = _M64 if (fl & 3) else rd
                regs[u[1]] = gen
                regs[u[2]] |= gen
            fl = 0
        elif code == M.XOR_RI:
            rd = regs[u[1]]
            regs[u[1]] = _M64 if (fl & 3) else rd
            fl = 0
        elif code in (M.SHL_RI, M.SAR_RI, M.SHR_RI):
            rd = regs[u[1]]
            sh = u[2]
            flg = fl & 3
            if code == M.SHL_RI:
                gen = rd >> sh
                if flg:
                    gen |= _M64 >> sh
            else:
                gen = (rd << sh) & _M64
                if flg:
                    gen |= (_M64 << sh) & _M64
                if code == M.SAR_RI and sh and \
                        ((rd >> (64 - sh)) or flg):
                    gen |= _SIGN
            regs[u[1]] = gen
            fl = 0
        elif code in (M.SHL_RC, M.SAR_RC, M.SHR_RC):
            rd = regs[u[1]]
            if rd or (fl & 3):
                regs[u[1]] = _M64
                regs[rcx] |= 63
            else:
                regs[u[1]] = 0
                regs[rcx] |= 63 if (fl & 3) else 0
            fl = 0
        elif code == M.IDIV:
            regs[rax] = 0
            regs[rdx] = 0
            regs[rax] |= _M64
            regs[u[1]] |= _M64
            fl = 0
        elif code in (M.CMP_RR, M.CMP_RI, M.TEST_RR):
            gen = _M64 if (fl & 15) else 0
            regs[u[1]] |= gen
            if code in (M.CMP_RR, M.TEST_RR):
                regs[u[2]] |= gen
            fl = 0
        elif code == M.SETCC:
            rd = regs[u[1]]
            regs[u[1]] = 0
            if rd:
                fl |= cc_mask[u[2]]
        elif code == M.CMOV:
            rd = regs[u[1]]
            regs[u[2]] |= rd
            if rd:
                fl |= cc_mask[u[3]]
        elif code == M.JMP:
            pass
        elif code == M.JCC:
            fl |= cc_mask[u[2]]
        elif code in (M.CALL, M.RET):
            b = _call_boundary()
            if b is None:
                regs = [_M64] * 16
                fl = _ALL_FLAGS
            else:
                regs = [b] * 16
                fl = b & _ALL_FLAGS
        elif code == M.CALLRT:
            if u[1] == M._RT_DETECT:
                regs = [0] * 16
                fl = 0
            elif u[1] in (M._RT_PRINT_I64, M._RT_PRINT_CHAR):
                regs[rdi] = _M64
        elif code == M.PUSH:
            regs[u[1]] |= _M64
            regs[M._RSP] = _M64
        elif code == M.POP:
            regs[u[1]] = 0
            regs[M._RSP] = _M64
        elif code == M.UCOMISD:
            fl = 0
        elif code == M.CVTSI2SD:
            regs[u[2]] |= _M64
        elif code == M.CVTTSD2SI:
            regs[u[1]] = 0
        elif code == M.UD2:
            regs = [0] * 16
            fl = 0
        else:                                   # pragma: no cover
            regs = [_M64] * 16
            fl = _ALL_FLAGS
        return regs, fl

    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            oregs = [0] * 16
            ofl = 0
            for s in succ[i]:
                sr = in_regs[s]
                for k in range(16):
                    oregs[k] |= sr[k]
                ofl |= in_fl[s]
            nregs, nfl = transfer(i, uops[i], oregs, ofl)
            if nfl != in_fl[i] or nregs != in_regs[i]:
                in_regs[i] = nregs
                in_fl[i] = nfl
                changed = True

    # out-states (the flip point: after the uop, before its successor)
    out_regs = []
    out_fl = []
    for i in range(n):
        oregs = [0] * 16
        ofl = 0
        for s in succ[i]:
            sr = in_regs[s]
            for k in range(16):
                oregs[k] |= sr[k]
            ofl |= in_fl[s]
        out_regs.append(oregs)
        out_fl.append(ofl)
    return out_regs, out_fl


def _cc_read_masks() -> Dict[int, int]:
    from ..machine.machine import _CC_IDS

    return {cid: _cc_reads(cc) for cc, cid in _CC_IDS.items()}


def _gpr_dest_index(u, code) -> Optional[int]:
    from ..machine import machine as M

    if code == M.IDIV:
        return M._RAX
    if code in (M.MOV_RR, M.MOV_RI, M.MOV_RM, M.LEA, M.ADD_RR, M.ADD_RI,
                M.SUB_RR, M.SUB_RI, M.IMUL_RR, M.IMUL_RI, M.AND_RR,
                M.AND_RI, M.OR_RR, M.OR_RI, M.XOR_RR, M.XOR_RI,
                M.SHL_RC, M.SHL_RI, M.SAR_RC, M.SAR_RI, M.SHR_RC,
                M.SHR_RI, M.SETCC, M.CMOV, M.CVTTSD2SI, M.POP):
        return u[1]
    return None                                  # pragma: no cover


def analyze_asm(program, fault_model: Optional[str] = None,
                config: BitliveConfig = BitliveConfig()) -> BitliveReport:
    """Backward bit-liveness over a :class:`CompiledProgram`."""
    fm = validate_fault_model(fault_model)
    report = BitliveReport(layer="asm", fault_model=fm)
    if not config.enabled or fm == "cf":
        return report

    out_regs, out_fl = _asm_analysis(program, config)
    uops = program.uops
    for pc, kind in enumerate(program.inj_kind):
        if not kind:
            continue
        inst = program.inst_at(pc)
        if inst.role in (Role.CHECKER, Role.FOLDED_CHECKER_JMP):
            cls = "protected"
        elif kind == 2:
            cls = "unknown"
        else:
            cls = "live"
        report.site_class[pc] = cls
        if kind == 2:
            continue                             # XMM: no benign claims
        dead_fl = ~out_fl[pc] & _ALL_FLAGS
        if kind == 3:                            # flags site
            cm = 0
            for b in range(64):
                ok = (dead_fl >> (b % 5)) & 1
                if ok and fm == "set":
                    ok = (dead_fl >> ((b + 1) % 5)) & 1
                if ok:
                    cm |= 1 << b
            if dead_fl:
                report.dead_bits[pc] = dead_fl
            if cm:
                report.benign[pc] = cm
            continue
        d = _gpr_dest_index(uops[pc], uops[pc][0])
        if d is None:                            # pragma: no cover
            continue
        dead = ~out_regs[pc][d] & _M64
        if not dead:
            continue
        report.dead_bits[pc] = dead
        cm = _coord_mask(dead, 64, fm, dead_flags=dead_fl)
        if cm:
            report.benign[pc] = cm
    return report


def analyze(built, layer: str, fault_model: Optional[str] = None,
            config: BitliveConfig = BitliveConfig()) -> BitliveReport:
    """Layer dispatcher over a :class:`~repro.pipeline.BuiltProgram`."""
    if layer == "ir":
        return analyze_ir(built.module, fault_model, config)
    if layer == "asm":
        return analyze_asm(built.compiled, fault_model, config)
    raise ValueError(f"unknown layer {layer!r}")
