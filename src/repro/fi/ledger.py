"""Golden state ledger: reconvergence early exit for suffix replays.

A suffix replay resumes from a golden snapshot, applies one fault and
runs to the end.  Many faults are overwritten or masked within a few
hundred steps, after which the replay's *complete* machine state equals
the golden state at the same injectable index.  Both simulators are
deterministic, so from that point the replay must finish exactly as
golden does: status OK, golden output, Benign.  The rest of the suffix
need not run (the dynamic counterpart of FastFlip's section summaries,
PAPERS.md).

The engine's golden pass records a :class:`GoldenLedger`: full
snapshots (registers or frames, flags, pc, depth, counters, outputs,
heap break) on a sparse grid of injectable indices, with memory held as
page versions (:class:`~repro.memorymodel.PagedImage`) shared with each
other and with the snapshots at the drawn targets.  The pass stops at
the last drawn target, as a pass without a ledger does.  The rest of
the golden run — grid points past the last target, and the golden
output a reconverged replay reports — is recorded lazily, by one tail
pass resumed from the last target's snapshot, and only once some
replay needs it: it reconverges, or it survives past the recorded
prefix.  Suites whose replays all end early (detections, traps) never
pay for the tail.  A replay carries
the ledger through ``run(ledger=...)`` and checks it at every grid
point it crosses (:meth:`GoldenLedger.match_asm`,
:meth:`GoldenLedger.match_ir`): cheap scalar fields first, then
registers, outputs, IR frame temps, and memory page by page.  Equality
is exact — bytes for memory, bit patterns for floats, types and values
for IR temps; no digest decides anything.

At the IR layer a frame keeps dead SSA temps until it pops, so frames
compare only the temps live at their position
(:class:`repro.analysis.bitlive.IRLiveTemps`); a temp that is never
read again cannot influence the rest of the run.  Where liveness is
unknown the whole temps dict is compared.

The ledger is bounded: it holds at most ``points`` grid entries, and
grid entries and held target snapshots each at most half of ``budget``
bytes (distinct pages plus per-snapshot overhead).  Past its bounds the
grid thins deterministically — the spacing doubles and every other
point is dropped; targets past theirs are streamed by a second pass.
The tail pass's resume snapshot is the one snapshot held outside the
budget.  :data:`OFF` (no grid points) is the ledger-free engine the
benchmarks and oracles compare against.

The module-level ``_*_equal`` and ``_frame_live`` hooks are the
comparator's mutation surface (:mod:`repro.testgen.mutants`).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import NO_POINT
from ..memorymodel import PageStore

__all__ = [
    "DEFAULT_BUDGET",
    "GRID_POINTS",
    "EXHAUSTIVE",
    "NO_POINT",
    "OFF",
    "GoldenLedger",
    "LedgerConfig",
    "verify_reconvergence",
]

#: byte budget of one ledger (grid entries plus held target snapshots)
DEFAULT_BUDGET = 8 << 20
#: grid entries kept before the grid thins
GRID_POINTS = 64
#: smallest grid spacing (injectable sites) for an automatic grid
MIN_SPACING = 16

_PACK_XMM = struct.Struct("<16d").pack
_PACK_F64 = struct.Struct("<d").pack
_MISSING = object()


@dataclass(frozen=True)
class LedgerConfig:
    """Ledger sizing.  ``spacing=None`` derives the initial grid spacing
    from the drawn targets; ``spacing=1`` with large ``points`` and
    ``budget`` makes every injectable index a grid point (the
    exhaustive soundness oracle); ``points=0`` (:data:`OFF`) records no
    grid, so no replay ever ends early."""

    budget: int = DEFAULT_BUDGET
    points: int = GRID_POINTS
    spacing: Optional[int] = None


#: no grid: the engine without reconvergence (benchmark and oracle
#: reference)
OFF = LedgerConfig(points=0)


# ---------------------------------------------------------------------------
# comparator hooks (the mutation surface)
# ---------------------------------------------------------------------------

def _memory_equal(ledger: "GoldenLedger", data: bytearray, image) -> bool:
    """Byte equality of a live memory image with a ledger image."""
    bad = image.first_difference(data, ledger.hint)
    if bad < 0:
        return True
    ledger.hint = bad
    return False


def _flags_xmm_equal(fl: int, xmm: Sequence[float], entry) -> bool:
    """asm flags word and XMM bit patterns (``-0.0`` is not ``0.0``)."""
    return fl == entry.fl and _PACK_XMM(*xmm) == _PACK_XMM(*entry.xmm)


def _output_length_equal(outputs: Sequence[str],
                         golden: Sequence[str]) -> bool:
    """Emitted output, cheap part: the same number of writes."""
    return len(outputs) == len(golden)


def _output_text_equal(outputs: Sequence[str],
                       golden: Sequence[str]) -> bool:
    """Emitted output: the same text in every write (lengths are
    already known to match)."""
    for a, b in zip(outputs, golden):
        if a is not b and a != b:
            return False
    return True


def _frame_live(live, fn, block, index):
    """Temps of a frame at ``(block, index)`` that must match: the live
    set, or ``None`` (compare the whole frame) where it is unknown."""
    if live is None:
        return None
    return live.at(fn, block, index)


def _same_value(a, b) -> bool:
    """Exact equality of two simulated values: same type, same value,
    and for floats the same bit pattern."""
    if a is b:
        return True
    if type(a) is not type(b) or a != b:
        return False
    return type(a) is not float or _PACK_F64(a) == _PACK_F64(b)


def _same_values(xs: Sequence, ys: Sequence) -> bool:
    return len(xs) == len(ys) and all(
        _same_value(a, b) for a, b in zip(xs, ys))


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

def _overhead(snap) -> int:
    """Bytes a snapshot holds besides its pages (reference tuples,
    registers, frame temps)."""
    n = 8 * len(snap.mem.pages) + 8 * len(snap.outputs) + 256
    frames = getattr(snap, "frames", None)
    if frames:
        n += sum(100 * len(f[4]) + 200 for f in frames)
    return n


class GoldenLedger:
    """Golden snapshots on a thinning grid of injectable indices."""

    def __init__(self, targets: Sequence[int],
                 config: LedgerConfig = LedgerConfig(), live=None):
        self.config = config
        #: page store shared by every golden-pass snapshot
        self.store = PageStore()
        lo, hi = targets[0], targets[-1]
        pts = max(config.points, 1)
        self.spacing = config.spacing or max(
            MIN_SPACING, hi // pts, (hi - lo) // pts)
        #: grid points lie strictly after the first drawn target
        self.start = lo
        self.points: List[int] = []
        self.entries: Dict[int, object] = {}
        #: bytes charged to held targets (at admission)
        self.held_bytes = 0
        #: a target snapshot did not fit the budget; later targets are
        #: streamed by a second pass
        self.overflow = False
        #: bytes of the grid entries (distinct pages plus overhead)
        self.bytes = 0
        #: page bytes captured since the last snapshot that was kept
        self.unpaid = 0
        self.thinned = 0
        #: IR liveness oracle (:class:`repro.analysis.bitlive.IRLiveTemps`)
        self.live = live
        #: the last golden-pass snapshot, ``(index, snapshot)``: where
        #: the tail pass resumes
        self.last = None
        #: ``extend(ledger)`` runs the tail pass (set by the engine); it
        #: ends in :meth:`finish`
        self.extend = None
        #: an exception the tail pass raised (re-raised by the engine)
        self.error: Optional[BaseException] = None
        #: set once the golden run is complete
        self.complete = False
        self.golden_output: Optional[str] = None
        self.golden_return = None
        self.golden_total = 0
        #: page that differed at the last failed memory compare
        self.hint = 0

    # -- recording (golden passes) -------------------------------------------

    def watch(self, targets: Sequence[int]) -> Iterator[int]:
        """Ascending checkpoint stream of the golden pass: the drawn
        ``targets`` merged with the grid, whose spacing may widen while
        the stream runs; it ends at the last target."""
        ti = 0
        last = self.start
        while ti < len(targets):
            sp = self.spacing
            g = (last // sp + 1) * sp
            if not self.config.points or targets[ti] <= g:
                t = targets[ti]
                ti += 1
                if t == g:
                    last = g
                yield t
            else:
                last = g
                yield g

    def watch_tail(self, after: int) -> Iterator[int]:
        """Grid points past ``after``, to the end of the run (the tail
        pass)."""
        last = after
        while True:
            sp = self.spacing
            last = (last // sp + 1) * sp
            yield last

    def is_grid(self, idx: int) -> bool:
        return (self.config.points > 0 and idx > self.start
                and idx % self.spacing == 0)

    def admit(self, idx: int, snap, target: bool) -> bool:
        """Record one golden-pass snapshot (a grid point, a drawn target
        or both); returns whether a target snapshot is held for replay
        after the pass.  Grid entries and held targets each get half the
        budget: the grid thins past its half; once a target does not
        fit, it and every later target are streamed again by a second
        pass instead.  A kept snapshot is charged every page captured
        since the last kept one (an overestimate: some were superseded)."""
        half = self.config.budget // 2
        self.last = (idx, snap)
        self.unpaid += self.store.fresh
        cost = self.unpaid + _overhead(snap)
        grid = self.is_grid(idx)
        if grid:
            self.entries[idx] = snap
            self.points.append(idx)
            self.bytes += cost
        held = (target and not self.overflow
                and self.held_bytes + cost <= half)
        if target and not held:
            self.overflow = True
        if held:
            self.held_bytes += cost
        if grid or held:
            self.unpaid = 0
        if len(self.points) > self.config.points or self.bytes > half:
            self._thin()
        return held

    def admit_grid(self, idx: int, snap) -> None:
        """Tail-pass checkpoint callback: grid points only."""
        self.admit(idx, snap, False)

    def finish(self, output: str, return_value, total: int) -> None:
        """The golden run is complete: its output, return value and
        step count."""
        self.golden_output = output
        self.golden_return = return_value
        self.golden_total = total
        self.complete = True
        self.last = None

    def golden(self):
        """``(output, return value)`` of the golden run, running the
        tail pass first if it has not run yet."""
        self._complete()
        return self.golden_output, self.golden_return

    def _complete(self) -> None:
        if self.complete:
            return
        self.complete = True          # one attempt, even if it raises
        try:
            self.extend(self)
        except BaseException as exc:  # surfaced by the engine
            self.error = exc
            raise

    def _thin(self) -> None:
        while self.points and (len(self.points) > self.config.points
                               or self.bytes > self.config.budget // 2):
            self.spacing *= 2
            keep = [p for p in self.points if p % self.spacing == 0]
            for p in self.points:
                if p % self.spacing:
                    del self.entries[p]
            self.points = keep
            self.thinned += 1
            self._recount()

    def _recount(self) -> None:
        """Exact grid bytes: distinct pages of the kept entries."""
        seen = set()
        total = 0
        for snap in self.entries.values():
            total += _overhead(snap)
            for page in snap.mem.pages:
                if id(page) not in seen:
                    seen.add(id(page))
                    total += len(page)
        self.bytes = total

    # -- lookup (replays) ----------------------------------------------------

    def points_after(self, idx: int) -> Iterator[int]:
        """Grid points strictly after ``idx``, ascending (read live: the
        tail pass may add points, thinning may drop some)."""
        while True:
            idx = self.next_after(idx)
            if idx == NO_POINT:
                return
            yield idx

    def next_after(self, idx: int) -> int:
        """First grid point strictly after ``idx`` (or :data:`NO_POINT`).
        Past the recorded prefix of an incomplete run it is the next
        lattice point, which has no entry yet: a replay that reaches it
        makes the tail pass run (:meth:`_entry`)."""
        i = bisect_right(self.points, idx)
        if i < len(self.points):
            return self.points[i]
        if self.complete or not self.config.points:
            return NO_POINT
        after = max(idx, self.last[0])
        return (after // self.spacing + 1) * self.spacing

    def _entry(self, g: int):
        e = self.entries.get(g)
        if e is None and not self.complete:
            self._complete()
            e = self.entries.get(g)
        return e

    # -- comparators ---------------------------------------------------------

    def match_asm(self, g: int, mc, st, pc: int, steps: int) -> bool:
        """Does the machine state right before injectable site ``g``
        equal golden's?"""
        e = self._entry(g)
        if e is None:
            return False
        mem = mc.memory
        if (steps != e.steps or pc != e.pc or st.depth != e.depth
                or mem.heap_break != e.heap_break
                or not _output_length_equal(mc.outputs, e.outputs)
                or tuple(st.regs) != e.regs):
            return False
        if not _flags_xmm_equal(st.fl, st.xmm, e):
            return False
        if not _output_text_equal(mc.outputs, e.outputs):
            return False
        return _memory_equal(self, mem.data, e.mem)

    def match_ir(self, g: int, ip, stack, frame) -> bool:
        """Does the interpreter state right before injectable site ``g``
        equal golden's?  Frames compare live temps only."""
        e = self._entry(g)
        if e is None:
            return False
        mem = ip.memory
        gframes = e.frames
        if (ip.dyn_total != e.dyn_total or ip.sp != e.sp
                or mem.heap_break != e.heap_break
                or len(gframes) != len(stack) + 1
                or not _output_length_equal(ip.outputs, e.outputs)):
            return False
        callee_target = None
        for depth in range(len(gframes) - 1, -1, -1):
            f = frame if depth == len(stack) else stack[depth]
            (fn, block, _code, index, temps, sp_save, ret_target,
             ret_flip, args) = gframes[depth]
            if (f.fn is not fn or f.block is not block or f.index != index
                    or f.sp_save != sp_save or f.ret_target != ret_target
                    or f.ret_flip_bit != ret_flip
                    or not _same_values(f.arg_values, args)):
                return False
            live = _frame_live(self.live, fn, block, index)
            ftemps = f.temps
            if live is None:
                if ftemps.keys() != temps.keys() or not all(
                        _same_value(v, temps[k]) for k, v in ftemps.items()):
                    return False
            else:
                for iid in live:
                    # a suspended caller's call result is overwritten
                    # when the callee returns: not part of the state
                    if iid != callee_target and not _same_value(
                            ftemps.get(iid, _MISSING),
                            temps.get(iid, _MISSING)):
                        return False
            callee_target = ret_target
        if not _output_text_equal(ip.outputs, e.outputs):
            return False
        return _memory_equal(self, mem.data, e.mem)


# ---------------------------------------------------------------------------
# soundness oracle
# ---------------------------------------------------------------------------

#: an exhaustive ledger: every injectable index is a grid point
EXHAUSTIVE = LedgerConfig(budget=1 << 40, points=1 << 40, spacing=1)


def _record_sig(res) -> tuple:
    from .outcomes import canonical_trap_kind

    return (res.status.value, res.output, canonical_trap_kind(res.trap_kind),
            res.injected_iid, res.extra.get("asm_index"),
            res.extra.get("asm_role"), res.extra.get("asm_opcode"))


def verify_reconvergence(
    layer: str,
    *,
    module=None,
    layout=None,
    program=None,
    fault_model: Optional[str] = None,
    dispatch: Optional[str] = None,
    bits: Sequence[int] = (0,),
    config: LedgerConfig = EXHAUSTIVE,
) -> Dict[str, object]:
    """Replay every injectable index (one draw per ``bits`` offset) with
    reconvergence on, and re-run each early-exited draw as a full
    naive-tier execution.  A violation is any early exit whose status,
    output, trap kind, iid or asm metadata differ from the naive run.
    Returns ``{"draws", "reconverged", "saved_steps", "violations"}``;
    an empty ``violations`` list is the oracle passing."""
    from ..execresult import RunStatus
    from ..faultmodel import fault_bit_range, validate_fault_model
    from ..interp.interpreter import IRInterpreter
    from ..interp.layout import GlobalLayout
    from ..machine.machine import AsmMachine
    from .engine import run_injection_suite

    fm = validate_fault_model(fault_model)
    if layer == "ir":
        layout = layout or GlobalLayout(module)

        def sim(tier, **kw):
            return IRInterpreter(module, layout=layout, dispatch=tier,
                                 fault_model=fm, **kw)
    else:
        def sim(tier, **kw):
            return AsmMachine(program, layout, dispatch=tier,
                              fault_model=fm, **kw)

    golden = sim("decoded").run()
    if golden.status is not RunStatus.OK:
        raise ValueError(f"golden {layer} run failed: {golden.status}")
    max_steps = max(20_000, golden.dyn_total * 4)
    width = fault_bit_range(fm)
    samples = [((idx, b), idx, (idx * 13 + 7 + b) % width)
               for idx in range(golden.dyn_injectable) for b in bits]
    results: Dict[tuple, object] = {}
    stats: Dict[str, int] = {}
    run_injection_suite(
        layer, samples, max_steps, module=module, layout=layout,
        program=program, emit=results.__setitem__, dispatch=dispatch,
        fault_model=fm, stats=stats, ledger_config=config)
    violations = []
    early = 0
    for (idx, b), res in sorted(results.items()):
        if "reconverged" not in res.extra:
            continue
        early += 1
        bit = (idx * 13 + 7 + b) % width
        ref = sim("naive", max_steps=max_steps).run(inject_index=idx,
                                                     inject_bit=bit)
        if _record_sig(ref) != _record_sig(res):
            violations.append((idx, bit, ref.status.value,
                               res.extra["reconverged"]))
    return {
        "layer": layer,
        "fault_model": fm,
        "dispatch": dispatch,
        "draws": len(samples),
        "reconverged": early,
        "saved_steps": stats.get("reconverge_saved_steps", 0),
        "violations": violations,
    }
