"""Checkpoint-replay execution engine for fault-injection campaigns.

The naive campaign loop re-executes the *entire* golden prefix for
every injection: O(n_campaigns × trace_len) dynamic steps.  Because the
fault model perturbs nothing before the targeted dynamic instruction,
every injection at dynamic index ``k`` shares the first ``k`` golden
steps exactly.  This engine amortizes them (the FastFlip idea applied
to replay structure):

1. sort the distinct drawn injection indices ascending;
2. execute the golden trace **once** with ``checkpoints=`` set, letting
   the decoded simulator stream out an immutable snapshot of machine
   state at each index (taken just before the targeted instruction
   executes — the flip lands after it writes its destination);
3. for each injection at that index, resume a fresh simulator from the
   snapshot and run only the post-injection *suffix*.

Total cost drops to O(trace_len + Σ suffix lengths).  Determinism: both
simulators are sequential and single-threaded, a snapshot captures the
complete machine state (memory image, registers/frames, flags, program
counter, step/injection counters, output buffer), and the replayed
suffix executes the same closures over the same state — so every replay
is bit-identical to the corresponding full run, and campaign results
are bit-identical to the naive path (asserted by
``tests/test_engine_equivalence.py``).

Reconvergence early exit (DESIGN §18): the golden pass also records a
:class:`~repro.fi.ledger.GoldenLedger` — full snapshots on a sparse
grid of injectable indices, memory held as shared page versions — and
the snapshots at the drawn targets share those pages.  They are held
until the pass ends at the last target; then every replay runs against
the ledger and stops at the first grid point where its complete state
equals golden's.  The grid past the last target, and the golden output
a reconverged replay reports, come from a tail pass that resumes from
the last target's snapshot; it runs at most once, and only when a
replay reconverges or outlives the recorded prefix.  Ledger and held
targets together stay under a fixed byte budget: the grid thins past
it, and targets that no longer fit are streamed by a second golden
pass that replays inside its checkpoint callback, one snapshot at a
time.  ``ledger_config=ledger.OFF`` records no grid: no replay ends
early (the reference the benchmarks and oracles compare against).

``REPRO_ENGINE=0`` disables the engine globally (campaigns fall back to
the naive re-execution path with naive dispatch — the exact pre-engine
code path), which is also the baseline the benchmark harness measures
against.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..contain import host_escape_result
from ..errors import CampaignError
from ..execresult import ExecResult, RunStatus
from ..faultmodel import validate_fault_model
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..machine.machine import AsmMachine, CompiledProgram
from .ledger import GoldenLedger, LedgerConfig

__all__ = ["engine_dispatch", "engine_enabled", "run_injection_suite"]


def engine_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the engine on/off switch.

    An explicit ``flag`` wins; otherwise the ``REPRO_ENGINE``
    environment variable decides (default on; ``"0"`` disables).
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_ENGINE", "1") != "0"


def engine_dispatch(dispatch: Optional[str] = None) -> str:
    """Resolve the dispatch tier used on the engine path.

    An explicit ``dispatch`` wins; otherwise ``REPRO_DISPATCH`` decides,
    defaulting to ``"decoded"`` (campaign results are bit-identical
    across tiers, so the default stays conservative and journal hashes
    stay stable).  Only the snapshot-capable tiers are legal here —
    ``"naive"`` cannot resume from checkpoints.  A typo (``"codgen"``)
    raises :class:`CampaignError` rather than silently falling back.
    """
    resolved = (dispatch if dispatch is not None
                else os.environ.get("REPRO_DISPATCH", "decoded"))
    if resolved not in ("decoded", "codegen"):
        raise CampaignError(
            f"engine dispatch must be 'decoded' or 'codegen', "
            f"got {resolved!r}")
    return resolved


def run_injection_suite(
    layer: str,
    samples: Iterable[Tuple[object, int, int]],
    max_steps: int,
    *,
    module: Optional[Module] = None,
    layout: Optional[GlobalLayout] = None,
    program: Optional[CompiledProgram] = None,
    emit: Callable[[object, ExecResult], None],
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
    ledger_config: Optional[LedgerConfig] = None,
) -> None:
    """Run every ``(tag, dyn_index, bit)`` injection with checkpoint-replay.

    ``emit(tag, result)`` is called once per sample, in ascending
    ``dyn_index`` order (callers that need the original sample order key
    their own structures by ``tag``).  Indices beyond the end of the
    golden trace — impossible when drawn below the injectable count, but
    guarded anyway — fall back to plain full executions.

    ``dispatch`` selects the replay tier (see :func:`engine_dispatch`);
    suffix replays run on it, while the golden checkpointing pass always
    streams snapshots from the decoded core (the codegen tier delegates
    internally when checkpoints are requested).  ``fault_model``
    (default SEU) selects what the injection corrupts — the simulators
    watch/checkpoint at that model's injectable sites.

    The golden pass records a golden state ledger
    (:mod:`repro.fi.ledger`, sized by ``ledger_config``) and each
    replay ends at its first exact match with it.  Such a replay
    reports status OK, the golden output, its own injection metadata,
    ``extra["reconverged"]`` (the grid index) and the step it stopped
    at as ``dyn_total``.

    ``stats``, when given, accumulates the engine's simulated-step
    accounting in place: ``golden_steps`` (the checkpointing passes,
    the tail pass included),
    ``suffix_steps`` (dynamic steps actually re-executed across every
    replay — a resumed run's ``dyn_total`` is full-run-equivalent, so
    the suffix is its total minus the snapshot's step counter),
    ``replays``, ``reconverged`` (replays ended early) and
    ``reconverge_saved_steps`` (the suffix steps those replays skipped).
    This is the denominator behind the pruning benchmark's "fewer
    simulated steps" claim (:mod:`repro.fi.prune`).
    """
    tier = engine_dispatch(dispatch)
    fm = validate_fault_model(fault_model)
    if layer == "ir":
        def fresh():
            return IRInterpreter(module, layout=layout, max_steps=max_steps,
                                 dispatch=tier, fault_model=fm)
    elif layer == "asm":
        def fresh():
            return AsmMachine(program, layout, max_steps=max_steps,
                              dispatch=tier, fault_model=fm)
    else:
        raise ValueError(f"unknown layer {layer!r}")

    by_idx: Dict[int, List[Tuple[object, int]]] = {}
    for tag, idx, bit in samples:
        by_idx.setdefault(idx, []).append((tag, bit))
    if not by_idx:
        return
    targets = sorted(by_idx)
    done = set()

    # One long-lived replay simulator: resuming from a snapshot resets
    # the complete machine state, so reusing the instance (rather than
    # constructing a fresh ~MB memory image per injection, only to
    # overwrite it immediately) is safe and saves the dominant
    # allocation cost on short traces.
    replay_sim = fresh()

    def count(key: str, n: int) -> None:
        if stats is not None:
            stats[key] = stats.get(key, 0) + n

    ledger: Optional[GoldenLedger] = None

    def snap_steps(snap) -> int:
        # IRSnapshot carries ``dyn_total``, AsmSnapshot ``steps`` — both
        # are the golden step count at the checkpoint
        steps = getattr(snap, "steps", None)
        return snap.dyn_total if steps is None else steps

    def replay(idx: int, snap) -> None:
        prefix = snap_steps(snap)
        for tag, bit in by_idx[idx]:
            try:
                res = replay_sim.run(
                    inject_index=idx, inject_bit=bit, resume_from=snap,
                    ledger=ledger,
                )
            except (MemoryError, RecursionError) as exc:
                # resource exhaustion outside the simulator's own
                # containment boundary (e.g. during snapshot restore):
                # classify this one injection as a trap instead of
                # letting the worker die and burn split-retry budget
                res = host_escape_result(exc, layer=layer)
            if ledger is not None and ledger.error is not None:
                # the tail pass failed inside this replay: a golden-run
                # fault, not an outcome of the injection
                raise ledger.error
            count("suffix_steps", max(0, res.dyn_total - prefix))
            count("replays", 1)
            if "reconverged" in res.extra:
                count("reconverged", 1)
                count("reconverge_saved_steps",
                      ledger.golden_total - res.dyn_total)
            emit(tag, res)
        done.add(idx)

    # lazy: repro.analysis imports the campaign layer
    from ..analysis.bitlive import IRLiveTemps

    ledger = GoldenLedger(targets, ledger_config or LedgerConfig(),
                          live=IRLiveTemps() if layer == "ir" else None)
    held: List[Tuple[int, object]] = []
    reached: List[int] = []

    def record(idx: int, snap) -> None:
        if idx in by_idx:
            reached.append(idx)
            if ledger.admit(idx, snap, True):
                held.append((idx, snap))
        else:
            ledger.admit(idx, snap, False)

    def tail(led: GoldenLedger) -> None:
        # the rest of the golden run, recording grid points past the
        # last target.  Takes the ledger as an argument: a closure over
        # it would make a reference cycle that keeps every page alive
        # until the next garbage collection.
        start, snap = led.last
        res = fresh().run(resume_from=snap,
                          checkpoints=led.watch_tail(start),
                          checkpoint_cb=led.admit_grid, pages=led.store)
        count("golden_steps", res.dyn_total - snap_steps(snap))
        if res.status is not RunStatus.OK:  # pragma: no cover
            raise CampaignError(
                f"golden {layer} tail pass failed: {res.status.value}")
        led.finish(res.output, res.return_value, res.dyn_total)

    # the golden pass ends at the last target, like a pass without a
    # ledger; replays run once it is over
    golden = fresh().run(checkpoints=ledger.watch(targets),
                         checkpoint_cb=record, pages=ledger.store)
    count("golden_steps", golden.dyn_total)
    if golden.status is not RunStatus.OK:  # pragma: no cover
        ledger = None   # callers hand over clean programs
    elif golden.extra.get("early_stop"):
        ledger.extend = tail
    else:
        ledger.finish(golden.output, golden.return_value, golden.dyn_total)
    kept = {i for i, _ in held}
    deferred = [t for t in reached if t not in kept]
    held.reverse()
    while held:
        replay(*held.pop())
    if deferred:
        # targets past the held-snapshot budget: stream them again,
        # one snapshot at a time, against the ledger
        again = fresh().run(checkpoints=deferred, checkpoint_cb=replay)
        count("golden_steps", again.dyn_total)
    for idx in targets:
        if idx not in done:  # pragma: no cover - defensive
            for tag, bit in by_idx[idx]:
                try:
                    res = fresh().run(inject_index=idx, inject_bit=bit)
                except (MemoryError, RecursionError) as exc:
                    res = host_escape_result(exc, layer=layer)
                count("suffix_steps", res.dyn_total)
                count("replays", 1)
                emit(tag, res)
