"""Fault-injection campaign orchestration (§4.3).

A campaign against one binary/level/layer:

1. golden run (also counts dynamic + injectable instructions);
2. draw ``n`` (dynamic-instruction index, bit) pairs uniformly with
   replacement — the paper's standard methodology;
3. re-execute with the single flip, classify the outcome;
4. aggregate counts and keep per-injection records for root-cause
   analysis.

Both layers share this module: :func:`run_ir_campaign` drives the IR
interpreter (LLFI-style), :func:`run_asm_campaign` the machine
(PINFI-style).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CampaignError
from ..execresult import RunStatus
from ..faultmodel import fault_bit_range, validate_fault_model
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..machine.machine import AsmMachine, CompiledProgram
from .engine import engine_dispatch, engine_enabled, run_injection_suite
from .outcomes import Outcome, canonical_trap_kind, classify_outcome
from .stats import wilson_interval

__all__ = [
    "CampaignConfig",
    "InjectionRecord",
    "CampaignResult",
    "run_ir_campaign",
    "run_asm_campaign",
]

DEFAULT_CAMPAIGNS = 300


def _phase(observer, name: str, **fields):
    """Observer phase context, or a no-op when no observer is attached."""
    if observer is None:
        return nullcontext()
    return observer.phase(name, **fields)


def _record_engine(observer, layer: str, stats: Dict[str, int]) -> None:
    """Report the engine's step accounting (replays, reconverged
    replays and the suffix steps they skipped) to the observer."""
    if observer is not None and stats:
        observer.engine(stats, layer=layer)


def _record_outcomes(observer, layer: str,
                     counts: Dict[Outcome, int]) -> None:
    if observer is not None:
        observer.outcomes(
            {o.value: c for o, c in counts.items() if c}, layer=layer
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Shared knobs for a fault-injection campaign.

    Validated at construction: a nonsensical configuration raises
    :class:`CampaignError` immediately rather than failing deep inside
    ``np.random`` or silently producing an empty campaign.
    """

    n_campaigns: int = DEFAULT_CAMPAIGNS
    seed: int = 0
    #: timeout = factor x golden dynamic count (hangs become DUEs)
    max_steps_factor: int = 4
    min_max_steps: int = 20_000
    #: statically classify provably-benign draws (bit-liveness pruning,
    #: :mod:`repro.analysis.bitlive`) without simulating them; the draw
    #: itself is unchanged, so every estimate is bit-identical to the
    #: unpruned campaign — only the simulation work shrinks
    prune: bool = False
    #: replace the uniform draw with stratified sampling over the
    #: bit-liveness site classes (pilot + Neyman allocation, composed
    #: interval; see :mod:`repro.fi.prune`)
    stratify: bool = False

    def __post_init__(self) -> None:
        if self.n_campaigns <= 0:
            raise CampaignError(
                f"n_campaigns must be positive, got {self.n_campaigns}")
        if self.seed < 0:
            raise CampaignError(
                f"seed must be non-negative, got {self.seed}")
        if self.max_steps_factor < 1:
            raise CampaignError(
                f"max_steps_factor must be >= 1, got "
                f"{self.max_steps_factor}")
        if self.min_max_steps <= 0:
            raise CampaignError(
                f"min_max_steps must be positive, got "
                f"{self.min_max_steps}")


@dataclass
class InjectionRecord:
    """One injection and its outcome."""

    dyn_index: int
    bit: int
    outcome: Outcome
    #: static IR iid the fault maps to (None for unmapped asm code)
    iid: Optional[int]
    #: asm-only fields
    asm_index: Optional[int] = None
    asm_role: Optional[str] = None
    asm_opcode: Optional[str] = None
    trap_kind: Optional[str] = None
    #: fault model this injection ran under (legacy records mean "seu")
    fault_model: str = "seu"


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    layer: str                      # 'ir' | 'asm'
    n: int
    counts: Dict[Outcome, int]
    records: List[InjectionRecord]
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int
    #: dynamic steps actually simulated (initial golden run + engine
    #: checkpoint pass + replayed suffixes, or naive full re-executions);
    #: None when the campaign predates the accounting (journal replays)
    simulated_steps: Optional[int] = None

    @property
    def sdc_probability(self) -> float:
        return self.counts.get(Outcome.SDC, 0) / self.n if self.n else 0.0

    @property
    def detected_probability(self) -> float:
        return self.counts.get(Outcome.DETECTED, 0) / self.n if self.n else 0.0

    @property
    def due_probability(self) -> float:
        return self.counts.get(Outcome.DUE, 0) / self.n if self.n else 0.0

    @property
    def pruned(self) -> int:
        """Draws resolved statically by the bit-liveness pruner."""
        return self.counts.get(Outcome.PRUNE_BENIGN, 0)

    def sdc_records(self) -> List[InjectionRecord]:
        return [r for r in self.records if r.outcome is Outcome.SDC]

    def summary(self) -> Dict[str, object]:
        """Outcome rates plus Wilson 95% confidence intervals.

        The ``*_ci`` entries use the same :mod:`repro.fi.stats` helper
        as the composed incremental estimates, so whole-program and
        section-composed summaries are directly comparable.  The benign
        rate folds in statically-pruned draws (they are benign with
        certainty), keeping pruned estimates bit-identical to their
        uniform equivalents; ``pruned`` separately reports how many
        draws never simulated.
        """
        benign_k = (self.counts.get(Outcome.BENIGN, 0)
                    + self.counts.get(Outcome.PRUNE_BENIGN, 0))
        out: Dict[str, object] = {
            "sdc": self.sdc_probability,
            "due": self.due_probability,
            "detected": self.detected_probability,
            "benign": benign_k / self.n if self.n else 0.0,
            "pruned": self.pruned,
        }
        for name, k in (("sdc", self.counts.get(Outcome.SDC, 0)),
                        ("due", self.counts.get(Outcome.DUE, 0)),
                        ("detected", self.counts.get(Outcome.DETECTED, 0)),
                        ("benign", benign_k)):
            out[f"{name}_ci"] = wilson_interval(k, self.n)
        return out


def _draw(
    rng: np.random.Generator, n: int, injectable: int,
    fault_model: str = "seu",
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` (dynamic-index, fault-coordinate) pairs.

    The second coordinate is a bit position in [0, 64) for SEU/SET and
    a redirect coordinate in [0, CF_BIT_RANGE) for control-flow faults
    (reduced modulo the landing-site count at injection time).
    """
    if injectable <= 0:
        raise CampaignError(
            "program has no injectable dynamic instructions under "
            f"fault model {fault_model!r}")
    return (
        rng.integers(0, injectable, size=n),
        rng.integers(0, fault_bit_range(fault_model), size=n),
    )


def run_ir_campaign(
    module: Module,
    config: CampaignConfig = CampaignConfig(),
    layout: Optional[GlobalLayout] = None,
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
    ledger_config=None,
) -> CampaignResult:
    """LLFI-style campaign at the IR layer.

    ``engine`` selects the checkpoint-replay engine (see
    :mod:`repro.fi.engine`): ``None`` defers to ``REPRO_ENGINE``
    (default on).  Results are bit-identical either way; the engine only
    changes how much golden prefix is re-executed per injection.
    ``dispatch`` selects the engine-path tier (``None`` defers to
    ``REPRO_DISPATCH``, default decoded); ignored without the engine.
    ``fault_model`` selects what each injection corrupts (default SEU;
    see :mod:`repro.faultmodel`) — the golden run counts that model's
    injectable sites, so the draw universe follows the model.
    ``ledger_config`` sizes the engine's golden state ledger
    (:class:`repro.fi.ledger.LedgerConfig`; ``ledger.OFF`` is the
    engine without reconvergence early exit, for benchmarks).

    ``config.prune`` resolves provably-benign draws statically
    (:mod:`repro.analysis.bitlive`) without simulating them — same
    draw, same estimates, fewer simulated steps.  ``config.stratify``
    replaces the uniform draw entirely and delegates to
    :func:`repro.fi.prune.run_stratified_campaign`.
    """
    fm = validate_fault_model(fault_model)
    if config.stratify:
        from .prune import run_stratified_campaign

        return run_stratified_campaign(
            "ir", config, module=module, layout=layout, observer=observer,
            engine=engine, dispatch=dispatch, fault_model=fm,
            ledger_config=ledger_config)
    use_engine = engine_enabled(engine)
    tier = engine_dispatch(dispatch) if use_engine else "naive"
    layout = layout or GlobalLayout(module)
    with _phase(observer, "golden", layer="ir"):
        golden = IRInterpreter(module, layout=layout,
                               dispatch=tier, fault_model=fm).run()
    if golden.status is not RunStatus.OK:
        raise CampaignError(
            f"golden IR run failed: {golden.status.value}/{golden.trap_kind}"
        )
    max_steps = max(
        config.min_max_steps, golden.dyn_total * config.max_steps_factor
    )
    rng = np.random.default_rng(config.seed)
    indices, bits = _draw(rng, config.n_campaigns, golden.dyn_injectable, fm)
    pairs = list(zip(indices.tolist(), bits.tolist()))

    plan = None
    if config.prune:
        from .prune import build_prune_plan

        with _phase(observer, "prune", layer="ir"):
            plan = build_prune_plan("ir", module=module, layout=layout,
                                    fault_model=fm)

    counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
    by_tag: Dict[int, InjectionRecord] = {}

    def emit(tag, res):
        outcome = classify_outcome(res, golden.output)
        counts[outcome] += 1
        idx, bit = pairs[tag]
        by_tag[tag] = InjectionRecord(
            dyn_index=idx,
            bit=bit,
            outcome=outcome,
            iid=res.injected_iid,
            trap_kind=canonical_trap_kind(res.trap_kind),
            fault_model=fm,
        )

    live: List[Tuple[int, int, int]] = []
    for i, (idx, bit) in enumerate(pairs):
        if plan is not None and plan.is_benign(idx, bit):
            counts[Outcome.PRUNE_BENIGN] += 1
            by_tag[i] = InjectionRecord(
                dyn_index=idx, bit=bit, outcome=Outcome.PRUNE_BENIGN,
                iid=plan.static_id(idx), fault_model=fm)
        else:
            live.append((i, idx, bit))

    engine_steps: Dict[str, int] = {}
    naive_steps = 0
    with _phase(observer, "inject", layer="ir", n=config.n_campaigns):
        if use_engine:
            run_injection_suite(
                "ir",
                live,
                max_steps,
                module=module,
                layout=layout,
                emit=emit,
                dispatch=tier,
                fault_model=fm,
                stats=engine_steps,
                ledger_config=ledger_config,
            )
        else:
            for i, idx, bit in live:
                res = IRInterpreter(
                    module, layout=layout, max_steps=max_steps,
                    dispatch="naive", fault_model=fm,
                ).run(inject_index=idx, inject_bit=bit)
                naive_steps += res.dyn_total
                emit(i, res)
    records = [by_tag[i] for i in range(len(pairs))]
    _record_engine(observer, "ir", engine_steps)
    _record_outcomes(observer, "ir", counts)
    return CampaignResult(
        layer="ir",
        n=config.n_campaigns,
        counts=counts,
        records=records,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        simulated_steps=(
            golden.dyn_total
            + engine_steps.get("golden_steps", 0)
            + engine_steps.get("suffix_steps", 0)
            + naive_steps),
    )


def run_asm_campaign(
    program: CompiledProgram,
    layout: GlobalLayout,
    config: CampaignConfig = CampaignConfig(),
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
    ledger_config=None,
) -> CampaignResult:
    """PINFI-style campaign at the assembly layer.

    ``engine``, ``dispatch``, ``fault_model`` and ``ledger_config``
    select the checkpoint-replay engine, its tier, the injected fault
    and the ledger size exactly as in :func:`run_ir_campaign`; ``config.prune`` and
    ``config.stratify`` behave exactly as there too.
    """
    fm = validate_fault_model(fault_model)
    if config.stratify:
        from .prune import run_stratified_campaign

        return run_stratified_campaign(
            "asm", config, program=program, layout=layout,
            observer=observer, engine=engine, dispatch=dispatch,
            fault_model=fm, ledger_config=ledger_config)
    use_engine = engine_enabled(engine)
    tier = engine_dispatch(dispatch) if use_engine else "naive"
    with _phase(observer, "golden", layer="asm"):
        golden = AsmMachine(program, layout, dispatch=tier,
                            fault_model=fm).run()
    if golden.status is not RunStatus.OK:
        raise CampaignError(
            f"golden asm run failed: {golden.status.value}/{golden.trap_kind}"
        )
    max_steps = max(
        config.min_max_steps, golden.dyn_total * config.max_steps_factor
    )
    rng = np.random.default_rng(config.seed)
    indices, bits = _draw(rng, config.n_campaigns, golden.dyn_injectable, fm)
    pairs = list(zip(indices.tolist(), bits.tolist()))

    plan = None
    if config.prune:
        from .prune import build_prune_plan

        with _phase(observer, "prune", layer="asm"):
            plan = build_prune_plan("asm", program=program, layout=layout,
                                    fault_model=fm)

    counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
    by_tag: Dict[int, InjectionRecord] = {}

    def emit(tag, res):
        outcome = classify_outcome(res, golden.output)
        counts[outcome] += 1
        idx, bit = pairs[tag]
        by_tag[tag] = InjectionRecord(
            dyn_index=idx,
            bit=bit,
            outcome=outcome,
            iid=res.injected_iid,
            asm_index=res.extra.get("asm_index"),
            asm_role=res.extra.get("asm_role"),
            asm_opcode=res.extra.get("asm_opcode"),
            trap_kind=canonical_trap_kind(res.trap_kind),
            fault_model=fm,
        )

    live: List[Tuple[int, int, int]] = []
    for i, (idx, bit) in enumerate(pairs):
        if plan is not None and plan.is_benign(idx, bit):
            counts[Outcome.PRUNE_BENIGN] += 1
            pc = plan.static_id(idx)
            inst = program.inst_at(pc)
            by_tag[i] = InjectionRecord(
                dyn_index=idx, bit=bit, outcome=Outcome.PRUNE_BENIGN,
                iid=inst.prov_iid, asm_index=pc, asm_role=inst.role,
                asm_opcode=inst.opcode, fault_model=fm)
        else:
            live.append((i, idx, bit))

    engine_steps: Dict[str, int] = {}
    naive_steps = 0
    with _phase(observer, "inject", layer="asm", n=config.n_campaigns):
        if use_engine:
            run_injection_suite(
                "asm",
                live,
                max_steps,
                program=program,
                layout=layout,
                emit=emit,
                dispatch=tier,
                fault_model=fm,
                stats=engine_steps,
                ledger_config=ledger_config,
            )
        else:
            for i, idx, bit in live:
                res = AsmMachine(
                    program, layout, max_steps=max_steps, dispatch="naive",
                    fault_model=fm,
                ).run(inject_index=idx, inject_bit=bit)
                naive_steps += res.dyn_total
                emit(i, res)
    records = [by_tag[i] for i in range(len(pairs))]
    _record_engine(observer, "asm", engine_steps)
    _record_outcomes(observer, "asm", counts)
    return CampaignResult(
        layer="asm",
        n=config.n_campaigns,
        counts=counts,
        records=records,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        simulated_steps=(
            golden.dyn_total
            + engine_steps.get("golden_steps", 0)
            + engine_steps.get("suffix_steps", 0)
            + naive_steps),
    )
