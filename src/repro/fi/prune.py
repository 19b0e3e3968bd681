"""Benign-draw pruning and stratified sampling (ROADMAP item 3).

Two budget levers on top of the uniform campaign loop, both driven by
the bit-level liveness analysis (:mod:`repro.analysis.bitlive`):

* **Pruning** (``CampaignConfig.prune``) — the campaign draws exactly
  the samples it always drew, but any (dynamic index, bit) pair whose
  static site the analysis proves benign at that coordinate is resolved
  as :attr:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` without running
  the simulator.  Because the draw is unchanged and a pruned draw's
  true outcome *is* benign, every estimate is bit-identical to the
  unpruned campaign (the BEC observation) — only simulated steps drop.

* **Stratified sampling** (``CampaignConfig.stratify``) — the uniform
  draw is replaced by per-stratum draws over the analysis' site
  classes (``live`` / ``protected`` / ``unknown``), a pilot round
  estimates each stratum's SDC variance, and the remaining budget
  follows Neyman allocation (:func:`repro.fi.stats.neyman_allocation`).
  The composed estimate ``p = sum(W_h p_h)`` is unbiased for *any*
  partition, so the class labels carry no soundness burden; a
  duplication-protected program concentrates its SDC variance in the
  small unprotected stratum, which is where the budget goes (the DETOx
  framing).  Intervals come from
  :func:`repro.fi.stats.composed_interval`, the same machinery the
  incremental section composition uses.

The exhaustive oracle (:func:`verify_benign`) flips *every* pair the
analysis calls benign and asserts bit-identical output — the contract
``tests/test_bitlive_oracle.py`` enforces across both layers, all
dispatch tiers and both bit fault models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.bitlive import BitliveConfig, BitliveReport, analyze_asm, analyze_ir
from ..errors import CampaignError
from ..execresult import RunStatus
from ..faultmodel import fault_bit_range, validate_fault_model
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..machine.machine import AsmMachine
from .campaign import (
    CampaignConfig,
    CampaignResult,
    InjectionRecord,
    _phase,
    _record_engine,
    _record_outcomes,
)
from .engine import engine_dispatch, engine_enabled, run_injection_suite
from .outcomes import Outcome, canonical_trap_kind, classify_outcome
from .sections import _AsmSiteTap, _IRSiteTap, _ir_site_predicate
from .stats import composed_interval, neyman_allocation, wilson_interval

__all__ = [
    "PrunePlan",
    "StratumSummary",
    "StratifiedResult",
    "build_prune_plan",
    "verify_benign",
    "run_stratified_campaign",
    "STRATA",
    "DEFAULT_PILOT",
]

#: stratum order (stable across runs; summaries and draws follow it).
#: ``live`` = live-unprotected, ``protected`` = live-protected
#: (checker/shadow provenance), ``unknown`` = no bit model (XMM/float/
#: pointer payloads).
STRATA = ("live", "protected", "unknown")

#: pilot injections per stratum before Neyman allocation
DEFAULT_PILOT = 30


# ---------------------------------------------------------------------------
# the plan: static analysis joined with one traced golden run
# ---------------------------------------------------------------------------

@dataclass
class PrunePlan:
    """Bit-liveness facts indexed by *dynamic* injectable site.

    ``seq[k]`` is the static id (IR iid / asm pc) the ``k``-th dynamic
    injectable site executes, taken from a traced golden run and
    validated against the simulator's own injectable counter — the same
    discipline as :func:`repro.fi.sections.map_sites`.
    """

    layer: str
    fault_model: str
    #: dynamic injectable index -> static id
    seq: List[int]
    report: BitliveReport
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int

    def static_id(self, dyn_index: int) -> int:
        return self.seq[dyn_index]

    def is_benign(self, dyn_index: int, bit: int) -> bool:
        """Is drawing ``(dyn_index, bit)`` provably benign?"""
        if not 0 <= dyn_index < len(self.seq):
            return False
        return self.report.benign_pair(self.seq[dyn_index], bit)

    def stratum(self, dyn_index: int) -> str:
        return self.report.site_class.get(self.seq[dyn_index], "unknown")

    def strata_indices(self) -> Dict[str, List[int]]:
        """Non-empty strata -> ascending dynamic injectable indices."""
        out: Dict[str, List[int]] = {name: [] for name in STRATA}
        for dyn, sid in enumerate(self.seq):
            out[self.report.site_class.get(sid, "unknown")].append(dyn)
        return {name: idxs for name, idxs in out.items() if idxs}

    def benign_pairs(self) -> List[Tuple[int, int]]:
        """Every provably-benign (dynamic index, bit) pair — the
        exhaustive oracle's work list."""
        pairs: List[Tuple[int, int]] = []
        for dyn, sid in enumerate(self.seq):
            m = self.report.benign.get(sid, 0)
            if not m:
                continue
            for bit in range(64):
                if (m >> bit) & 1:
                    pairs.append((dyn, bit))
        return pairs

    def stats(self) -> Dict[str, object]:
        strata = self.strata_indices()
        total = len(self.seq)
        benign = sum(
            bin(self.report.benign.get(sid, 0)).count("1")
            for sid in self.seq)
        return {
            "layer": self.layer,
            "fault_model": self.fault_model,
            "dyn_sites": total,
            "benign_pairs": benign,
            "benign_fraction": benign / (64 * total) if total else 0.0,
            "strata": {name: len(idxs) for name, idxs in strata.items()},
        }


def build_prune_plan(
    layer: str,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    fault_model: Optional[str] = None,
    config: BitliveConfig = BitliveConfig(),
) -> PrunePlan:
    """Analyze + trace one golden run into a :class:`PrunePlan`.

    Mirrors :func:`repro.fi.sections.map_sites`' validation: the traced
    site sequence must match the golden run's ``dyn_injectable`` count
    exactly, so predicate/simulator drift is a loud
    :class:`CampaignError`, never a silently unsound prune.
    """
    fm = validate_fault_model(fault_model)
    if layer == "ir":
        if module is None:
            raise CampaignError("IR prune plan needs module=")
        layout = layout or GlobalLayout(module)
        report = analyze_ir(module, fm, config)
        tap = _IRSiteTap(_ir_site_predicate(fm))
        golden = IRInterpreter(
            module, layout=layout, trace=tap, fault_model=fm).run()
    elif layer == "asm":
        if program is None or layout is None:
            raise CampaignError("asm prune plan needs program= and layout=")
        report = analyze_asm(program, fm, config)
        kinds = program.cf_kind if fm == "cf" else program.inj_kind
        tap = _AsmSiteTap(kinds)
        golden = AsmMachine(
            program, layout, trace=tap, fault_model=fm).run()
    else:
        raise CampaignError(f"unknown layer {layer!r}")
    if golden.status is not RunStatus.OK:
        raise CampaignError(
            f"golden {layer} run failed: "
            f"{golden.status.value}/{golden.trap_kind}")
    if len(tap.seq) != golden.dyn_injectable:
        raise CampaignError(
            f"site enumeration drift at layer {layer!r} model {fm!r}: "
            f"tap saw {len(tap.seq)} sites, simulator counted "
            f"{golden.dyn_injectable}")
    return PrunePlan(
        layer=layer,
        fault_model=fm,
        seq=tap.seq,
        report=report,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
    )


# ---------------------------------------------------------------------------
# the exhaustive oracle
# ---------------------------------------------------------------------------

def verify_benign(
    layer: str,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    fault_model: Optional[str] = None,
    config: BitliveConfig = BitliveConfig(),
    dispatch: Optional[str] = None,
) -> Dict[str, object]:
    """Flip every benign-classified (site, bit) pair; report violations.

    A violation is any pair whose injected run is not status-OK with
    output bit-identical to golden — the pruner's soundness contract.
    Returns ``{"pairs": N, "violations": [(dyn, bit, status, trap), …],
    "plan": …stats…}``; an empty ``violations`` list is the oracle
    passing.
    """
    plan = build_prune_plan(layer, module=module, layout=layout,
                            program=program, fault_model=fault_model,
                            config=config)
    if layer == "ir":
        layout = layout or GlobalLayout(module)
    pairs = plan.benign_pairs()
    violations: List[Tuple[int, int, str, Optional[str]]] = []

    def emit(tag, res):
        if res.status is not RunStatus.OK or \
                res.output != plan.golden_output:
            dyn, bit = tag
            violations.append(
                (dyn, bit, res.status.value,
                 canonical_trap_kind(res.trap_kind)))

    if pairs:
        run_injection_suite(
            layer,
            [((dyn, bit), dyn, bit) for dyn, bit in pairs],
            max(20_000, plan.golden_dyn_total * 4),
            module=module,
            layout=layout,
            program=program,
            emit=emit,
            dispatch=dispatch,
            fault_model=plan.fault_model,
        )
    return {
        "layer": layer,
        "fault_model": plan.fault_model,
        "pairs": len(pairs),
        "violations": violations,
        "plan": plan.stats(),
    }


# ---------------------------------------------------------------------------
# stratified campaigns
# ---------------------------------------------------------------------------

@dataclass
class StratumSummary:
    """One stratum's slice of a stratified campaign."""

    name: str
    #: dynamic-site fraction of the whole draw universe
    weight: float
    #: dynamic injectable sites in the stratum
    sites: int
    n: int
    counts: Dict[Outcome, int]

    def rate(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.n if self.n else 0.0

    def to_doc(self) -> Dict[str, object]:
        benign_k = (self.counts.get(Outcome.BENIGN, 0)
                    + self.counts.get(Outcome.PRUNE_BENIGN, 0))
        return {
            "name": self.name,
            "weight": self.weight,
            "sites": self.sites,
            "n": self.n,
            "sdc": self.rate(Outcome.SDC),
            "sdc_ci": wilson_interval(
                self.counts.get(Outcome.SDC, 0), self.n),
            "due": self.rate(Outcome.DUE),
            "detected": self.rate(Outcome.DETECTED),
            "benign": benign_k / self.n if self.n else 0.0,
            "pruned": self.counts.get(Outcome.PRUNE_BENIGN, 0),
        }


@dataclass
class StratifiedResult(CampaignResult):
    """Campaign result whose estimates compose over strata.

    The base-class ``counts``/``records`` pool every stratum (useful
    for forensics), but the headline probabilities re-weight each
    stratum by its share of the draw universe — the unbiased estimator
    for a stratified design — and ``summary()`` reports
    :func:`repro.fi.stats.composed_interval` CIs.
    """

    strata: List[StratumSummary] = field(default_factory=list)

    def _composed(self, *outcomes: Outcome) -> Tuple[float, float, float]:
        weights = [s.weight for s in self.strata]
        ks = [sum(s.counts.get(o, 0) for o in outcomes)
              for s in self.strata]
        ns = [s.n for s in self.strata]
        return composed_interval(weights, ks, ns)

    @property
    def sdc_probability(self) -> float:
        return self._composed(Outcome.SDC)[0]

    @property
    def due_probability(self) -> float:
        return self._composed(Outcome.DUE)[0]

    @property
    def detected_probability(self) -> float:
        return self._composed(Outcome.DETECTED)[0]

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {"pruned": self.pruned}
        for name, outcomes in (
            ("sdc", (Outcome.SDC,)),
            ("due", (Outcome.DUE,)),
            ("detected", (Outcome.DETECTED,)),
            ("benign", (Outcome.BENIGN, Outcome.PRUNE_BENIGN)),
        ):
            p, lo, hi = self._composed(*outcomes)
            out[name] = p
            out[f"{name}_ci"] = (lo, hi)
        out["strata"] = [s.to_doc() for s in self.strata]
        return out


def run_stratified_campaign(
    layer: str,
    config: CampaignConfig,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
    pilot: int = DEFAULT_PILOT,
    ledger_config=None,
) -> StratifiedResult:
    """Stratified campaign over the bit-liveness site classes.

    The total budget is ``config.n_campaigns``: a pilot of up to
    ``pilot`` draws per non-empty stratum, then Neyman allocation of
    the remainder on the pilot's SDC standard deviations.  Every
    stratum's draw comes from its own seeded RNG substream, so the
    campaign is deterministic and a stratum's samples never depend on
    the other strata's sizes.  With ``config.prune`` benign draws
    inside each stratum resolve statically, exactly as in the uniform
    path.  ``ledger_config`` sizes the engine's golden state ledger
    (:func:`repro.fi.engine.run_injection_suite`).
    """
    fm = validate_fault_model(fault_model)
    if fm == "cf":
        raise CampaignError(
            "stratified sampling needs a bit-level fault model "
            "(seu/set); control-flow faults have no bit lattice")
    use_engine = engine_enabled(engine)
    tier = engine_dispatch(dispatch) if use_engine else "naive"
    if layer == "ir":
        if module is None:
            raise CampaignError("IR stratified campaign needs module=")
        layout = layout or GlobalLayout(module)
        with _phase(observer, "golden", layer=layer):
            golden = IRInterpreter(module, layout=layout, dispatch=tier,
                                   fault_model=fm).run()
    elif layer == "asm":
        if program is None or layout is None:
            raise CampaignError(
                "asm stratified campaign needs program= and layout=")
        with _phase(observer, "golden", layer=layer):
            golden = AsmMachine(program, layout, dispatch=tier,
                                fault_model=fm).run()
    else:
        raise CampaignError(f"unknown layer {layer!r}")
    if golden.status is not RunStatus.OK:
        raise CampaignError(
            f"golden {layer} run failed: "
            f"{golden.status.value}/{golden.trap_kind}")
    max_steps = max(
        config.min_max_steps, golden.dyn_total * config.max_steps_factor)

    with _phase(observer, "prune", layer=layer):
        plan = build_prune_plan(layer, module=module, layout=layout,
                                program=program, fault_model=fm)
    strata = plan.strata_indices()
    if not strata:
        raise CampaignError("program has no injectable dynamic sites")
    names = [n for n in STRATA if n in strata]
    total_sites = len(plan.seq)
    weights = [len(strata[n]) / total_sites for n in names]
    bit_range = fault_bit_range(fm)
    rngs = {n: np.random.default_rng([config.seed, STRATA.index(n)])
            for n in names}

    counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
    per_stratum: Dict[str, Dict[Outcome, int]] = {
        n: {o: 0 for o in Outcome} for n in names}
    records: List[InjectionRecord] = []
    engine_steps: Dict[str, int] = {}
    naive = {"steps": 0}

    def draw(name: str, k: int) -> List[Tuple[int, int]]:
        if k <= 0:
            return []
        rng = rngs[name]
        pool = strata[name]
        pos = rng.integers(0, len(pool), size=k)
        bits = rng.integers(0, bit_range, size=k)
        return [(pool[p], b) for p, b in zip(pos.tolist(), bits.tolist())]

    def execute(tagged: List[Tuple[Tuple[str, int], int, int]]) -> None:
        """Run (or prune) one batch of ((stratum, i), idx, bit) samples."""
        live = []
        for tag, idx, bit in tagged:
            if config.prune and plan.is_benign(idx, bit):
                name = tag[0]
                counts[Outcome.PRUNE_BENIGN] += 1
                per_stratum[name][Outcome.PRUNE_BENIGN] += 1
                if layer == "asm":
                    inst = program.inst_at(plan.static_id(idx))
                    records.append(InjectionRecord(
                        dyn_index=idx, bit=bit,
                        outcome=Outcome.PRUNE_BENIGN, iid=inst.prov_iid,
                        asm_index=plan.static_id(idx), asm_role=inst.role,
                        asm_opcode=inst.opcode, fault_model=fm))
                else:
                    records.append(InjectionRecord(
                        dyn_index=idx, bit=bit,
                        outcome=Outcome.PRUNE_BENIGN,
                        iid=plan.static_id(idx), fault_model=fm))
            else:
                live.append((tag, idx, bit))

        def emit(tag, res):
            outcome = classify_outcome(res, golden.output)
            counts[outcome] += 1
            per_stratum[tag[0]][outcome] += 1
            rec = InjectionRecord(
                dyn_index=tag[2], bit=tag[3], outcome=outcome,
                iid=res.injected_iid,
                trap_kind=canonical_trap_kind(res.trap_kind),
                fault_model=fm)
            if layer == "asm":
                rec.asm_index = res.extra.get("asm_index")
                rec.asm_role = res.extra.get("asm_role")
                rec.asm_opcode = res.extra.get("asm_opcode")
            records.append(rec)

        tagged_live = [((tag[0], tag[1], idx, bit), idx, bit)
                       for tag, idx, bit in live]
        if not tagged_live:
            return
        if use_engine:
            run_injection_suite(
                layer, tagged_live, max_steps, module=module,
                layout=layout, program=program, emit=emit, dispatch=tier,
                fault_model=fm, stats=engine_steps,
                ledger_config=ledger_config)
        else:
            for tag, idx, bit in tagged_live:
                if layer == "ir":
                    res = IRInterpreter(
                        module, layout=layout, max_steps=max_steps,
                        dispatch="naive", fault_model=fm,
                    ).run(inject_index=idx, inject_bit=bit)
                else:
                    res = AsmMachine(
                        program, layout, max_steps=max_steps,
                        dispatch="naive", fault_model=fm,
                    ).run(inject_index=idx, inject_bit=bit)
                naive["steps"] += res.dyn_total
                emit(tag, res)

    budget = config.n_campaigns
    pilot_n = {n: min(pilot, max(1, budget // (2 * len(names))))
               for n in names}
    with _phase(observer, "pilot", layer=layer,
                n=sum(pilot_n.values())):
        execute([((name, i), idx, bit)
                 for name in names
                 for i, (idx, bit) in enumerate(draw(name, pilot_n[name]))])

    # Neyman allocation of the remaining budget on pilot SDC spread
    sds = []
    for name in names:
        c = per_stratum[name]
        n_h = sum(c.values())
        p_h = c.get(Outcome.SDC, 0) / n_h if n_h else 0.0
        sds.append((p_h * (1 - p_h)) ** 0.5)
    remaining = max(0, budget - sum(pilot_n.values()))
    extra = neyman_allocation(weights, sds, remaining)
    with _phase(observer, "inject", layer=layer, n=sum(extra)):
        execute([((name, pilot_n[name] + i), idx, bit)
                 for name, k in zip(names, extra)
                 for i, (idx, bit) in enumerate(draw(name, k))])

    strata_out = [
        StratumSummary(
            name=name,
            weight=w,
            sites=len(strata[name]),
            n=sum(per_stratum[name].values()),
            counts=per_stratum[name],
        )
        for name, w in zip(names, weights)
    ]
    _record_engine(observer, layer, engine_steps)
    _record_outcomes(observer, layer, counts)
    return StratifiedResult(
        layer=layer,
        n=sum(s.n for s in strata_out),
        counts=counts,
        records=records,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        simulated_steps=(
            golden.dyn_total
            + engine_steps.get("golden_steps", 0)
            + engine_steps.get("suffix_steps", 0)
            + naive["steps"]),
        strata=strata_out,
    )
