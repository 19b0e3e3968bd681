"""Soundness oracle for reconvergence early exit (DESIGN §18).

A replay that reaches a state equal to the golden state ledger's at a
grid point stops there and reports golden's outcome
(:mod:`repro.fi.ledger`).  That is only sound if the comparison is
exact.  This suite proves it the hard way:

* **exhaustive oracle** — on the bitlive witness programs plus the
  reconvergence witness, every injectable index is replayed against a
  ledger holding *every* index as a grid point, at both layers, under
  seu/set/cf, on the decoded and codegen tiers; every early-exited
  draw is re-run as a full naive execution and must agree on outcome,
  iid, asm index/role/opcode and trap kind;
* **signature invariance** — hypothesis property: for any generated
  program, campaign signatures with reconvergence are identical to the
  naive re-execution path's, at both layers and under every fault
  model;
* **ledger mechanics** — page-versioned images, grid thinning under
  the byte budget, the second streaming pass for targets past the
  budget, the lazy tail pass, and exact step accounting.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bitlive import IRLiveTemps
from repro.errors import IRError, ReproError
from repro.execresult import RunStatus
from repro.fi.bench import campaign_signature
from repro.fi.campaign import CampaignConfig, run_asm_campaign, run_ir_campaign
from repro.fi.engine import run_injection_suite
from repro.fi.ledger import (
    EXHAUSTIVE,
    GoldenLedger,
    OFF,
    LedgerConfig,
    verify_reconvergence,
)
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import IRInterpreter
from repro.ir.instructions import Instruction
from repro.machine.machine import AsmMachine
from repro.memorymodel import PAGE_SIZE, PagedImage, PageStore, load_image
from repro.testgen import generate_ir, generate_minic
from repro.testgen.mutants import (
    BITLIVE_WITNESS_SOURCE,
    RECONVERGE_WITNESS_SOURCE,
)
from repro.testgen.strategies import minic_programs

from .test_bitlive_oracle import SMALL, _build, _layer_kwargs

_WITNESSES = ("gen3", "gen3-dup", "irgen2", "carry", "reconverge")

_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def witness_builds():
    return {
        "gen3": _build(
            compile_source(generate_minic(3, SMALL).source, "g3"), False),
        "gen3-dup": _build(
            compile_source(generate_minic(3, SMALL).source, "g3d"), True),
        "irgen2": _build(generate_ir(2), False),
        "carry": _build(
            compile_source(BITLIVE_WITNESS_SOURCE, "carry"), False),
        "reconverge": _build(
            compile_source(RECONVERGE_WITNESS_SOURCE, "rw"), False),
    }


# -- exhaustive oracle --------------------------------------------------


@pytest.mark.parametrize("dispatch", ["decoded", "codegen"])
@pytest.mark.parametrize("fault_model", ["seu", "set", "cf"])
@pytest.mark.parametrize("tag", _WITNESSES)
@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_every_early_exit_matches_naive(witness_builds, tag, layer,
                                        fault_model, dispatch):
    rep = verify_reconvergence(
        layer, fault_model=fault_model, dispatch=dispatch, bits=(0, 1),
        **_layer_kwargs(witness_builds[tag], layer))
    assert rep["violations"] == [], (
        f"{tag} {layer}/{dispatch}/{fault_model}: "
        f"{len(rep['violations'])} of {rep['reconverged']} early exits "
        f"disagree with the naive run (first: {rep['violations'][:3]})")


def test_oracle_is_not_vacuous(witness_builds):
    """Early exits must actually happen at both layers, under every
    fault model, on both engine tiers."""
    for layer in ("ir", "asm"):
        for fm in ("seu", "set", "cf"):
            for dispatch in ("decoded", "codegen"):
                early = sum(
                    verify_reconvergence(
                        layer, fault_model=fm, dispatch=dispatch,
                        **_layer_kwargs(witness_builds[tag], layer)
                    )["reconverged"]
                    for tag in ("carry", "reconverge"))
                assert early > 0, (layer, fm, dispatch)


def test_tiers_exit_at_the_same_points(witness_builds):
    """The decoded and codegen tiers compare at the same grid points, so
    they save exactly the same steps."""
    for layer in ("ir", "asm"):
        kw = _layer_kwargs(witness_builds["reconverge"], layer)
        dec = verify_reconvergence(layer, dispatch="decoded", **kw)
        cg = verify_reconvergence(layer, dispatch="codegen", **kw)
        assert (dec["reconverged"], dec["saved_steps"]) == \
            (cg["reconverged"], cg["saved_steps"])


def test_liveness_reconverges_earlier(witness_builds):
    """Comparing live temps only (not whole frames) must buy IR early
    exits that whole-frame comparison misses."""
    import repro.fi.ledger as ledger_mod

    kw = _layer_kwargs(witness_builds["carry"], "ir")
    live = verify_reconvergence("ir", **kw)["reconverged"]
    orig = ledger_mod._frame_live
    ledger_mod._frame_live = lambda live, fn, block, index: None
    try:
        whole = verify_reconvergence("ir", **kw)["reconverged"]
    finally:
        ledger_mod._frame_live = orig
    assert live > whole


# -- signature invariance (property) ------------------------------------


@_SETTINGS
@given(minic_programs(SMALL), st.sampled_from(["seu", "set", "cf"]),
       st.booleans())
def test_reconvergence_never_changes_a_campaign(prog, fault_model,
                                                protect):
    module, layout, compiled = _build(
        compile_source(prog.source, f"p{prog.seed}"), protect)
    cfg = CampaignConfig(n_campaigns=30, seed=prog.seed & 0xFFFF)
    for layer in ("ir", "asm"):
        sigs = []
        for engine in (False, True):
            if layer == "ir":
                res = run_ir_campaign(module, cfg, layout, engine=engine,
                                      fault_model=fault_model)
            else:
                res = run_asm_campaign(compiled, layout, cfg, engine=engine,
                                       fault_model=fault_model)
            sigs.append(campaign_signature(res))
        assert sigs[0] == sigs[1], (layer, fault_model)


# -- results of a reconverged replay ------------------------------------


def _suite(build, layer, samples, **kw):
    module, layout, compiled = build
    got, stats = {}, {}
    golden = (IRInterpreter(module, layout=layout) if layer == "ir"
              else AsmMachine(compiled, layout)).run()
    run_injection_suite(
        layer, samples, max(20_000, golden.dyn_total * 4), module=module,
        layout=layout, program=compiled, emit=got.__setitem__,
        stats=stats, **kw)
    return golden, got, stats


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_reconverged_result_shape(witness_builds, layer):
    build = witness_builds["carry"]
    golden, _, _ = _suite(build, layer, [])
    samples = [(i, i, 5) for i in range(0, golden.dyn_injectable, 3)]
    _, on, stats = _suite(build, layer, samples, ledger_config=EXHAUSTIVE)
    _, off, off_stats = _suite(build, layer, samples, ledger_config=OFF)
    early = [t for t, r in on.items() if "reconverged" in r.extra]
    assert early
    for t in early:
        r, full = on[t], off[t]
        assert r.status is RunStatus.OK and full.status is RunStatus.OK
        assert r.output == golden.output == full.output
        assert r.injected_iid == full.injected_iid
        for key in ("asm_index", "asm_role", "asm_opcode"):
            assert r.extra.get(key) == full.extra.get(key)
        # dyn_total is the step the replay stopped at
        assert r.extra["reconverged"] > t
        assert r.dyn_total < full.dyn_total == golden.dyn_total
    assert stats["reconverged"] == len(early)
    # the suffix steps drop by exactly the saved work
    assert stats["suffix_steps"] + stats["reconverge_saved_steps"] == \
        off_stats["suffix_steps"]


def test_ledger_requires_an_engine_tier(witness_builds):
    module, layout, compiled = witness_builds["carry"]
    ledger = GoldenLedger([0, 1])
    with pytest.raises(IRError):
        IRInterpreter(module, layout=layout, dispatch="naive").run(
            inject_index=0, ledger=ledger)
    with pytest.raises(ReproError):
        AsmMachine(compiled, layout, dispatch="naive").run(
            inject_index=0, ledger=ledger)
    # without an injection there is nothing to reconverge from
    res = IRInterpreter(module, layout=layout).run(ledger=ledger)
    assert res.status is RunStatus.OK and "reconverged" not in res.extra


# -- ledger mechanics ----------------------------------------------------


def test_paged_images_share_pages():
    data = bytearray(5 * PAGE_SIZE + 100)
    data[10] = 7
    store = PageStore()
    first = store.capture(data)
    # one non-zero page, plus the partial last page (never shared
    # with the all-zero page)
    assert store.fresh == PAGE_SIZE + 100
    data[3 * PAGE_SIZE + 1] = 9
    second = store.capture(data)
    assert store.fresh == PAGE_SIZE
    assert second.pages[0] is first.pages[0]    # unchanged page shared
    assert second.pages[3] is not first.pages[3]
    assert len(second) == len(data)
    assert second.first_difference(data) == -1
    assert first.first_difference(data) == 3
    data[-1] = 1                                # partial last page
    assert second.first_difference(data) == 5
    out = bytearray(len(data))
    load_image(out, second)
    assert out == second.tobytes() and out != data
    load_image(out, bytes(data))
    assert out == data
    assert isinstance(store.capture(data), PagedImage)


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_budget_thins_the_grid(witness_builds, layer):
    """A ledger too small for its grid thins deterministically (spacing
    doubles, every other point dropped) and results stay identical."""
    build = witness_builds["reconverge"]
    golden, _, _ = _suite(build, layer, [])
    samples = [(i, i, 3) for i in range(0, golden.dyn_injectable, 7)]
    _, off, _ = _suite(build, layer, samples, ledger_config=OFF)
    tight = LedgerConfig(budget=256 * 1024, points=8, spacing=1)
    seen = []
    orig = GoldenLedger.finish

    def spy(self, *a):
        seen.append(self)
        return orig(self, *a)

    GoldenLedger.finish = spy
    try:
        _, on, stats = _suite(build, layer, samples,     ledger_config=tight)
    finally:
        GoldenLedger.finish = orig
    (ledger,) = seen
    assert ledger.thinned > 0
    assert len(ledger.points) <= tight.points
    assert ledger.bytes <= tight.budget
    assert all(p % ledger.spacing == 0 for p in ledger.points)
    assert {t: (r.status, r.output, r.injected_iid, r.trap_kind)
            for t, r in on.items()} == \
        {t: (r.status, r.output, r.injected_iid, r.trap_kind)
         for t, r in off.items()}


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_targets_past_the_budget_stream_again(witness_builds, layer):
    """Target snapshots that do not fit half the budget are replayed
    from a second streaming pass, one at a time, still against the
    ledger: same results, two golden passes accounted."""
    build = witness_builds["reconverge"]
    golden, _, _ = _suite(build, layer, [])
    samples = [(i, i, 1) for i in range(1, golden.dyn_injectable, 5)]
    _, off, _ = _suite(build, layer, samples, ledger_config=OFF)
    tiny = LedgerConfig(budget=64 * 1024, spacing=4)
    _, on, stats = _suite(build, layer, samples, ledger_config=tiny)
    assert stats["golden_steps"] > golden.dyn_total
    assert stats["replays"] == len(samples)
    for t, r in on.items():
        assert (r.status, r.output, r.injected_iid, r.trap_kind) == \
            (off[t].status, off[t].output, off[t].injected_iid,
             off[t].trap_kind)


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_tail_pass_completes_golden_exactly_once(witness_builds, layer):
    """The golden pass ends at the last target, as without a ledger; a
    replay that reconverges makes one tail pass run the rest of the
    golden trace, so the golden steps add up to one full run."""
    build = witness_builds["reconverge"]
    golden, _, _ = _suite(build, layer, [])
    samples = [(i, i, 5)
               for i in range(0, golden.dyn_injectable // 2, 3)]
    _, off, off_stats = _suite(build, layer, samples, ledger_config=OFF)
    _, on, on_stats = _suite(build, layer, samples)
    assert on_stats["reconverged"] > 0
    assert off_stats["golden_steps"] < golden.dyn_total
    assert on_stats["golden_steps"] == golden.dyn_total
    for t, r in on.items():
        assert (r.status, r.output, r.injected_iid, r.trap_kind) == \
            (off[t].status, off[t].output, off[t].injected_iid,
             off[t].trap_kind)


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_replays_that_end_early_skip_the_tail(witness_builds, layer):
    """A replay that traps or is detected before it reaches the end of
    the recorded golden prefix never makes the tail pass run: the suite
    simulates exactly what the engine without a ledger does."""
    build = witness_builds["gen3-dup"]
    golden, _, _ = _suite(build, layer, [])
    tried = 0
    for t in range(1, golden.dyn_injectable, 7):
        for bit in (0, 3, 7):
            sample = [(0, t, bit)]
            _, off, off_stats = _suite(build, layer, sample,
                                       ledger_config=OFF)
            res = off[0]
            # the first lattice point past the target (the ledger's
            # spacing for a single target)
            sp = max(16, t // 64)
            if (res.status not in (RunStatus.DETECTED, RunStatus.TRAP)
                    or res.dyn_injectable >= (t // sp + 1) * sp):
                continue
            _, on, on_stats = _suite(build, layer, sample)
            assert on_stats["golden_steps"] == off_stats["golden_steps"]
            assert on_stats.get("reconverged", 0) == 0
            assert on[0].status is res.status
            tried += 1
    assert tried > 0


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_ledger_dies_with_its_suite(witness_builds, layer, monkeypatch):
    """Nothing outlives a suite in a reference cycle: its ledger (every
    grid page and held snapshot) is freed when the suite returns, not
    at the next garbage collection."""
    import gc
    import weakref

    refs = []
    orig = GoldenLedger.__init__

    def init(self, *a, **kw):
        orig(self, *a, **kw)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(GoldenLedger, "__init__", init)
    build = witness_builds["reconverge"]
    golden, _, _ = _suite(build, layer, [])
    samples = [(i, i, 5) for i in range(0, golden.dyn_injectable // 2, 3)]
    gc.disable()
    try:
        _, _, stats = _suite(build, layer, samples)
        assert stats["reconverged"] > 0     # the tail pass ran
        assert refs and all(r() is None for r in refs)
    finally:
        gc.enable()


def test_ir_live_temps_drop_dead_values(witness_builds):
    module = witness_builds["carry"][0]
    live = IRLiveTemps()
    fn = module.function("main")
    uses = {}
    for b in fn.blocks:
        for pos, user in enumerate(b.instructions):
            for op in user.operands:
                if isinstance(op, Instruction):
                    uses.setdefault(op.iid, []).append((b, pos))
    for block in fn.blocks:
        defined = {inst.iid: k for k, inst in enumerate(block.instructions)}
        for index in range(len(block.instructions) + 1):
            at = set(live.at(fn, block, index))
            for iid, reads in uses.items():
                here = defined.get(iid)
                ahead = any(b is block and p >= index for b, p in reads)
                if ahead and (here is None or here < index):
                    assert iid in at        # defined before, read ahead
                if here is not None and here < index and all(
                        b is block and p < index for b, p in reads):
                    assert iid not in at    # every read already done
