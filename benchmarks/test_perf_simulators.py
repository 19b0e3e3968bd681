"""Throughput microbenchmarks of the two execution layers.

These are genuine pytest-benchmark measurements (multiple rounds): the
fault-injection campaigns execute millions of simulated instructions,
so interpreter throughput bounds every experiment above.  All three
dispatch tiers are measured — naive op-string ladders, pre-decoded
closures, and the exec-compiled codegen tier (DESIGN §13).
"""

import pytest

from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.pipeline import build


@pytest.fixture(scope="module")
def crc32_built():
    return build("crc32", scale="small")


@pytest.mark.parametrize("dispatch", ["naive", "decoded", "codegen"])
def test_ir_interpreter_throughput(benchmark, crc32_built, dispatch):
    built = crc32_built

    def run():
        return IRInterpreter(built.module, layout=built.layout,
                             dispatch=dispatch).run()

    result = benchmark(run)
    assert result.status.value == "ok"


@pytest.mark.parametrize("dispatch", ["naive", "decoded", "codegen"])
def test_asm_machine_throughput(benchmark, crc32_built, dispatch):
    built = crc32_built

    def run():
        return AsmMachine(built.compiled, built.layout,
                          dispatch=dispatch).run()

    result = benchmark(run)
    assert result.status.value == "ok"


def test_campaign_engine_speedup_floor():
    """The checkpoint-replay engine must beat naive re-execution by at
    least 3x end-to-end on the CI smoke workload (both layers summed),
    while producing bit-identical campaign results.  This is the PR's
    acceptance floor; the measured artifact lives in
    ``BENCH_campaign.json``.
    """
    from repro.fi.bench import run_campaign_bench

    doc = run_campaign_bench()          # pathfinder/medium n=40 seed=2023
    for layer, d in doc["layers"].items():
        assert d["results_identical"], \
            f"{layer} engine results diverge from naive"
    overall = doc["overall"]["speedup"]
    assert overall >= 3.0, (
        f"campaign engine speedup {overall:.2f}x below the 3x floor "
        f"(ir {doc['layers']['ir']['speedup']:.2f}x, "
        f"asm {doc['layers']['asm']['speedup']:.2f}x)")


def test_codegen_tier_speedup_floor():
    """The template-generated codegen tier must beat the decoded tier
    by at least 2x on a warm golden run (both layers summed) while the
    codegen-dispatch engine campaigns stay bit-identical to decoded.
    The campaign-level figure is reported too but carries no floor: the
    golden checkpointing pass always streams from the decoded core, so
    it dilutes the tier's own speedup (DESIGN §13).
    """
    from repro.fi.bench import run_campaign_bench

    doc = run_campaign_bench()          # pathfinder/medium n=40 seed=2023
    for layer, d in doc["layers"].items():
        assert d["codegen"]["results_identical"], \
            f"{layer} codegen campaign results diverge from decoded"
    g = doc["overall"]["codegen"]
    assert g["run_speedup"] >= 2.0, (
        f"codegen golden-run speedup {g['run_speedup']:.2f}x below the "
        f"2x floor (ir "
        f"{doc['layers']['ir']['codegen']['run_speedup']:.2f}x, asm "
        f"{doc['layers']['asm']['codegen']['run_speedup']:.2f}x)")


def test_incremental_warm_path_floor():
    """A second incremental campaign over an unchanged program must be
    served entirely from the section-profile store (zero simulated
    injections) and come in at least 10x faster than the checkpoint-
    replay engine, while the cold pass stays within 1.3x of the engine
    (sectioning + cache bookkeeping overhead bound, DESIGN §15).
    """
    from repro.fi.bench import run_campaign_bench

    doc = run_campaign_bench()          # pathfinder/medium n=40 seed=2023
    for layer, d in doc["layers"].items():
        inc = d["incremental"]
        assert inc["warm_pure_hits"], \
            f"{layer} warm incremental pass re-simulated injections"
        assert inc["cold_ratio_vs_engine"] <= 1.3, (
            f"{layer} cold incremental pass costs "
            f"{inc['cold_ratio_vs_engine']:.2f}x the engine (>1.3x)")
    warm = doc["overall"]["incremental"]["warm_speedup_vs_engine"]
    assert warm >= 10.0, (
        f"incremental warm-path speedup {warm:.2f}x below the 10x floor "
        f"(ir {doc['layers']['ir']['incremental']['warm_speedup_vs_engine']:.2f}x, "
        f"asm {doc['layers']['asm']['incremental']['warm_speedup_vs_engine']:.2f}x)")


def test_reconvergence_replay_step_floor():
    """Reconvergence early exit (DESIGN §18) must cut the suffix steps
    the engine replays on the CI smoke workload to at most 0.75x of the
    ledger-off run (both layers summed; 0.62x when the ledger landed),
    with bit-identical campaign results.  Step counts are deterministic
    for the fixed seed, so this floor is exact, not a wall-clock
    measurement.
    """
    from repro.fi.bench import run_campaign_bench

    doc = run_campaign_bench()          # pathfinder/medium n=40 seed=2023
    for layer, d in doc["layers"].items():
        assert d["reconvergence"]["results_identical"], \
            f"{layer} campaign results change with reconvergence on"
    r = doc["overall"]["reconvergence"]
    assert r["reconverged"] > 0, "no replay reconverged"
    assert r["step_ratio"] <= 0.75, (
        f"reconvergence replayed {r['step_ratio']:.2f}x of the ledger-off "
        f"suffix steps (> 0.75x): {r['on_replay_steps']} vs "
        f"{r['off_replay_steps']}")


def test_pruned_stratified_steps_floor():
    """A pruned+stratified campaign must reproduce the 3000-injection
    uniform campaign's SDC estimate (estimate inside the uniform CI at
    equal-or-narrower width) on fully-duplicated pathfinder at >= 2x
    fewer simulated steps, and pruning alone over the identical uniform
    draw must return bit-identical estimates (DESIGN §17).  Step counts
    are deterministic for the fixed seed, so this floor is exact, not a
    wall-clock measurement.
    """
    from repro.fi.bench import _run_pruning_section

    pr = _run_pruning_section()
    st = pr["stratified"]
    assert st["within_uniform_ci"], (
        f"stratified sdc {st['stratified_sdc']:.4f} outside the uniform "
        f"CI {st['uniform_sdc_ci']}")
    assert st["ci_overlap"], "stratified and uniform CIs are disjoint"
    assert st["width_ok"], (
        f"stratified CI wider than uniform at "
        f"{st['stratified_n']}/{st['uniform_n']} of the budget")
    assert st["steps_ratio"] >= 2.0, (
        f"pruned+stratified simulated only "
        f"{st['steps_ratio']:.2f}x fewer steps (< 2x floor): "
        f"{st['stratified_steps']} vs {st['uniform_steps']}")
    pu = pr["prune"]
    assert pu["estimates_identical"], \
        "pruned campaign estimates diverge from the uniform draw"
    assert pu["pruned"] > 0, "pruner resolved no draws statically"
    assert pu["steps_ratio"] > 1.0, (
        f"pruning saved no simulated steps "
        f"({pu['pruned_steps']} vs {pu['uniform_steps']})")


def test_lowering_throughput(benchmark):
    from repro.backend.lower import lower_module
    from repro.frontend.codegen import compile_source
    from repro.benchsuite.registry import load_source

    src = load_source("susan", "small")

    def run():
        return lower_module(compile_source(src, "susan"))

    asm = benchmark(run)
    assert asm.static_count() > 0


def test_frontend_throughput(benchmark):
    from repro.frontend.codegen import compile_source
    from repro.benchsuite.registry import load_source

    src = load_source("cg", "small")
    module = benchmark(compile_source, src, "cg")
    assert module.static_instruction_count() > 0
