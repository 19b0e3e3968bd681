"""The benchmark's three workloads.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  A workload is planned
from its seed alone (programs, campaign seeds, edits), prepared once
(builds and the first golden run per program and layer), and then run in
*rounds*.  A round is a fixed list of operations that starts from fresh
on-disk state (journal directory, profile store) and fresh builds where
the program memoises per build, so every round does the same work and a
count measured over one round repeats exactly.

Why these three (see README.md for the layers each one does and does not
exercise):

* ``paper-cells`` -- the reproduction's own traffic: one protected cell
  (level x technique) of Figure 2 / Figure 17 at ``small`` scale, with
  its unprotected campaigns, both layers, root-cause classification and
  journaling.  Short traces, so per-campaign fixed costs dominate.
* ``long-trace`` -- one whole-program campaign on a ``medium`` program
  whose assembly golden trace exceeds 100k steps.  Checkpoint streaming
  and suffix replay are nearly all of the time.
* ``store-edit`` -- incremental campaigns against one section-profile
  store: cold, warm, a one-function edit, warm again.  Store and journal
  I/O and section mapping dominate.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: bump when a workload's plan or parameters change meaning
PLAN_VERSION = 1

#: the seed used when none is given; its results have committed digests
DEFAULT_SEED = 1


@dataclass
class OpResult:
    """What one operation delivered, reduced to plain data."""

    #: injection outcomes delivered (simulated or served from the store)
    outcomes: int
    #: JSON-able result signature; its digest is compared across rounds
    #: and against the naive-tier reference
    sig: Dict
    #: store-edit only: True if the campaign simulated >= 1 section,
    #: False for a pure-hit campaign
    cold: Optional[bool] = None
    #: store-edit only: (sections, cache hits, simulated, quarantined)
    store: Optional[Tuple[int, int, int, int]] = None
    #: for the naive subsample check: (built, layer, golden output,
    #: golden length, records) per campaign, kept only when asked
    samples: List[Tuple] = field(default_factory=list)
    #: store-edit: what the storeless naive check needs
    replay: Optional[Tuple] = None


@dataclass
class Op:
    op_id: str
    #: the timed call into the program; returns its raw result
    run: Callable[[], object]
    #: untimed: reduce the raw result to an OpResult (keep = retain what
    #: the naive subsample check needs)
    summarize: Callable[[object, bool], OpResult]


# -- result signatures ----------------------------------------------------

def campaign_sig(c) -> Dict:
    return {
        "layer": c.layer,
        "n": c.n,
        "counts": {o.value: k for o, k in c.counts.items() if k},
        "records": [
            [r.dyn_index, r.bit, r.outcome.value, r.iid, r.asm_index,
             r.asm_role, r.asm_opcode, r.trap_kind, r.fault_model]
            for r in c.records
        ],
        "golden_output": c.golden_output,
        "golden_dyn_total": c.golden_dyn_total,
        "golden_dyn_injectable": c.golden_dyn_injectable,
    }


def unclassified(c) -> int:
    """Samples a campaign left without an outcome."""
    missing = sum(1 for r in c.records if r.outcome is None)
    return missing + max(0, c.n - sum(c.counts.values()))


def composed_sig(res) -> Dict:
    summary = res.summary()
    return {
        "layer": res.layer,
        "n_total": res.n_total,
        "counts": {o.value: k for o, k in res.counts.items() if k},
        "summary": {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in sorted(summary.items())},
        "sections": [
            [s.section.name, s.profile.content_hash, s.profile.n,
             s.profile.site_count,
             {o.value: k for o, k in s.profile.counts.items() if k}]
            for s in res.sections
        ],
        "golden_output": res.golden_output,
        "golden_dyn_total": res.golden_dyn_total,
        "golden_dyn_injectable": res.golden_dyn_injectable,
        "counters": {"simulated": res.simulated,
                     "cache_hits": res.cache_hits,
                     "replayed": res.replayed},
    }


# -- seeded planning helpers ------------------------------------------------

def stratified_pick(rng: np.random.Generator,
                    strata: Sequence[Sequence[str]]) -> List[str]:
    """Draw one name from each stratum.

    Strata group programs of about the same measured cost (fixed
    constants of the benchmark, never derived from the program at run
    time), so a seed always draws the same subset and every seed's subset
    is about the same amount of work: seeds then compare, which a plain
    random subset would not (per-program costs span 3x).
    """
    return [s[int(rng.integers(len(s)))] for s in strata]


def edit_source(source: str, function: str,
                rng: np.random.Generator) -> str:
    """Insert a dead local with a seeded value into ``function``'s body.

    The edit changes that function's code (so its sections re-simulate)
    and nothing else; the program's output is unchanged.
    """
    head = re.search(
        r"^(?:int|void|float|double)\s+" + re.escape(function)
        + r"\s*\([^)]*\)\s*\{", source, re.MULTILINE)
    value = int(rng.integers(1, 1000))
    return (source[:head.end()] + f"\n    int bench_edit = {value};"
            + source[head.end():])


def _seeds(rng: np.random.Generator, k: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


# -- workloads --------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.params: Dict = {"workload": self.name, "seed": seed,
                             "plan_version": PLAN_VERSION}

    def prepare(self) -> None:
        """Build the workload's programs and golden-run each layer once."""

    def round_ops(self, workdir: str) -> List[Op]:
        raise NotImplementedError


def _golden_both(built) -> None:
    from repro.execresult import RunStatus

    for res in (built.run_ir(), built.run_asm()):
        if res.status is not RunStatus.OK:
            raise RuntimeError(f"golden run of {built.name} failed")


class PaperCells(Workload):
    """Protected cells of the paper's coverage figures, journaled."""

    name = "paper-cells"
    SCALE = "small"
    #: injections per campaign; planner profiling keeps
    #: run_full_experiments' 2:1 profile-to-campaign ratio
    N = 12
    PROFILE_N = 24
    LEVELS = (30, 50, 70, 100)
    #: benchmarks grouped so that the members of a stratum cost about the
    #: same time and keep about the same memory over their 8 cells (both
    #: measured, one benchmark per fresh process), cheapest first.
    #: Memory counts as much as time: the cells keep 9 MB (crc32) to
    #: 23 MB (patricia), and members that differ that much make peak RSS
    #: swing with the draw.  susan is left out: its small-scale cells
    #: cost 1.5x the next dearest benchmark's, so whether a seed drew it
    #: would dominate the spread between seeds (long-trace runs it at
    #: medium scale).
    STRATA = (("knn", "is"), ("basicmath", "lud"), ("fft2", "backprop"),
              ("bfs", "crc32"), ("quicksort", "patricia"),
              ("ep", "pathfinder", "stringsearch"), ("cg", "needle"))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.benchmarks = stratified_pick(rng, self.STRATA)
        self.campaign_seeds = _seeds(rng, len(self.benchmarks))
        self.params.update(
            scale=self.SCALE, n=self.N, profile_campaigns=self.PROFILE_N,
            benchmarks=self.benchmarks, campaign_seeds=self.campaign_seeds,
            levels=list(self.LEVELS), techniques=["id", "flowery"])

    def prepare(self) -> None:
        from repro.pipeline import build

        for name in self.benchmarks:
            _golden_both(build(name, scale=self.SCALE))

    def round_ops(self, workdir: str) -> List[Op]:
        from repro.experiments import ExperimentConfig, ExperimentContext

        ops = []
        for name, cseed in zip(self.benchmarks, self.campaign_seeds):
            ctx = ExperimentContext(
                ExperimentConfig(
                    scale=self.SCALE, campaigns=self.N,
                    profile_campaigns=self.PROFILE_N, seed=cseed,
                    benchmarks=(name,)),
                journal_dir=os.path.join(workdir, "journals"))
            first = True
            for flowery in (False, True):
                for level in self.LEVELS:
                    tech = "flowery" if flowery else "id"
                    ops.append(Op(
                        f"{name}/{tech}/{level}",
                        *_cell_op(ctx, name, level, flowery, first)))
                    first = False
        return ops


def _cell_op(ctx, name: str, level: int, flowery: bool, first: bool):
    def run():
        return ctx.protected_run(name, level, flowery)

    def summarize(cell, keep: bool) -> OpResult:
        campaigns = [cell.ir_campaign, cell.asm_campaign]
        sig = {
            "ir": campaign_sig(cell.ir_campaign),
            "asm": campaign_sig(cell.asm_campaign),
            "points": [[p.layer, p.raw_sdc, p.prot_sdc]
                       for p in (cell.ir_point, cell.asm_point)],
            "penetration": {p.value: k for p, k
                            in sorted(cell.penetration.counts.items(),
                                      key=lambda kv: kv[0].value)},
        }
        builts = [cell.built, cell.built]
        if first:
            # the context computed the unprotected campaigns in this cell
            raw = ctx.raw_campaigns(name)
            sig["raw"] = [campaign_sig(c) for c in raw]
            campaigns += list(raw)
            builts += [ctx.raw_build(name)] * 2
        sig["unclassified"] = sum(unclassified(c) for c in campaigns)
        res = OpResult(outcomes=sum(c.n for c in campaigns), sig=sig)
        if keep:
            res.samples = [(b, c.layer, c.golden_output, c.golden_dyn_total,
                            c.records) for b, c in zip(builts, campaigns)]
        return res

    return run, summarize


class LongTrace(Workload):
    """Whole-program campaigns on programs with long golden traces."""

    name = "long-trace"
    SCALE = "medium"
    #: every medium program whose asm golden trace exceeds 100k steps;
    #: all four run in every round (a seeded pick of fewer would let the
    #: figures swing 2x with which programs the seed drew)
    PROGRAMS = ("pathfinder", "needle", "cg", "susan")
    PROTECTIONS = (None, 100)
    N = 10
    #: campaigns (distinct seeds) per program, protection and layer
    REPEATS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        cells = [(p, lvl, layer) for p in self.PROGRAMS
                 for lvl in self.PROTECTIONS for layer in ("ir", "asm")
                 for _ in range(self.REPEATS)]
        order = rng.permutation(len(cells)).tolist()
        self.cells = [cells[i] for i in order]
        self.campaign_seeds = _seeds(rng, len(self.cells))
        self.built: Dict[Tuple[str, Optional[int]], object] = {}
        self.params.update(
            scale=self.SCALE, n=self.N,
            campaigns=[[p, lvl, layer, s] for (p, lvl, layer), s
                       in zip(self.cells, self.campaign_seeds)])

    def prepare(self) -> None:
        from repro.pipeline import build

        for p in self.PROGRAMS:
            for lvl in self.PROTECTIONS:
                b = build(p, scale=self.SCALE, level=lvl)
                _golden_both(b)
                self.built[(p, lvl)] = b

    def round_ops(self, workdir: str) -> List[Op]:
        ops = []
        for (p, lvl, layer), s in zip(self.cells, self.campaign_seeds):
            prot = "none" if lvl is None else f"dup-{lvl}"
            ops.append(Op(f"{p}/{prot}/{layer}/{s}",
                          *_campaign_op(self.built[(p, lvl)], layer,
                                        self.N, s)))
        return ops


def _campaign_op(built, layer: str, n: int, seed: int):
    from repro.fi.campaign import (CampaignConfig, run_asm_campaign,
                                   run_ir_campaign)

    cfg = CampaignConfig(n_campaigns=n, seed=seed)

    def run():
        if layer == "ir":
            return run_ir_campaign(built.module, cfg, built.layout)
        return run_asm_campaign(built.compiled, built.layout, cfg)

    def summarize(c, keep: bool) -> OpResult:
        sig = campaign_sig(c)
        sig["unclassified"] = unclassified(c)
        res = OpResult(outcomes=c.n, sig=sig)
        if keep:
            res.samples = [(built, layer, c.golden_output,
                            c.golden_dyn_total, c.records)]
        return res

    return run, summarize


class StoreEdit(Workload):
    """Incremental campaigns against one shared section-profile store."""

    name = "store-edit"
    SCALE = "small"
    N = 40
    #: (label, duplication level, Flowery) -- variants that need no planner
    VARIANTS = (("none", None, False), ("dup-100", 100, False),
                ("dup-100-flowery", 100, True))
    #: (pass, program versions it requests): the second warm pass
    #: re-requests both versions the store now holds, so pure hits are
    #: the majority (as in serving) and the median operation is a read
    PASSES = (("cold", ("original",)), ("warm", ("original",)),
              ("edit", ("edited",)), ("warm2", ("original", "edited")))
    #: programs with two or more functions (so a one-function edit can
    #: leave other sections cached), paired so that the members of a pair
    #: cost about the same round time, cold-campaign time, set-up time
    #: and memory (measured, one program per fresh process), cheapest
    #: first; one is drawn from each pair.  pathfinder is left out: its
    #: campaigns cost 1.2x the next dearest program's, so whether a seed
    #: drew it would dominate the spread.
    STRATA = (("basicmath", "backprop"), ("patricia", "cg"),
              ("ep", "quicksort"), ("stringsearch", "needle"))
    #: the function each program's edit lands in: the one holding the
    #: most injection sites, as when a developer tunes the hot kernel.
    #: A seeded choice of function would let the edit pass cost anywhere
    #: from 1% to 99% of a cold pass, and that would swamp the spread.
    EDITED = {"basicmath": "isqrt", "patricia": "insert",
              "backprop": "forward", "stringsearch": "search",
              "quicksort": "sort_range", "cg": "spmv", "needle": "main",
              "ep": "main"}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.benchsuite.registry import load_source

        rng = np.random.default_rng([seed, 3])
        self.programs = stratified_pick(rng, self.STRATA)
        self.campaign_seeds = _seeds(rng, len(self.programs))
        self.sources: Dict[str, Tuple[str, str]] = {}
        for p in self.programs:
            original = load_source(p, self.SCALE)
            self.sources[p] = (original,
                               edit_source(original, self.EDITED[p], rng))
        self.builds: Dict[Tuple[str, str, bool], object] = {}
        self._fresh = False
        self.params.update(
            scale=self.SCALE, n=self.N, programs=self.programs,
            campaign_seeds=self.campaign_seeds,
            edits=[[p, self.EDITED[p]] for p in self.programs],
            variants=[v[0] for v in self.VARIANTS],
            passes=[list(p) for p in self.PASSES])

    def _build_all(self) -> None:
        from repro.pipeline import build_from_source

        for p in self.programs:
            for edited, src in enumerate(self.sources[p]):
                for label, level, flowery in self.VARIANTS:
                    self.builds[(p, label, bool(edited))] = \
                        build_from_source(src, name=p, level=level,
                                          flowery=flowery)

    def prepare(self) -> None:
        self._build_all()
        for b in self.builds.values():
            _golden_both(b)
        self._fresh = True

    def round_ops(self, workdir: str) -> List[Op]:
        # fresh builds per round: the site map is memoised per build, and
        # every round must map its sections again to do the same work
        if not self._fresh:
            self.prepare()
        self._fresh = False
        os.makedirs(os.path.join(workdir, "store"))
        store_path = os.path.join(workdir, "store", "profiles.jsonl")
        ops = []
        for p, cseed in zip(self.programs, self.campaign_seeds):
            for pas, versions in self.PASSES:
                for version in versions:
                    for label, _, _ in self.VARIANTS:
                        built = self.builds[(p, label, version == "edited")]
                        for layer in ("ir", "asm"):
                            ops.append(Op(
                                f"{p}/{label}/{layer}/{pas}/{version}",
                                *_incremental_op(built, layer, self.N, cseed,
                                                 store_path)))
        return ops


def _incremental_op(built, layer: str, n: int, seed: int, store_path: str):
    from repro.fi.campaign import CampaignConfig
    from repro.fi.compose import SectionProfileStore, run_incremental_campaign

    cfg = CampaignConfig(n_campaigns=n, seed=seed)

    def run():
        with SectionProfileStore(store_path) as store:
            return run_incremental_campaign(built, layer, cfg, store), store

    def summarize(raw, keep: bool) -> OpResult:
        res, store = raw
        out = OpResult(
            outcomes=res.n_total, sig=composed_sig(res),
            cold=res.simulated > 0,
            store=(len(res.sections), res.cache_hits, res.simulated,
                   store.scan_corrupt))
        if keep:
            out.replay = (built, layer, cfg)
        return out

    return run, summarize


WORKLOADS = {w.name: w for w in (PaperCells, LongTrace, StoreEdit)}


def make_workdir(root: str) -> str:
    if os.path.exists(root):
        shutil.rmtree(root)
    os.makedirs(root)
    return root
