"""Output checks against the naive tier (engine off, ``dispatch="naive"``).

Three checks, all untimed:

* every operation's result signature digest must repeat in every round
  of a run (rounds redo identical work from fresh state);
* for the default seed the digests must equal the committed ones in
  ``digests.json``, which :func:`main` regenerates from a naive-tier run;
* for any other seed a seeded subsample of injections is re-executed in
  full on the naive tier and must classify exactly as the campaign did
  (store-edit: a seeded subsample of campaigns is recomputed storeless on
  the naive tier and must compose to the same estimates).

Regenerate the committed digests (slow; runs the naive tier)::

    python3 perfbench/reference.py --workload paper-cells
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from typing import Dict, Iterator, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def digest(sig: Dict) -> str:
    blob = json.dumps(sig, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def committed_digests(workload: str, seed: int) -> Dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def _naive_sim(layer: str, max_steps: int, *, module=None, layout=None,
               program=None, fault_model=None):
    """A fresh naive-tier simulator (one per run: a finished run leaves
    its memory image behind)."""
    from repro.interp.interpreter import IRInterpreter
    from repro.machine.machine import AsmMachine

    if layer == "ir":
        return IRInterpreter(module, layout=layout, max_steps=max_steps,
                             dispatch="naive", fault_model=fault_model)
    return AsmMachine(program, layout, max_steps=max_steps,
                      dispatch="naive", fault_model=fault_model)


def check_samples(samples, rng: np.random.Generator, per_campaign: int
                  ) -> List[str]:
    """Re-run a seeded subsample of each campaign's injections naively."""
    from repro.fi.campaign import CampaignConfig
    from repro.fi.outcomes import canonical_trap_kind, classify_outcome

    cfg = CampaignConfig()
    errors = []
    for built, layer, golden_output, golden_len, records in samples:
        max_steps = max(cfg.min_max_steps, golden_len * cfg.max_steps_factor)
        fresh = functools.partial(
            _naive_sim, layer, max_steps, module=built.module,
            layout=built.layout, program=built.compiled)
        golden = fresh().run()
        if (golden.output, golden.dyn_total) != (golden_output, golden_len):
            errors.append(f"{built.name}/{layer}: naive golden differs")
            continue
        pick = rng.choice(len(records), size=min(per_campaign, len(records)),
                          replace=False)
        for i in sorted(pick.tolist()):
            r = records[i]
            res = fresh().run(inject_index=r.dyn_index, inject_bit=r.bit)
            got = (classify_outcome(res, golden_output), res.injected_iid,
                   canonical_trap_kind(res.trap_kind))
            want = (r.outcome, r.iid, r.trap_kind)
            if layer == "asm":
                got += (res.extra.get("asm_index"),)
                want += (r.asm_index,)
            if got != want:
                errors.append(f"{built.name}/{layer} sample {i} "
                              f"(index {r.dyn_index}, bit {r.bit}): "
                              f"naive {got} != campaign {want}")
    return errors


def naive_injection_suite(layer, samples, max_steps, *, module=None,
                          layout=None, program=None, emit, dispatch=None,
                          fault_model=None, stats=None) -> None:
    """Drop-in for ``repro.fi.engine.run_injection_suite`` that executes
    every injection as a full naive-tier run (the reference executor)."""
    for tag, idx, bit in samples:
        sim = _naive_sim(layer, max_steps, module=module, layout=layout,
                         program=program, fault_model=fault_model)
        emit(tag, sim.run(inject_index=idx, inject_bit=bit))


@contextlib.contextmanager
def naive_tier() -> Iterator[None]:
    """Route every campaign of the benchmark's workloads to the naive tier."""
    import repro.fi.compose as compose

    saved_env = os.environ.get("REPRO_ENGINE")
    saved_suite = compose.run_injection_suite
    os.environ["REPRO_ENGINE"] = "0"
    compose.run_injection_suite = naive_injection_suite
    try:
        yield
    finally:
        compose.run_injection_suite = saved_suite
        if saved_env is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = saved_env


def check_incremental(replay, sig: Dict) -> List[str]:
    """Recompute one incremental campaign storeless on the naive tier."""
    from repro.fi.compose import run_incremental_campaign
    from workloads import composed_sig

    built, layer, cfg = replay
    with naive_tier():
        ref = composed_sig(run_incremental_campaign(built, layer, cfg, None))
    ref.pop("counters")
    got = {k: v for k, v in sig.items() if k != "counters"}
    if digest(got) != digest(ref):
        return [f"{built.name}/{layer}: composed result differs from the "
                f"storeless naive recomputation"]
    return []


def store_counter_errors(op_id: str, sig: Dict) -> List[str]:
    """The cache behaviour each store-edit pass must show."""
    c = sig["counters"]
    sections = len(sig["sections"])
    pas = op_id.split("/")[3]
    # the edit pass has no fixed expectation: which sections an edit
    # invalidates is the program's business (its digest is checked)
    ok = {
        "cold": c["cache_hits"] == 0 and c["simulated"] == sig["n_total"],
        "warm": c["cache_hits"] == sections and c["simulated"] == 0,
        "warm2": c["cache_hits"] == sections and c["simulated"] == 0,
        "edit": True,
    }[pas]
    return [] if ok else [f"{op_id}: unexpected store counters {c} "
                          f"over {sections} sections"]


def main() -> int:
    """Regenerate ``digests.json`` entries from a naive-tier round."""
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    wl = WORKLOADS[args.workload](seed)
    wl.prepare()
    out = {}
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work, naive_tier():
        for op in wl.round_ops(work):
            out[op.op_id] = digest(op.summarize(op.run(), False).sig)
            print(op.op_id, out[op.op_id][:16], flush=True)
    doc = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault(args.workload, {})[str(seed)] = out
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
