"""Deterministic counts must repeat exactly between runs of one seed.

Runs the traced benchmark twice per workload (one untraced and one traced
round each) and compares every count the traced run reports: simulator
run counts, simulated steps, journal records, fsyncs, store hits and
simulated injections, assembly instructions.  A count that drifts is a
defect, not noise.  Run with::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from run import EXACT  # noqa: E402

SEED = 2

#: counts each workload must actually exercise (nonzero)
EXERCISED = {
    "paper-cells": ["planner.profile_runs", "journal.records",
                    "journal.fsyncs", "backend.asm_insts",
                    "interp.replays", "machine.replays"],
    "long-trace": ["interp.stream_runs", "machine.stream_runs",
                   "interp.replays", "machine.replays",
                   "engine.simulated_steps"],
    "store-edit": ["store.simulated", "store.fsyncs", "store.lock_acquires",
                   "sections.count"],
}


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True,
        timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    return {k: doc["metrics"][k]["value"] for k in EXACT}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    second = traced_counts(workload)
    drifted = {k: (first[k], second[k]) for k in EXACT
               if first[k] != second[k]}
    assert not drifted
    assert all(first[k] > 0 for k in EXERCISED[workload]), first
