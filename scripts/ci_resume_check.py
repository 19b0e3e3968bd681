#!/usr/bin/env python3
"""Crash-and-resume acceptance check for campaign resilience.

Launches a journaled fault-injection campaign in a subprocess, SIGKILLs
it mid-flight, resumes it from the journal via ``repro resume``, and
asserts the final :class:`CampaignResult` is bit-identical to an
uninterrupted run of the same ``(WorkSpec, CampaignConfig)``.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/ci_resume_check.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.benchsuite.registry import load_source  # noqa: E402
from repro.fi.campaign import CampaignConfig  # noqa: E402
from repro.fi.parallel import WorkSpec, run_parallel_campaign  # noqa: E402

BENCHMARK = "crc32"
SCALE = "small"
LAYER = "asm"
N = 2000
SEED = 2023
MIN_ROWS_BEFORE_KILL = 30
KILL_DEADLINE = 300.0


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def _journal_rows(path: str) -> int:
    """Complete ``row`` lines in the journal, classified by decoding each
    line, so the count does not depend on how a writer spells them."""
    if not os.path.exists(path):
        return 0
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.endswith("\n") and json.loads(line).get("ev") == "row":
                rows += 1
    return rows


def _records(result):
    return [(r.dyn_index, r.bit, r.outcome, r.iid, r.asm_index,
             r.asm_role, r.asm_opcode, r.trap_kind)
            for r in result.records]


def main() -> int:
    journal = os.path.join(tempfile.mkdtemp(prefix="repro-resume-"),
                           "campaign.jsonl")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "stats", BENCHMARK,
         "--scale", SCALE, "--layer", LAYER, "-n", str(N),
         "--seed", str(SEED), "--workers", "1", "--journal", journal],
        env=_cli_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + KILL_DEADLINE
    while time.time() < deadline:
        if _journal_rows(journal) >= MIN_ROWS_BEFORE_KILL:
            break
        if child.poll() is not None:
            break
        time.sleep(0.01)
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
        child.wait()
        print(f"killed campaign with SIGKILL after "
              f"{_journal_rows(journal)} journaled rows")
    else:
        print("warning: campaign finished before the kill landed; "
              "resume check degenerates to a pure-replay check",
              file=sys.stderr)

    interrupted = _journal_rows(journal)
    if interrupted < 1:
        print("FAIL: no rows were journaled before the kill",
              file=sys.stderr)
        return 1
    if interrupted >= N:
        print("note: journal already complete", file=sys.stderr)

    resume = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", journal,
         "--workers", "1"],
        env=_cli_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if resume.returncode != 0:
        print(f"FAIL: repro resume exited {resume.returncode}\n"
              f"{resume.stderr}", file=sys.stderr)
        return 1
    print(resume.stdout.strip().splitlines()[-1])

    final = _journal_rows(journal)
    if final != N:
        print(f"FAIL: journal holds {final} rows, expected {N}",
              file=sys.stderr)
        return 1

    spec = WorkSpec(source=load_source(BENCHMARK, SCALE),
                    name=BENCHMARK, layer=LAYER)
    config = CampaignConfig(n_campaigns=N, seed=SEED)
    # opening the completed journal replays every row without
    # re-executing a single injection
    resumed = run_parallel_campaign(spec, config, workers=1,
                                    journal_path=journal)
    clean = run_parallel_campaign(spec, config, workers=1)
    if _records(resumed) != _records(clean) or \
            resumed.counts != clean.counts or \
            resumed.golden_output != clean.golden_output:
        print("FAIL: resumed campaign differs from uninterrupted run",
              file=sys.stderr)
        return 1
    print(f"OK: killed at {interrupted}/{N} rows, resumed to a "
          f"bit-identical result ({json.dumps({o.value: c for o, c in clean.counts.items() if c})})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
