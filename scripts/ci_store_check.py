#!/usr/bin/env python3
"""Shared-store concurrency acceptance check (DESIGN §16).

Exercises the multi-tenant section-profile store end-to-end:

1. **Concurrent campaigns** — two incremental campaign processes run
   against one store; one is SIGKILLed mid-run.  The survivor must
   detect the dead process's stale section claims, take the work over,
   and complete with composed counters bit-identical to a serial
   storeless reference run.
2. **Store integrity** — after the kill, ``repro store verify`` must
   pass: every surviving line checksums clean and every profile's key
   hash recomputes (the kill may leave a torn tail, which the scanner
   discards — that is not corruption).
3. **Warm resume** — a fresh campaign against the survivor's store is
   a pure warm hit: zero simulated injections, identical counters.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/ci_store_check.py
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

from repro.cli import main as cli_main  # noqa: E402
from repro.fi.campaign import CampaignConfig  # noqa: E402
from repro.fi.compose import (  # noqa: E402
    SectionProfileStore,
    run_incremental_campaign,
)
from repro.pipeline import build  # noqa: E402

BENCHMARK = "crc32"
SCALE = "small"
LAYER = "asm"
N = 600
SEED = 2023
MIN_ROWS_BEFORE_KILL = 25
KILL_DEADLINE = 300.0


def _config() -> CampaignConfig:
    return CampaignConfig(n_campaigns=N, seed=SEED)


def _store_rows(path: str) -> int:
    """Complete ``row`` lines in the store, classified by decoding each
    line, so the count does not depend on how a writer spells them."""
    if not os.path.exists(path):
        return 0
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.endswith("\n") and json.loads(line).get("ev") == "row":
                rows += 1
    return rows


def _run(built, store_path=None):
    if store_path is None:
        return run_incremental_campaign(built, LAYER, _config(), None)
    with SectionProfileStore(store_path) as store:
        return run_incremental_campaign(built, LAYER, _config(), store)


def _spawn_child(store_path: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, "--child", store_path],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )


def check_concurrent_kill(built, store_path: str) -> int:
    victim = _spawn_child(store_path)
    survivor = _spawn_child(store_path)

    deadline = time.time() + KILL_DEADLINE
    while time.time() < deadline:
        if _store_rows(store_path) >= MIN_ROWS_BEFORE_KILL:
            break
        if victim.poll() is not None:
            break
        time.sleep(0.01)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(f"killed one of two concurrent campaigns after "
              f"{_store_rows(store_path)} journaled rows")
    else:
        victim.wait()
        print("warning: victim campaign finished before the kill landed; "
              "check degenerates to a two-writer completion check",
              file=sys.stderr)

    _, err = survivor.communicate(timeout=KILL_DEADLINE)
    if survivor.returncode != 0:
        print(f"FAIL: surviving campaign exited {survivor.returncode}:\n"
              f"{err}", file=sys.stderr)
        return 1

    reference = _run(built)
    with SectionProfileStore(store_path) as store:
        resumed = run_incremental_campaign(built, LAYER, _config(), store)
    if resumed.counts != reference.counts:
        print(f"FAIL: post-kill composed counts {dict(resumed.counts)} "
              f"!= serial reference {dict(reference.counts)}",
              file=sys.stderr)
        return 1
    print(f"OK: survivor completed around the SIGKILL; composed "
          f"counters bit-match the serial reference "
          f"(n={reference.n_total})")
    return 0


def check_verify(store_path: str) -> int:
    rc = cli_main(["store", "verify", store_path])
    if rc != 0:
        print(f"FAIL: `repro store verify` exited {rc} on the "
              f"post-kill store", file=sys.stderr)
        return 1
    print("OK: post-kill store passes `repro store verify`")
    return 0


def check_warm_resume(built, store_path: str) -> int:
    warm = _run(built, store_path)
    if warm.simulated != 0 or warm.cache_hits != len(warm.sections):
        print(f"FAIL: resumed run simulated={warm.simulated} "
              f"cache-hits={warm.cache_hits}/{len(warm.sections)}; "
              f"expected a pure warm hit", file=sys.stderr)
        return 1
    print(f"OK: resumed campaign was a pure warm hit over "
          f"{len(warm.sections)} sections")
    return 0


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        _run(build(BENCHMARK, scale=SCALE), sys.argv[2])
        return 0

    tmp = tempfile.mkdtemp(prefix="repro-store-")
    store_path = os.path.join(tmp, "shared.jsonl")
    built = build(BENCHMARK, scale=SCALE)
    rc = check_concurrent_kill(built, store_path)
    rc = rc or check_verify(store_path)
    rc = rc or check_warm_resume(built, store_path)
    if rc == 0:
        print("PASS: shared-store concurrency checks all green")
    return rc


if __name__ == "__main__":
    sys.exit(main())
