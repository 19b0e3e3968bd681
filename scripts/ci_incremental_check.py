#!/usr/bin/env python3
"""Incremental-campaign acceptance check for the section-profile cache.

Four properties of ``fi/compose.py`` are exercised end-to-end:

1. **Warm hit** — running the same incremental campaign twice against
   one store simulates zero injections the second time and reproduces
   identical outcome counts.
2. **Selective invalidation** — editing one function re-simulates only
   that function's sections; the untouched function is served from
   cache.
3. **Crash resume** — a campaign SIGKILLed mid-flight resumes from the
   fsync'd store rows to a result bit-identical to an uninterrupted
   run (torn trailing lines are discarded on load).
4. **Oracle agreement** — the composed cold run classifies exactly the
   planned number of injections (every section covered, none twice).

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/ci_incremental_check.py
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

from repro.fi.campaign import CampaignConfig  # noqa: E402
from repro.fi.compose import (  # noqa: E402
    SectionProfileStore,
    run_incremental_campaign,
)
from repro.pipeline import build, build_from_source  # noqa: E402

BENCHMARK = "crc32"
SCALE = "small"
LAYER = "asm"
N = 600
SEED = 2023
MIN_ROWS_BEFORE_KILL = 25
KILL_DEADLINE = 300.0

SRC = """\
const int N = 6;

int scale(int x) {
    int acc = 0;
    for (int i = 0; i < 3; i = i + 1) {
        acc = acc + x;
    }
    return acc;
}

int main() {
    int total = 0;
    for (int i = 0; i < N; i = i + 1) {
        total = total + scale(i);
    }
    print(total);
    return 0;
}
"""
SRC_EDITED = SRC.replace("total = total + scale(i);",
                         "total = total + scale(i) + 1;")


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


def check_warm_hit(built, store_path: str) -> int:
    cold = _run(built, store_path)
    if cold.simulated != cold.n_total or cold.cache_hits != 0:
        print(f"FAIL: cold run expected {cold.n_total} fresh "
              f"simulations, got simulated={cold.simulated} "
              f"cache-hits={cold.cache_hits}", file=sys.stderr)
        return 1
    warm = _run(built, store_path)
    if warm.simulated != 0 or warm.replayed != 0 or \
            warm.cache_hits != len(warm.sections):
        print(f"FAIL: warm run simulated={warm.simulated} "
              f"replayed={warm.replayed} cache-hits={warm.cache_hits}/"
              f"{len(warm.sections)}; expected pure hits",
              file=sys.stderr)
        return 1
    if warm.counts != cold.counts:
        print(f"FAIL: warm counts {dict(warm.counts)} != cold "
              f"{dict(cold.counts)}", file=sys.stderr)
        return 1
    print(f"OK: warm rerun over {len(warm.sections)} sections was "
          f"served entirely from cache (n={warm.n_total}, 0 simulated)")
    return 0


def check_selective_invalidation(store_path: str) -> int:
    before = _run(build_from_source(SRC, name="edit-check"), store_path)
    after = _run(build_from_source(SRC_EDITED, name="edit-check"),
                 store_path)
    # asm sections are sub-function chunks ("main#0", ...); group by
    # the owning function
    scale = [o for o in after.sections
             if o.section.name.split("#")[0] == "scale"]
    main = [o for o in after.sections
            if o.section.name.split("#")[0] == "main"]
    if not scale or not main:
        print(f"FAIL: expected scale/main sections, got "
              f"{sorted(o.section.name for o in after.sections)}",
              file=sys.stderr)
        return 1
    if any(not o.cached or o.simulated for o in scale):
        print("FAIL: untouched function 'scale' was re-simulated after "
              "an edit to 'main'", file=sys.stderr)
        return 1
    if all(o.cached for o in main) or not any(o.simulated for o in main):
        print("FAIL: edited function 'main' was not re-simulated",
              file=sys.stderr)
        return 1
    print(f"OK: editing main() re-simulated only its sections "
          f"({sum(o.simulated for o in main)} injections); scale() "
          f"stayed cached (cold run simulated {before.simulated})")
    return 0


def check_crash_resume(built, store_path: str) -> int:
    child = subprocess.Popen(
        [sys.executable, __file__, "--child", store_path],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + KILL_DEADLINE
    while time.time() < deadline:
        if _store_rows(store_path) >= MIN_ROWS_BEFORE_KILL:
            break
        if child.poll() is not None:
            break
        time.sleep(0.01)
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
        child.wait()
        print(f"killed incremental campaign with SIGKILL after "
              f"{_store_rows(store_path)} journaled rows")
    else:
        print("warning: campaign finished before the kill landed; "
              "resume check degenerates to a pure-replay check",
              file=sys.stderr)
    interrupted = _store_rows(store_path)
    if interrupted < 1:
        print("FAIL: no rows reached the store before the kill",
              file=sys.stderr)
        return 1

    resumed = _run(built, store_path)
    clean = _run(built)
    if resumed.replayed < 1 and interrupted < resumed.n_total:
        print("FAIL: resume re-simulated rows the store already held",
              file=sys.stderr)
        return 1
    if resumed.counts != clean.counts:
        print(f"FAIL: resumed counts {dict(resumed.counts)} != clean "
              f"{dict(clean.counts)}", file=sys.stderr)
        return 1
    for a, b in zip(clean.sections, resumed.sections):
        if a.profile.key != b.profile.key or \
                a.profile.counts != b.profile.counts:
            print(f"FAIL: section {a.section.name!r} profile diverged "
                  f"after resume", file=sys.stderr)
            return 1
    print(f"OK: killed at {interrupted}/{clean.n_total} rows, resumed "
          f"to a bit-identical composed result "
          f"(replayed {resumed.replayed}, simulated {resumed.simulated})")
    return 0


def check_coverage(built) -> int:
    res = _run(built)
    per_section = sum(o.profile.n for o in res.sections)
    if per_section != res.n_total or res.n_total != N:
        print(f"FAIL: section plans sum to {per_section}, composed "
              f"n_total={res.n_total}, requested {N}", file=sys.stderr)
        return 1
    print(f"OK: {N} injections partitioned exactly once across "
          f"{len(res.sections)} sections")
    return 0


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        _run(build(BENCHMARK, scale=SCALE), sys.argv[2])
        return 0

    tmp = tempfile.mkdtemp(prefix="repro-incremental-")
    built = build(BENCHMARK, scale=SCALE)
    rc = check_coverage(built)
    rc = rc or check_warm_hit(built, os.path.join(tmp, "warm.jsonl"))
    rc = rc or check_selective_invalidation(os.path.join(tmp, "edit.jsonl"))
    rc = rc or check_crash_resume(built, os.path.join(tmp, "crash.jsonl"))
    if rc == 0:
        print("PASS: incremental campaign cache checks all green")
    return rc


if __name__ == "__main__":
    sys.exit(main())
