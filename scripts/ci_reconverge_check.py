#!/usr/bin/env python3
"""Reconvergence early-exit acceptance check (DESIGN §18).

Two gates on a small benchmark, unprotected and fully duplicated:

1. **Exhaustive soundness** — every injectable index is replayed (one
   bit per index) against a golden state ledger holding every index
   as a grid point, at both layers, under seu/set/cf, on the decoded
   and codegen tiers; every early-exited draw is re-run as a full
   naive execution and must agree on status, output, trap kind, iid
   and asm metadata.
2. **Campaign identity** — a campaign on the default engine must have
   the same ``campaign_signature`` as on the engine without a ledger
   grid (``ledger.OFF``), on both layers, and must replay fewer suffix
   steps.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/ci_reconverge_check.py
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.fi.bench import campaign_signature  # noqa: E402
from repro.fi.campaign import (  # noqa: E402
    CampaignConfig, run_asm_campaign, run_ir_campaign,
)
from repro.fi.ledger import OFF, verify_reconvergence  # noqa: E402
from repro.pipeline import build  # noqa: E402
from repro.trace.observe import CampaignObserver  # noqa: E402

BENCHMARK = "crc32"
SCALE = "tiny"
LEVELS = (None, 100)
CAMPAIGN_N = 200
SEED = 11


def _kwargs(built, layer):
    if layer == "ir":
        return dict(module=built.module, layout=built.layout)
    return dict(program=built.compiled, layout=built.layout)


def _campaign(built, layer, ledger_config=None):
    obs = CampaignObserver()
    cfg = CampaignConfig(n_campaigns=CAMPAIGN_N, seed=SEED)
    if layer == "ir":
        res = run_ir_campaign(built.module, cfg, built.layout, observer=obs,
                              ledger_config=ledger_config)
    else:
        res = run_asm_campaign(built.compiled, built.layout, cfg,
                               observer=obs, ledger_config=ledger_config)
    return campaign_signature(res), obs.engine_counts()


def main() -> int:
    early_total = 0
    for level in LEVELS:
        t0 = time.monotonic()
        built = build(BENCHMARK, scale=SCALE, level=level)
        tag = f"{BENCHMARK}/{SCALE} level={level}"
        print(f"# {tag} built ({time.monotonic() - t0:.1f}s)")
        for layer in ("ir", "asm"):
            for fm in ("seu", "set", "cf"):
                for dispatch in ("decoded", "codegen"):
                    t1 = time.monotonic()
                    rep = verify_reconvergence(
                        layer, fault_model=fm, dispatch=dispatch,
                        **_kwargs(built, layer))
                    early_total += rep["reconverged"]
                    print(f"# {layer}/{fm}/{dispatch}: {rep['draws']} draws, "
                          f"{rep['reconverged']} early exits, "
                          f"{len(rep['violations'])} violations "
                          f"({time.monotonic() - t1:.1f}s)")
                    if rep["violations"]:
                        dyn, bit, status, grid = rep["violations"][0]
                        print(f"FAIL: {tag} {layer}/{fm}/{dispatch} "
                              f"dyn={dyn} bit={bit} exited at grid point "
                              f"{grid} but the naive run is {status}")
                        return 1
            off_sig, off = _campaign(built, layer, OFF)
            on_sig, on = _campaign(built, layer)
            if on_sig != off_sig:
                print(f"FAIL: {tag} {layer} campaign signature changes "
                      f"with reconvergence on")
                return 1
            if on["suffix_steps"] >= off["suffix_steps"]:
                print(f"FAIL: {tag} {layer} reconvergence saved no suffix "
                      f"steps ({on['suffix_steps']} vs "
                      f"{off['suffix_steps']})")
                return 1
            print(f"# {layer} campaign n={CAMPAIGN_N}: signature identical, "
                  f"{on['reconverged']}/{on['replays']} replays reconverged, "
                  f"suffix steps {off['suffix_steps']} -> "
                  f"{on['suffix_steps']}")
    if early_total == 0:
        print("FAIL: no replay reconverged (vacuous sweep)")
        return 1
    print(f"OK: {early_total} early exits, all identical to naive runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
