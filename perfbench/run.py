#!/usr/bin/env python3
"""The repository benchmark.

Run one workload and print its metrics; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 20
    python3 perfbench/run.py --workload long-trace --trace 1
    python3 perfbench/run.py --workload all        # one row per workload
    python3 perfbench/run.py --compare a.json b.json

``--trace 0`` (the default) measures the end-to-end metrics with no
tracing installed.  ``--trace 1`` runs the same rounds first untraced and
then traced, and prints the per-layer metrics, the tracing overhead and
the span coverage; spans go to ``.perfbench_out/`` as JSONL.  See
README.md for every metric's definition.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: seconds speed_sample() takes at the reference host speed; every
#: operation time is scaled to it (see README: host speed)
REFERENCE_SPEED_S = 0.010
#: set-up samples per run (this process plus fresh child processes)
SETUP_SAMPLES = 3
#: injections per kept campaign that the naive subsample check re-runs
NAIVE_PER_CAMPAIGN = 4
#: operations per run whose results the naive subsample check re-runs
NAIVE_OPS = 2
UNITS = {
    "setup_s": "s", "injections_per_s": "1/s", "op_s_p50": "s",
    "op_s_tail": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "cold_op_s_p50": "s", "warm_op_s_p50": "s",
}
END_TO_END = ("setup_s", "injections_per_s", "op_s_p50", "op_s_tail",
              "peak_rss_mb")


def _kernel_ops():
    def add(r, a):
        r[a & 15] = (r[(a + 1) & 15] + a) & 0xFFFFFFFF

    def mix(r, a):
        r[a & 15] ^= r[(a + 5) & 15] >> 3

    def load(r, a):
        r[a & 15] = r[r[(a + 2) & 15] & 15]

    return [add, mix, load, add]


_KERNEL_OPS = _kernel_ops()


def speed_sample():
    """Seconds a fixed pure-Python kernel takes right now.

    The kernel is the benchmark's own code (a closure-dispatch loop like
    the simulators' inner loops), so no program change moves it; what
    moves it is the host's speed, which on a shared machine drifts by
    +-30% over seconds.
    """
    ops = _KERNEL_OPS
    r = list(range(16))
    t0 = time.perf_counter()
    for i in range(30_000):
        ops[i & 3](r, i)
    return time.perf_counter() - t0


def pin_environment():
    """Clear every REPRO_* variable so the program runs on its defaults;
    returns what was cleared, to be recorded with the results."""
    return {k: os.environ.pop(k) for k in sorted(os.environ)
            if k.startswith("REPRO_")}


def import_program():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    # every module a workload calls into, so importing is set-up time
    import repro.experiments  # noqa: F401
    import repro.fi.compose  # noqa: F401


def quantile(values, q):
    """Inclusive linear-interpolation quantile, 0 <= q <= 1."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_round):
    """The highest whole percentile with at least ten operations of one
    round beyond it.  Fixed by the workload's round, so a run that fits
    one more round reports the same percentile."""
    return max(50, 100 - (1000 + ops_per_round - 1) // ops_per_round)


def environment(cleared):
    from repro.contain import containment_enabled
    from repro.fi.engine import engine_dispatch, engine_enabled

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return {
        "tier": engine_dispatch(), "engine": engine_enabled(),
        "contain": containment_enabled(), "cleared_env": cleared,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_commit": commit,
        "src_digest": h.hexdigest()[:16],
    }


# -- the measured loop -------------------------------------------------------

class Run:
    def __init__(self, wl, n_keep, rng):
        self.wl = wl
        #: round-0 operations that keep their builds for the naive check
        self.keep_ids = set()
        self.n_keep = n_keep
        self.rng = rng
        self.ops = []          # (round, op_id, seconds, OpResult or None)
        self.round_walls = []  # (round, traced, seconds)
        self.errors = []
        self.journal_bytes = []
        #: speed_sample() before and after every operation
        self.speed = []
        #: peak RSS when the first round ends (see README: peak_rss_mb)
        self.peak_rss_mb = None

    def round(self, r, tracer=None):
        from workloads import make_workdir

        workdir = make_workdir(os.path.join(
            OUT_DIR, f"work-{os.getpid()}", f"round-{r}"))
        ops = self.wl.round_ops(workdir)
        if r == 0 and self.n_keep:
            pick = self.rng.choice(len(ops), size=self.n_keep, replace=False)
            self.keep_ids = {ops[i].op_id for i in pick.tolist()}
        start = time.perf_counter()
        before = speed_sample()
        for op in ops:
            if tracer is not None:
                tracer.op = f"{r}:{op.op_id}"
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception:  # an operation that raises counts as failed
                raw = None
                self.errors.append(f"round {r} {op.op_id}: raised\n"
                                   + traceback.format_exc())
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
                tracer.windows.append((f"{r}:{op.op_id}", t0, t0 + dt))
            res = None if raw is None else op.summarize(
                raw, r == 0 and op.op_id in self.keep_ids)
            self.ops.append((r, op.op_id, dt, res))
            after = speed_sample()
            self.speed.append((before, after))
            before = after
        wall = time.perf_counter() - start
        self.round_walls.append((r, tracer is not None, wall))
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        jdir = os.path.join(workdir, "journals")
        self.journal_bytes.append(sum(
            os.path.getsize(os.path.join(jdir, f))
            for f in os.listdir(jdir)) if os.path.isdir(jdir) else 0)
        shutil.rmtree(os.path.dirname(workdir))
        return wall

    def loop(self, first_round, seconds, tracer=None):
        """Whole rounds until ``seconds`` is used up (at least one)."""
        r = first_round
        elapsed = 0.0
        while True:
            wall = self.round(r, tracer)
            elapsed += wall
            r += 1
            if elapsed + 0.5 * wall >= seconds:
                return r


def check(run, wl, seed):
    """Untimed output checks; returns {(round, op id): [messages]} for
    every failed operation."""
    import numpy as np

    import reference
    from workloads import DEFAULT_SEED

    failed = {}

    def fail(key, msg):
        failed.setdefault(key, []).append(msg)

    first = {}
    for r, op_id, _, res in run.ops:
        key = (r, op_id)
        if res is None:
            fail(key, "raised")
            continue
        if res.sig.get("unclassified"):
            fail(key, f"{res.sig['unclassified']} samples unclassified")
        d = reference.digest(res.sig)
        if op_id in first and first[op_id] != d:
            fail(key, f"{op_id}: result differs from round 0")
        first.setdefault(op_id, d)
        if res.cold is not None:
            for msg in reference.store_counter_errors(op_id, res.sig):
                fail(key, msg)
    if seed == DEFAULT_SEED:
        try:
            want = reference.committed_digests(wl.name, seed)
        except (OSError, KeyError) as exc:
            want = None
            fail((0, "*"), f"no committed digests: {exc!r}")
        if want is not None:
            for op_id, d in first.items():
                if want.get(op_id) != d:
                    fail((0, op_id), f"{op_id}: digest differs from the "
                                     f"committed naive-tier reference")
    else:
        rng = np.random.default_rng([seed, 99])
        for r, op_id, _, res in run.ops:
            if r != 0 or res is None or op_id not in run.keep_ids:
                continue
            errs = reference.check_samples(res.samples, rng,
                                           NAIVE_PER_CAMPAIGN)
            if res.replay is not None:
                errs += reference.check_incremental(res.replay, res.sig)
            for msg in errs:
                fail((0, op_id), msg)
    for msg in run.errors:
        sys.stderr.write(msg + "\n")
    for key, msgs in failed.items():
        for msg in msgs:
            sys.stderr.write(f"perfbench: FAILED {key[1]} (round {key[0]}): "
                             f"{msg}\n")
    return failed


def setup_probe(args):
    """Child mode: set up once and print the set-up seconds."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    print(f"setup_s {time.perf_counter() - T_START!r}")
    return 0


def setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def op_metrics(run, traced=False):
    picked = [i for i, (r, *_) in enumerate(run.ops)
              if any(rw[0] == r and rw[1] == traced for rw in run.round_walls)]
    # each operation is scaled by the host speed measured right before
    # and right after it: the speed drifts within seconds
    rows = [(run.ops[i][2] * 2 * REFERENCE_SPEED_S / sum(run.speed[i]),
             run.ops[i][3]) for i in picked]
    times = [dt for dt, _ in rows]
    host = [run.ops[i][2] for i in picked]
    cold = [dt for dt, res in rows if res is not None and res.cold]
    warm = [dt for dt, res in rows if res is not None and res.cold is False]
    outcomes = sum(res.outcomes for _, res in rows if res is not None)
    p = tail_percentile(sum(1 for r, *_ in run.ops if r == run.ops[0][0]))
    tail_v = quantile(times, p / 100)
    beyond = sum(1 for t in times if t > tail_v)
    return {
        "injections_per_s": outcomes / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_v,
        "tail_pct": p, "tail_beyond": beyond, "ops": len(times),
        "cold_op_s_p50": statistics.median(cold) if cold else 0.0,
        "warm_op_s_p50": statistics.median(warm) if warm else 0.0,
        "cold_ops": len(cold), "warm_ops": len(warm),
        "host_op_s_p50": statistics.median(host),
        "host_injections_per_s": outcomes / sum(host),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", default="all",
                        help="paper-cells, long-trace, store-edit or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full document here")
    parser.add_argument("--compare", nargs=2, metavar="DOC",
                        help="compare two --out documents")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    cleared = pin_environment()
    import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args, cleared)


def run_one(args, cleared):
    import numpy as np

    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    own_setup = time.perf_counter() - T_START
    # the default seed is checked against committed digests instead
    run = Run(wl, 0 if args.seed == DEFAULT_SEED else NAIVE_OPS,
              np.random.default_rng([args.seed, 98]))
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        n_untraced = run.loop(0, args.seconds / 2)
        tracer.install()
        try:
            run.loop(n_untraced, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        run.loop(0, args.seconds)
    failed = check(run, wl, args.seed)
    doc = {"params": wl.params, "environment": environment(cleared)}
    if args.trace:
        values, drift, table, where = layer_metrics(run, tracer)
        for msg in drift:
            sys.stderr.write(f"perfbench: FAILED {msg}\n")
            failed[(-1, msg)] = [msg]
        units = dict(PER_LAYER)
        names = [k for k, _ in PER_LAYER]
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}")
        tracer.write_jsonl(stem + "-spans.jsonl", T_START)
        print(f"self time per span, summed over "
              f"{sum(1 for rw in run.round_walls if rw[1])} traced round(s):")
        for name, secs in table:
            print(f"  {name:24s} {secs:10.4f} s")
        for k in names:
            print(f"{k:28s} {values[k]:14.6g} {units[k]}")
        print(f"largest uncovered gap: {values['trace.gap_s']:.4f} s "
              f"({where})")
        print(f"spans: {stem}-spans.jsonl")
    else:
        values = op_metrics(run)
        values["setup_samples"] = setup_samples(args, own_setup)
        values["setup_s"] = statistics.median(values["setup_samples"])
        values["peak_rss_mb"] = run.peak_rss_mb
        values["failed_frac"] = len(failed) / len(run.ops)
        units = UNITS
        names = list(END_TO_END)
        print_header()
        print_row(wl.name, values)
    print("environment: " + json.dumps(doc["environment"]))
    doc.update(values=values, attempted=len(run.ops), failed=len(failed),
               ops=[[r, op_id, dt, *sp] for (r, op_id, dt, _), sp
                    in zip(run.ops, run.speed)])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failed, "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in names},
    }))
    return 0 if not failed else 1


# -- per-layer metrics from the traced rounds ---------------------------------

#: every per-layer metric the traced run prints, with its unit
PER_LAYER = [
    ("frontend.compile_s", "s"),
    ("planner.profile_s", "s"), ("planner.profile_runs", "count"),
    ("protection.protect_s", "s"),
    ("backend.lower_s", "s"), ("backend.asm_insts", "count"),
] + [
    (f"{sim}.{m}", u) for sim in ("interp", "machine") for m, u in (
        ("golden_s", "s"), ("golden_runs", "count"), ("stream_s", "s"),
        ("stream_runs", "count"), ("replay_s", "s"), ("replays", "count"),
        ("replay_steps", "count"), ("full_s", "s"), ("full_runs", "count"),
        ("steps_per_s", "steps/s"))
] + [
    ("sim.prepare_s", "s"),
    ("engine.suffix_frac", "ratio"), ("engine.simulated_steps", "count"),
    ("campaign.classify_s", "s"),
    ("journal.records", "count"), ("journal.record_s", "s"),
    ("journal.fsyncs", "count"), ("journal.fsync_s", "s"),
    ("journal.bytes", "B"), ("journal.resumed_rows", "count"),
    ("store.open_s", "s"), ("store.open_bytes", "B"),
    ("store.refresh_s", "s"), ("store.commit_s", "s"),
    ("store.lock_acquires", "count"), ("store.lock_wait_s", "s"),
    ("store.fsyncs", "count"), ("store.fsync_s", "s"),
    ("store.hit_ratio", "ratio"), ("store.simulated", "count"),
    ("store.quarantined", "count"),
    ("sections.map_s", "s"), ("sections.count", "count"),
    ("rootcause.classify_s", "s"),
    ("cold_op_s_p50", "s"), ("warm_op_s_p50", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"), ("trace.gap_s", "s"),
    ("trace.spans", "count"),
]

#: per-layer counts that must repeat exactly between rounds and runs
EXACT = [name for name, unit in PER_LAYER
         if unit in ("count", "B") and not name.startswith(("trace.",
                                                            "store.open"))]


def _round_layer_metrics(spans, idxs, child):
    def pick(name):
        return [i for i in idxs if spans[i].name == name]

    def total(*names):
        return sum(spans[i].dur for n in names for i in pick(n))

    def self_time(name):
        return sum(spans[i].dur - child[i] for i in pick(name))

    def attr(name, key):
        return sum(spans[i].attrs.get(key) or 0 for i in pick(name))

    def under(i, name):
        i = spans[i].parent
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    def fsyncs(part):
        hit = [i for i in pick("fsync")
               if f"{os.sep}{part}{os.sep}" in spans[i].attrs.get("path", "")]
        return len(hit), sum(spans[i].dur for i in hit)

    m = {
        "frontend.compile_s": total("compile_source"),
        "planner.profile_s": total("profile_module"),
        "planner.profile_runs": sum(
            1 for i in idxs if spans[i].name.endswith((".full", ".golden"))
            and under(i, "profile_module")),
        "protection.protect_s": total("protect"),
        "backend.lower_s": total("lower_module", "compile_program"),
        "backend.asm_insts": attr("compile_program", "insts"),
        "sim.prepare_s": total("prepare"),
        "campaign.classify_s": total("classify_outcome"),
        "journal.records": len(pick("journal.record")),
        "journal.record_s": total("journal.record"),
        "journal.resumed_rows": attr("journal.open", "resumed"),
        "store.open_s": total("store.open"),
        "store.open_bytes": attr("store.open", "bytes"),
        "store.refresh_s": total("store.refresh"),
        "store.commit_s": total("store.commit"),
        "store.lock_acquires": len(pick("lock.acquire")),
        "store.lock_wait_s": total("lock.acquire"),
        "sections.map_s": total("cached_site_map"),
        "sections.count": attr("cached_site_map", "sections"),
        "rootcause.classify_s": total("classify_campaign"),
    }
    m["journal.fsyncs"], m["journal.fsync_s"] = fsyncs("journals")
    m["store.fsyncs"], m["store.fsync_s"] = fsyncs("store")
    suffix = golden = 0
    for sim in ("interp", "machine"):
        steps = secs = 0.0
        for kind, runs_key in (("golden", "golden_runs"),
                               ("stream", "stream_runs"),
                               ("replay", "replays"), ("full", "full_runs")):
            name = f"{sim}.{kind}"
            m[f"{sim}.{kind}_s"] = self_time(name)
            m[f"{sim}.{runs_key}"] = len(pick(name))
            steps += attr(name, "steps")
            secs += m[f"{sim}.{kind}_s"]
        m[f"{sim}.replay_steps"] = attr(f"{sim}.replay", "steps")
        m[f"{sim}.steps_per_s"] = steps / secs if secs else 0.0
        for i in pick(f"{sim}.replay"):
            if spans[i].attrs.get("golden_len"):
                suffix += spans[i].attrs["steps"]
                golden += spans[i].attrs["golden_len"]
    m["engine.suffix_frac"] = suffix / golden if golden else 0.0
    m["engine.simulated_steps"] = sum(
        spans[i].attrs.get("steps", 0) for i in idxs
        if spans[i].name.endswith((".stream", ".replay")))
    return m


def layer_metrics(run, tracer):
    """Per-layer metrics averaged over the traced rounds, plus a list of
    deterministic counts that drifted between them."""
    from tracer import coverage, self_times

    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    traced = [r for r, t, _ in run.round_walls if t]
    untraced = [r for r, t, _ in run.round_walls if not t]
    per_round = []
    for r in traced:
        idxs = [i for i, s in enumerate(spans)
                if s.op is not None and s.op.startswith(f"{r}:")]
        m = _round_layer_metrics(spans, idxs, child)
        results = [res for rr, _, _, res in run.ops
                   if rr == r and res is not None and res.store]
        sections = sum(res.store[0] for res in results)
        m["store.hit_ratio"] = (sum(res.store[1] for res in results)
                                / sections if sections else 0.0)
        m["store.simulated"] = sum(res.store[2] for res in results)
        m["store.quarantined"] = sum(res.store[3] for res in results)
        m["journal.bytes"] = run.journal_bytes[
            [rw[0] for rw in run.round_walls].index(r)]
        per_round.append(m)
    drift = [f"count {k} drifted between traced rounds: "
             f"{[m[k] for m in per_round]}"
             for k in EXACT if len({m[k] for m in per_round}) > 1]
    out = {k: statistics.fmean(m[k] for m in per_round)
           for k in per_round[0]}
    ops = op_metrics(run, traced=False)
    out["cold_op_s_p50"] = ops["cold_op_s_p50"]
    out["warm_op_s_p50"] = ops["warm_op_s_p50"]

    def scaled_round(r):
        # speed-scaled like the end-to-end times, so host drift between
        # the untraced and the traced rounds does not read as overhead
        return sum(dt * 2 * REFERENCE_SPEED_S / sum(sp) for (rr, _, dt, _), sp
                   in zip(run.ops, run.speed) if rr == r)

    t_wall = statistics.fmean(scaled_round(r) for r in traced)
    u_wall = statistics.fmean(scaled_round(r) for r in untraced)
    out["trace.overhead_s"] = t_wall - u_wall
    out["trace.overhead_frac"] = (t_wall - u_wall) / u_wall
    share, gap, where = coverage(spans, tracer.windows)
    out["trace.coverage"] = share
    out["trace.gap_s"] = gap
    out["trace.spans"] = len(spans) / len(traced)
    table = sorted(self_times(spans, lambda s: s.op is not None).items(),
                   key=lambda kv: -kv[1])
    return out, drift, table, where


# -- reporting ------------------------------------------------------------------

ROW_COLUMNS = ("setup_s", "injections_per_s", "op_s_p50", "op_s_tail",
               "peak_rss_mb", "failed_frac", "cold_op_s_p50",
               "warm_op_s_p50")


def print_header():
    print(f"{'workload':12s} " + " ".join(
        f"{c + ' [' + UNITS[c] + ']':>22s}" for c in ROW_COLUMNS)
        + "  tail")


def print_row(name, m):
    cells = []
    for c in ROW_COLUMNS:
        if c in ("cold_op_s_p50", "warm_op_s_p50") and \
                not (m["cold_ops"] and m["warm_ops"]):
            cells.append(f"{'-':>22s}")
        else:
            cells.append(f"{m[c]:22.6g}")
    print(f"{name:12s} " + " ".join(cells)
          + f"  p{m['tail_pct']} ({m['tail_beyond']} beyond, "
            f"{m['ops']} ops)")


def compare(path_a, path_b):
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    if a["params"] != b["params"]:
        print("perfbench: refusing to compare: workload parameters differ")
        for k in sorted(set(a["params"]) | set(b["params"])):
            if a["params"].get(k) != b["params"].get(k):
                print(f"  {k}: {a['params'].get(k)!r} != "
                      f"{b['params'].get(k)!r}")
        return 2
    print(f"{'metric':28s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for k in sorted(set(a["values"]) & set(b["values"])):
        va, vb = a["values"][k], b["values"][k]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            ratio = f"{vb / va:8.3f}" if va else f"{'-':>8s}"
            print(f"{k:28s} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def run_all(args):
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    ok = True
    rows = {}
    for name in WORKLOADS:
        out = os.path.join(OUT_DIR, f"{name}-seed{args.seed}.json")
        if os.path.exists(out):
            os.remove(out)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", out],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0
        if not os.path.exists(out):
            sys.stderr.write(f"perfbench: {name} produced no result\n")
            ok = False
            continue
        with open(out, encoding="utf-8") as fh:
            rows[name] = json.load(fh)
    if args.trace:
        for name, doc in rows.items():
            print(f"== {name}")
            for k, _ in PER_LAYER:
                print(f"  {k:28s} {doc['values'][k]:.6g}")
    else:
        print_header()
        for name, doc in rows.items():
            print_row(name, doc["values"])
    print(json.dumps({
        "correct": ok,
        "attempted": sum(d["attempted"] for d in rows.values()),
        "failed": sum(d["failed"] for d in rows.values()),
        "workloads": {n: d["params"] for n, d in rows.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
