"""Perf smoke check: the block cache must not be slower than the
interpreter, and the zero-taint fast path must actually pay off.

Runs the Section 9 workload under the full monitor and fails (exit 1)
when either property breaks:

* the cached path is slower than the per-instruction interpreter
  beyond a small noise margin;
* the dataflow fast path is not at least :data:`FASTPATH_SPEEDUP`
  faster than per-transfer template replay — or the two modes disagree
  on retired instructions or emitted warnings (they must be
  observationally identical; the exhaustive bit-identical check over
  all workloads lives in tests/harrier/test_blockcache_differential.py);
* a fleet over the full 62-workload sweep (:data:`FLEET_WORKERS`
  workers, fewer on smaller hosts) is not bit-identical to the serial
  sweep, or (on hosts with >= :data:`FLEET_WORKERS` CPUs) not at least
  :data:`FLEET_SPEEDUP` faster;
* in a 2-worker ``fork`` cluster sweep, a variant is resolved more than
  once or a distinct program assembled more than once, counted across
  the coordinator and both workers (the prepared handoff; structural
  counts, no wall clock);
* the provenance evidence recorder costs more than
  :data:`PROVENANCE_OVERHEAD` over a provenance-off run, turning it off
  changes retired instructions or warnings (modulo the ``evidence``
  payload itself), or any recorder entry point is called while it is
  off;
* on one Session over the 62-workload matrix, a libc block is
  translated more than once, or the number of taint summaries built
  differs from the number of blocks fully executed at least twice by a
  fast-path monitor (structural counts, no wall clock);
* on a warm Session running the Section 9 workload, block-cache
  lookups (one per dispatch) per retired instruction exceed
  :data:`SUPERBLOCK_DISPATCHES`, no superblock is resident, or a block
  is translated after the first run — superblock fusion must reuse
  translated blocks, never re-translate (structural counts, no wall
  clock);
* a warm verdict-cache hit on the Section 9 workload is not at least
  :data:`VERDICT_CACHE_SPEEDUP` times faster than executing it, is not
  bit-identical to the executed report, or the ``cache_*`` counter
  families are missing from the OpenMetrics exposition;
* the Rete engine is not at least :data:`RULE_ENGINE_SPEEDUP` faster
  than the naive full-rejoin matcher on the retained event stream, the
  two engines disagree on hits/fire-trace/agenda (the exhaustive
  differential lives in tests/secpert/test_rete_differential.py), or
  rete per-event match cost at 10k retained facts exceeds
  :data:`RULE_ENGINE_FLAT_RATIO` times its 100-fact cost (incremental
  matching must stay flat as working memory grows).

Designed for CI::

    PYTHONPATH=src python -m benchmarks.perf_smoke
    PYTHONPATH=src python -m benchmarks.perf_smoke verdict_cache  # one check

Prints the measured times and the speedups either way.  This is a smoke
test, not a benchmark — the real numbers live in
``benchmarks/results/BENCH_performance.json`` (bench_performance.py).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import time
from collections import Counter

from benchmarks.bench_performance import run_workload
from repro.fleet import run_fleet, workload_refs

#: Paired runs per engine (interleaved to cancel thermal/load drift).
REPS = 5

#: The cached path must be at least this fraction of interpreter speed.
#: 1.0 would assert "never slower at all", which is noise-prone on shared
#: CI runners; the real speedup target (>=1.25x) is asserted in the full
#: benchmark suite where reps are longer.
NOISE_MARGIN = 1.05

#: The dataflow fast path must beat per-transfer template replay by at
#: least this factor on the Section 9 workload (measured ~1.35-1.4x).
FASTPATH_SPEEDUP = 1.3
#: Interleaved best-of reps for that ratio: its margin over the gate is
#: a few percent, so best of 5 ~20-ms runs let one stall decide it.
FASTPATH_REPS = 15

#: Fleet gate: workers used (at most one per CPU), required speedup over
#: the serial sweep, and how many times the 62-workload table is
#: repeated so process spawn and queue overhead amortize into the
#: measurement.
FLEET_WORKERS = 4
FLEET_SPEEDUP = 2.0
FLEET_REPS = 3

#: The evidence recorder rides the existing event stream, so a
#: provenance-on run may cost at most this factor over provenance-off.
PROVENANCE_OVERHEAD = 1.5
#: Interleaved best-of reps for that ratio: one run is ~20 ms, so
#: 5 reps left single scheduler stalls in the best-of on 2-CPU hosts.
PROVENANCE_REPS = 25
#: ProvenanceRecorder methods a run calls into; provenance-off must
#: call none of them.
RECORDER_ENTRY_POINTS = (
    "__init__", "record_source", "observe_event", "observe_block",
    "evidence_for",
)

#: Block-cache lookups per retired instruction on the warm Section 9
#: workload: 0.291 before superblocks (~3.4 instructions per dispatch),
#: 0.153 with them.
SUPERBLOCK_DISPATCHES = 0.17
#: Runs on the warm Session after the translating one, the last counted
#: (inner loops fuse in the first run; chains entered 20 times a run
#: reach ``FUSE_AFTER`` a few runs later).
SUPERBLOCK_RUNS = 5

#: A warm verdict-cache hit (p50 over many lookups) must beat fresh
#: execution of the Section 9 workload by at least this factor — a hit
#: is one digest + one memory-LRU unpickle, execution is millions of
#: monitored guest ticks.
VERDICT_CACHE_SPEEDUP = 50.0
#: Hit-latency sample count for the p50 (cheap: no execution).
CACHE_HIT_SAMPLES = 25

#: The Rete engine must beat the naive full-rejoin matcher by at least
#: this factor on the retained event stream (measured >100x at 120
#: events — the gap widens with stream length, so the gate is modest).
RULE_ENGINE_SPEEDUP = 3.0
#: Retained events for the rule-engine stream gate (naive is quadratic
#: in this, keep it small enough to finish in seconds).
RULE_ENGINE_STREAM = 120
#: Rete per-event probe cost at the largest WM size may be at most this
#: factor over the smallest — "flat within noise" across 100x growth
#: (measured ~1.4x; the naive engine measures >400x on the same curve).
RULE_ENGINE_FLAT_RATIO = 3.0
#: Interleaved reps for the stream timing (naive is the slow side).
RULE_ENGINE_REPS = 3


def measure(name_a: str, name_b: str, reps: int = REPS) -> tuple:
    """Interleaved best-of-``reps`` wall time for two configurations.

    Best-of (not mean-of) so one scheduler hiccup on a shared runner
    cannot fail the gate.
    """
    best_a = float("inf")
    best_b = float("inf")
    # warm-up: first run pays import + assemble + translation costs
    run_workload(name_a)
    run_workload(name_b)
    for _ in range(reps):
        start = time.perf_counter()
        run_workload(name_a)
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        run_workload(name_b)
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def check_block_cache() -> int:
    cached, interp = measure("harrier-full", "harrier-full-interp")
    speedup = interp / cached if cached else float("inf")
    print(
        f"perf smoke: cached={cached * 1000:.2f} ms "
        f"interp={interp * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if cached > interp * NOISE_MARGIN:
        print(
            "FAIL: block-cache execution is slower than the "
            f"per-instruction interpreter (margin {NOISE_MARGIN}x)",
            file=sys.stderr,
        )
        return 1
    print("ok: block-cache execution is not slower than interpretation")
    return 0


def check_fastpath() -> int:
    # Equivalence first: same retired instructions, same warnings.
    fast_report = run_workload("harrier-fastpath")
    slow_report = run_workload("harrier-fastpath-off")
    if fast_report.result.instructions != slow_report.result.instructions:
        print(
            "FAIL: fast path retired "
            f"{fast_report.result.instructions} instructions, slow path "
            f"{slow_report.result.instructions}",
            file=sys.stderr,
        )
        return 1
    fast_warnings = sorted(repr(w) for w in fast_report.warnings)
    slow_warnings = sorted(repr(w) for w in slow_report.warnings)
    if fast_warnings != slow_warnings:
        print(
            "FAIL: fast path and slow path emitted different warnings:\n"
            f"  fast: {fast_warnings}\n  slow: {slow_warnings}",
            file=sys.stderr,
        )
        return 1
    fast, slow = measure(
        "harrier-fastpath", "harrier-fastpath-off", reps=FASTPATH_REPS
    )
    speedup = slow / fast if fast else float("inf")
    print(
        f"perf smoke: fastpath={fast * 1000:.2f} ms "
        f"slowpath={slow * 1000:.2f} ms "
        f"speedup={speedup:.2f}x"
    )
    if speedup < FASTPATH_SPEEDUP:
        print(
            "FAIL: dataflow fast path speedup "
            f"{speedup:.2f}x is below the {FASTPATH_SPEEDUP}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        "ok: dataflow fast path beats template replay "
        f"(>= {FASTPATH_SPEEDUP}x) with identical observable behaviour"
    )
    return 0


def check_fleet() -> int:
    """Sharded == serial bit-for-bit; >= FLEET_SPEEDUP on real cores."""
    cpus = os.cpu_count() or 1
    workers = min(FLEET_WORKERS, cpus)
    refs = workload_refs() * FLEET_REPS
    serial = run_fleet(refs, workers=1)
    fleet = run_fleet(refs, workers=workers)
    for report in (serial, fleet):
        if report.failures:
            print(
                "FAIL: fleet sweep had failing runs: "
                f"{[r.name for r in report.failures]}",
                file=sys.stderr,
            )
            return 1
    if json.dumps(serial.reports, sort_keys=True, default=str) != (
        json.dumps(fleet.reports, sort_keys=True, default=str)
    ):
        print(
            "FAIL: sharded fleet reports are not bit-identical to the "
            "serial sweep",
            file=sys.stderr,
        )
        return 1
    speedup = (
        serial.wall_seconds / fleet.wall_seconds
        if fleet.wall_seconds else float("inf")
    )
    print(
        f"perf smoke: fleet serial={serial.wall_seconds * 1000:.0f} ms "
        f"{workers} workers={fleet.wall_seconds * 1000:.0f} ms "
        f"speedup={speedup:.2f}x ({len(refs)} runs, bit-identical)"
    )
    if cpus < FLEET_WORKERS:
        print(
            f"note: host has {cpus} CPU(s) < {FLEET_WORKERS}; the "
            f"{FLEET_SPEEDUP}x fleet speedup gate only applies to "
            f"{FLEET_WORKERS} workers on as many CPUs"
        )
        return 0
    if speedup < FLEET_SPEEDUP:
        print(
            f"FAIL: fleet speedup {speedup:.2f}x is below the "
            f"{FLEET_SPEEDUP}x gate on a {cpus}-CPU host",
            file=sys.stderr,
        )
        return 1
    print(f"ok: fleet sweep scales (>= {FLEET_SPEEDUP}x) and is "
          "bit-identical to serial")
    return 0


def check_fleet_prepare() -> int:
    """One resolve per variant and one assemble per distinct program in
    a 2-worker fork cluster sweep, coordinator and workers together."""
    import multiprocessing

    import repro.core.engine as core_engine
    import repro.programs.base as programs_base
    from repro.advers import plan_sweep
    from repro.core.options import RunOptions
    from repro.fleet.refs import WorkloadRef

    if "fork" not in multiprocessing.get_all_start_methods():
        print("note: no fork start method on this host; fleet_prepare "
              "skipped (the prepared handoff is fork-only)")
        return 0
    refs = [planned.ref for planned in plan_sweep()]
    programs = {
        (w.program_path, w.source) for w in (r.resolve() for r in refs)
    }
    ctx = multiprocessing.get_context("fork")
    resolves, assembles = ctx.Value("i", 0), ctx.Value("i", 0)

    def counted(counter, fn, program=False):
        # Counters are fork-inherited shared memory, so calls made in
        # the workers count too.
        def wrapper(*args, **kwargs):
            if not program or tuple(args[:2]) in programs:
                with counter.get_lock():
                    counter.value += 1
            return fn(*args, **kwargs)
        return wrapper

    patches = [
        (WorkloadRef, "resolve", counted(resolves, WorkloadRef.resolve)),
        (core_engine, "assemble",
         counted(assembles, core_engine.assemble, program=True)),
        (programs_base, "assemble",
         counted(assembles, programs_base.assemble, program=True)),
    ]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        fleet = run_fleet(refs, options=RunOptions(wall_timeout=60.0),
                          workers=2, shard_by="cluster",
                          mp_start_method="fork")
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    print(
        f"perf smoke: fleet_prepare {len(refs)} variants "
        f"({len(programs)} distinct programs): resolve={resolves.value} "
        f"assemble={assembles.value} on 2 fork workers"
    )
    if fleet.failures:
        print(f"FAIL: fleet_prepare sweep had failing runs: "
              f"{[r.name for r in fleet.failures]}", file=sys.stderr)
        return 1
    if resolves.value != len(refs) or assembles.value != len(programs):
        print(
            f"FAIL: expected {len(refs)} resolves and {len(programs)} "
            "assembles — fork workers must run the coordinator's "
            "prepared workloads, not resolve and assemble them again",
            file=sys.stderr,
        )
        return 1
    print("ok: every variant resolved once and every program assembled "
          "once across the coordinator and its workers")
    return 0


@contextlib.contextmanager
def counting_calls(owner, names, key=None):
    """Count calls to each ``owner.<name>`` inside the block (restored
    on exit); yields the counter.  ``key(name, *args)`` picks the
    counter key of one call, None to skip it; by default the name."""
    counts = Counter()
    originals = {name: getattr(owner, name) for name in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            k = name if key is None else key(name, *args)
            if k is not None:
                counts[k] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(owner, name, counted(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)


def check_provenance() -> int:
    """Evidence trails are free to skip and cheap to keep."""
    from repro.telemetry.provenance import ProvenanceRecorder

    entry_points = (ProvenanceRecorder, RECORDER_ENTRY_POINTS)
    with counting_calls(*entry_points) as on_calls:
        on_report = run_workload("harrier-full")
    with counting_calls(*entry_points) as off_calls:
        off_report = run_workload("harrier-provenance-off")
    if not on_calls["__init__"]:
        print("FAIL: provenance-on built no recorder", file=sys.stderr)
        return 1
    if sum(off_calls.values()):
        print(
            "FAIL: provenance-off still called the recorder — the off "
            f"switch is not a no-op: {dict(off_calls)}",
            file=sys.stderr,
        )
        return 1
    if on_report.result.instructions != off_report.result.instructions:
        print(
            "FAIL: provenance-on retired "
            f"{on_report.result.instructions} instructions, "
            f"provenance-off {off_report.result.instructions}",
            file=sys.stderr,
        )
        return 1
    # Warnings must match modulo the evidence payload itself: the
    # recorder may annotate, never alter, what Secpert concludes.
    def strip(w):
        return re.sub(r"evidence=.*\)$", "evidence=...)", repr(w))

    on_warnings = sorted(strip(w) for w in on_report.warnings)
    off_warnings = sorted(strip(w) for w in off_report.warnings)
    if on_warnings != off_warnings:
        print(
            "FAIL: provenance on/off emitted different warnings "
            "(modulo evidence):\n"
            f"  on:  {on_warnings}\n  off: {off_warnings}",
            file=sys.stderr,
        )
        return 1
    on, off = measure(
        "harrier-full", "harrier-provenance-off", reps=PROVENANCE_REPS
    )
    ratio = on / off if off else float("inf")
    print(
        f"perf smoke: provenance-on={on * 1000:.2f} ms "
        f"provenance-off={off * 1000:.2f} ms "
        f"overhead={ratio:.2f}x (best of {PROVENANCE_REPS}); recorder "
        f"calls on={sum(on_calls.values())} off=0"
    )
    if ratio > PROVENANCE_OVERHEAD:
        print(
            f"FAIL: provenance recording costs {ratio:.2f}x, above the "
            f"{PROVENANCE_OVERHEAD}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        "ok: provenance recording stays under "
        f"{PROVENANCE_OVERHEAD}x with identical detections, and off "
        "never reaches the recorder"
    )
    return 0


def check_cold_path() -> int:
    """Library code is translated once per Session, and a block's taint
    summary is built only when it is re-entered.

    One Session over the 62-workload matrix.  Structural counts only,
    taken by wrapping ``translate_block`` (as bound in the block cache),
    the module-global ``summarize_taint`` and ``Harrier.on_block``.
    """
    import repro.harrier.blockcache as blockcache
    import repro.isa.translate as translate
    from repro.api import Session
    from repro.harrier.monitor import Harrier
    from repro.isa.memory import LIBRARY_BASE
    from repro.programs.libc import libc_image
    from repro.programs.registry import workloads

    libc_end = LIBRARY_BASE + libc_image().text_size

    def libc_block(_name, _memory, start, *_):
        return start if LIBRARY_BASE <= start < libc_end else None

    def full_execution(_name, harrier, _proc, rec):
        # Only a monitor running the fast path builds summaries.
        if (harrier._fastpath and harrier._track_df
                and rec.executed == rec.plan.length):
            return rec.plan
        return None

    session = Session()
    rows = workloads()
    with counting_calls(
        blockcache, ["translate_block"], key=libc_block
    ) as libc_translations, counting_calls(
        translate, ["summarize_taint"]
    ) as summaries, counting_calls(
        Harrier, ["on_block"], key=full_execution
    ) as full_runs:
        wrong = [
            w.name for w in rows
            if not w.classified_correctly(session.run_workload(w))
        ]
    built = summaries["summarize_taint"]
    reentered = sum(1 for n in full_runs.values() if n >= 2)
    repeats = {pc: n for pc, n in libc_translations.items() if n != 1}
    print(
        f"perf smoke: cold path over {len(rows)} workloads on one Session: "
        f"{len(libc_translations)} libc blocks translated "
        f"{sum(libc_translations.values())} times; {built} taint "
        f"summaries built, {reentered} of {len(full_runs)} fully executed "
        "blocks re-entered"
    )
    if wrong:
        print(f"FAIL: misclassified rows {wrong}", file=sys.stderr)
        return 1
    if not libc_translations or repeats:
        print(
            "FAIL: libc blocks must each be translated exactly once per "
            f"Session; retranslated: {sorted(repeats)[:10]}",
            file=sys.stderr,
        )
        return 1
    if built != reentered:
        print(
            f"FAIL: {built} taint summaries built for {reentered} "
            "re-entered blocks (must be equal: built on the second full "
            "execution, never before)",
            file=sys.stderr,
        )
        return 1
    print(
        "ok: libc translated once per Session, summaries built only for "
        "re-entered blocks"
    )
    return 0


def check_superblock() -> int:
    """Hot chains run as superblocks: fewer dispatches, no translation.

    One warm Session over the Section 9 workload.  Structural counts
    only: ``translate_block`` calls (as bound in the block cache), the
    store's lookup counters and the guest's retired instructions.
    """
    import repro.harrier.blockcache as blockcache
    from benchmarks.bench_performance import WORKLOAD_SOURCE
    from repro.api import Session

    session = Session()
    store = session.engine.block_caches
    with counting_calls(
        blockcache, ["translate_block"],
        key=lambda _name, _memory, start, *_: start,
    ) as first_run:
        session.run(WORKLOAD_SOURCE, path="/bin/perf")
    with counting_calls(blockcache, ["translate_block"]) as warm_runs:
        for _ in range(SUPERBLOCK_RUNS):
            before = store.stats()
            report = session.run(WORKLOAD_SOURCE, path="/bin/perf")
            after = store.stats()
    lookups = (after["hits"] + after["misses"]
               - before["hits"] - before["misses"])
    instructions = report.result.instructions
    ratio = lookups / instructions
    retranslated = sorted(pc for pc, n in first_run.items() if n != 1)
    print(
        f"perf smoke: superblocks on the warm Section 9 workload: "
        f"{lookups} lookups / {instructions} instructions = {ratio:.3f} "
        f"per instruction; {after['superblocks']} superblocks resident; "
        f"{len(first_run)} blocks translated "
        f"{sum(first_run.values())} times, then "
        f"{sum(warm_runs.values())} times in {SUPERBLOCK_RUNS} warm runs"
    )
    if report.exit_code != 0 or not report.warnings:
        print("FAIL: the Section 9 workload misbehaved", file=sys.stderr)
        return 1
    if retranslated or sum(warm_runs.values()):
        print(
            "FAIL: a block was translated again (superblock fusion must "
            f"reuse translated blocks): {retranslated[:10]}",
            file=sys.stderr,
        )
        return 1
    if not after["superblocks"] or ratio > SUPERBLOCK_DISPATCHES:
        print(
            f"FAIL: {ratio:.3f} block-cache lookups per instruction "
            f"(gate {SUPERBLOCK_DISPATCHES}) with "
            f"{after['superblocks']} superblocks resident",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: <= {SUPERBLOCK_DISPATCHES} dispatches per instruction on "
        "the warm Section 9 workload, and fusion translates nothing"
    )
    return 0


def check_verdict_cache() -> int:
    """Warm hits are bit-identical, ~free, and visible in OpenMetrics."""
    from benchmarks.bench_performance import WORKLOAD_SOURCE
    from repro.api import Session, VerdictCache
    from repro.telemetry.metrics import MetricsRegistry, render_openmetrics

    registry = MetricsRegistry()
    cached = Session(cache=VerdictCache(metrics=registry))
    fresh_report = cached.run(WORKLOAD_SOURCE, path="/bin/perf")

    # Fresh-execution baseline on a warm *uncached* session, so the
    # comparison is hit-vs-execution, not hit-vs-cold-translation.
    plain = Session()
    plain.run(WORKLOAD_SOURCE, path="/bin/perf")  # warm-up
    best_exec = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        plain.run(WORKLOAD_SOURCE, path="/bin/perf")
        best_exec = min(best_exec, time.perf_counter() - start)

    samples = []
    hit = None
    for _ in range(CACHE_HIT_SAMPLES):
        start = time.perf_counter()
        hit = cached.run(WORKLOAD_SOURCE, path="/bin/perf")
        samples.append(time.perf_counter() - start)
    hit_p50 = sorted(samples)[len(samples) // 2]

    if json.dumps(hit.to_dict(), sort_keys=True, default=str) != (
        json.dumps(fresh_report.to_dict(), sort_keys=True, default=str)
    ):
        print(
            "FAIL: the cached reply is not bit-identical to execution",
            file=sys.stderr,
        )
        return 1

    speedup = best_exec / hit_p50 if hit_p50 else float("inf")
    print(
        f"perf smoke: exec={best_exec * 1000:.2f} ms "
        f"warm-hit p50={hit_p50 * 1000:.3f} ms "
        f"speedup={speedup:.0f}x "
        f"({cached.cache.stats.hits} hits, "
        f"{cached.cache.stats.misses} miss)"
    )

    exposition = render_openmetrics(registry.samples())
    cache_lines = [
        line for line in exposition.splitlines()
        if line.startswith("cache_") or "TYPE cache_" in line
    ]
    print("perf smoke: OpenMetrics cache families:")
    for line in cache_lines:
        print(f"  {line}")
    for needle in ("cache_hits_total", "cache_misses_total"):
        if not any(needle in line for line in cache_lines):
            print(
                f"FAIL: {needle} missing from the OpenMetrics exposition",
                file=sys.stderr,
            )
            return 1

    if speedup < VERDICT_CACHE_SPEEDUP:
        print(
            f"FAIL: warm verdict-cache hit speedup {speedup:.0f}x is "
            f"below the {VERDICT_CACHE_SPEEDUP:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: warm verdict-cache hits are >= "
        f"{VERDICT_CACHE_SPEEDUP:.0f}x faster than execution and "
        "bit-identical"
    )
    return 0


def check_rule_engine() -> int:
    from benchmarks.bench_rule_engine import (
        RETE_WM_SIZES, build_engine, observe, probe_per_event, stream,
    )

    # Equivalence + end-to-end speedup on the retained event stream.
    best = {"rete": float("inf"), "naive": float("inf")}
    outcomes = {}
    for _ in range(RULE_ENGINE_REPS):
        for label, rete in (("rete", True), ("naive", False)):
            engine = build_engine(rete=rete)
            start = time.perf_counter()
            stream(engine, RULE_ENGINE_STREAM)
            best[label] = min(best[label], time.perf_counter() - start)
            outcomes[label] = observe(engine)
    if outcomes["rete"] != outcomes["naive"]:
        print(
            "FAIL: rete and naive engines disagree on "
            "hits/fire-trace/agenda for the stream workload",
            file=sys.stderr,
        )
        return 1
    speedup = best["naive"] / best["rete"] if best["rete"] else float("inf")
    print(
        f"perf smoke: rule-engine stream ({RULE_ENGINE_STREAM} events) "
        f"rete={best['rete'] * 1000:.1f} ms "
        f"naive={best['naive'] * 1000:.1f} ms "
        f"speedup={speedup:.0f}x"
    )
    if speedup < RULE_ENGINE_SPEEDUP:
        print(
            f"FAIL: rete speedup {speedup:.1f}x is below the "
            f"{RULE_ENGINE_SPEEDUP:.0f}x gate",
            file=sys.stderr,
        )
        return 1

    # Flat scaling: per-event probe cost across 100x WM growth.
    engine = build_engine(rete=True)
    per_event = {}
    grown = 0
    for size in RETE_WM_SIZES:
        stream(engine, size - grown, start=grown)
        grown = size
        per_event[size] = min(
            probe_per_event(engine) for _ in range(RULE_ENGINE_REPS)
        )
    small, large = RETE_WM_SIZES[0], RETE_WM_SIZES[-1]
    ratio = per_event[large] / per_event[small] if per_event[small] else 1.0
    print(
        "perf smoke: rete per-event cost "
        + " ".join(
            f"wm={size}:{per_event[size] * 1e6:.0f}us"
            for size in RETE_WM_SIZES
        )
        + f" flat-ratio={ratio:.2f}"
    )
    if ratio > RULE_ENGINE_FLAT_RATIO:
        print(
            f"FAIL: rete per-event cost grew {ratio:.2f}x from "
            f"{small} to {large} facts (gate "
            f"{RULE_ENGINE_FLAT_RATIO:.0f}x — matching is not flat)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: rete is >= {RULE_ENGINE_SPEEDUP:.0f}x faster than the "
        "naive matcher, observationally identical, and flat across "
        f"{large // small}x working-memory growth"
    )
    return 0


#: Name -> check, in default execution order (``perf_smoke <name>...``
#: runs a subset — the CI cache job runs just ``verdict_cache``).
CHECKS = {
    "block_cache": check_block_cache,
    "fastpath": check_fastpath,
    "fleet": check_fleet,
    "fleet_prepare": check_fleet_prepare,
    "provenance": check_provenance,
    "cold_path": check_cold_path,
    "superblock": check_superblock,
    "verdict_cache": check_verdict_cache,
    "rule_engine": check_rule_engine,
}


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(
            f"unknown check(s) {unknown}; available: {list(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        status = CHECKS[name]()
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
