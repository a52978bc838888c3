"""The four benchmark workloads.

Each workload runs in a fresh interpreter and goes through four phases:

``setup()``
    Everything a user pays before the first operation: importing the
    ``repro`` modules it needs, starting a Session or the serve daemon,
    warming up.  Timed as ``setup_s``.  ``repro`` is imported here and
    nowhere earlier, so the import cost lands in set-up.
``generate()``
    The benchmark's own inputs, made from the seed.  Untimed.
``timed(seconds)``
    The closed loop.  Every operation's outcome is checked against the
    registry's expectation; a wrong verdict counts as a failed operation.
``traced(tracer, timed)``
    Per-layer attribution (see ``README.md``).  Returns
    ``{per-layer metric: value}`` for the layers this workload crosses;
    the caller fills the rest with 0.

Time is ``time.perf_counter``; latencies are per operation, in seconds.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from hthbench.calibration import HostSpeed, WorkerSpeed
from hthbench.tracing import Tracer

clock = time.perf_counter

#: Run outputs (daemon socket, Chrome traces), relative to the checkout.
OUT_DIR = ".hthbench_out"

#: The §9 program, verbatim from ``benchmarks/bench_performance.py``
#: (``WORKLOAD_SOURCE``).  Kept here so that an edit to the test-suite
#: bench cannot silently change this benchmark's input;
#: ``test_hthbench.py`` checks that the two still agree.
S9_SOURCE = """
main:
    mov edi, 0
outer:
    cmp edi, 20
    jge io_phase
    mov ebx, buf
    mov ecx, text
    call strcpy
    mov ebx, buf
    call strlen
    add edi, 1
    jmp outer
io_phase:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov edi, 0
write_loop:
    cmp edi, 10
    jge done
    mov ebx, esi
    mov ecx, text
    call fputs
    add edi, 1
    jmp write_loop
done:
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
path: .asciz "/tmp/out"
text: .asciz "the quick brown fox jumps over the lazy dog"
buf:  .space 64
"""
S9_PATH = "/bin/perf"
S9_RULES = ("check_binary_to_file",)

#: Closed-loop callers for the fleet and the daemon: the 2-CPU host.
WORKERS = 2


@dataclass
class Timed:
    """What one timed window produced.

    ``latencies`` and ``wall`` are as measured (``wall`` without the time
    spent calibrating); ``scales`` (one per latency) and ``scaled_wall``
    convert them to reference host speed (see ``calibration.py``).
    """

    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    #: When each latency was recorded (``clock()``), for ``host.scale``.
    stamps: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    wall: float = 0.0
    scaled_wall: float = 0.0
    failures: List[str] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)
    #: Workload-specific extras the traced phase reads.
    extra: Dict[str, object] = field(default_factory=dict)

    def record(self, latency: Optional[float], error: Optional[str]) -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.stamps.append(clock())
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(error)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def scale_by_host(self) -> None:
        """Scale each latency by the host samples next to it, and the
        wall time by their latency-weighted mean."""
        self.scales = [self.host.scale(stamp) for stamp in self.stamps]
        self.scaled_wall = self.wall * sum(
            lat * scale for lat, scale in zip(self.latencies, self.scales)
        ) / sum(self.latencies)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1), interpolating linearly; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def mismatch(verdict: str, fired, expected: str, rules: Sequence[str],
             what: str) -> Optional[str]:
    """Why a verdict and the rules that fired miss the expectation (the
    verdict, and rules that must be among those fired), or None."""
    if verdict != expected:
        return f"{what}: verdict {verdict} expected {expected}"
    missing = [rule for rule in rules if rule not in fired]
    if missing:
        return f"{what}: expected rules {missing} did not fire"
    return None


def report_mismatch(report: Dict[str, object], expected: str,
                    rules: Sequence[str], what: str) -> Optional[str]:
    """:func:`mismatch` for a report in wire form (``RunReport.to_dict``)."""
    fired = {str(w["rule"]) for w in report.get("warnings") or ()}
    return mismatch(str(report.get("verdict")), fired, expected, rules, what)


# -- per-layer assembly ------------------------------------------------------

#: per-layer metric -> (tracer layer, field): calls or self seconds of the
#: layer's spans, divided by the operations in the traced pass.
SPAN_METRICS = {
    "isa.assemble_calls": ("isa.assemble", "calls"),
    "isa.assemble_s": ("isa.assemble", "self_s"),
    "isa.translate_blocks": ("isa.translate", "calls"),
    "isa.translate_s": ("isa.translate", "self_s"),
    "isa.summarize_s": ("isa.summarize", "self_s"),
    "kernel.load_calls": ("kernel.load", "calls"),
    "kernel.load_s": ("kernel.load", "self_s"),
    "kernel.run_self_s": ("kernel.run", "self_s"),
    "secpert.build_s": ("secpert.build", "self_s"),
    "secpert.analyze_calls": ("secpert.analyze", "calls"),
    "secpert.analyze_s": ("secpert.analyze", "self_s"),
    "core.machine_self_s": ("core.machine", "self_s"),
    "core.report_encode_s": ("core.report_encode", "self_s"),
    "programs.mutate_s": ("programs.mutate", "self_s"),
}


def attribute(tracer: Tracer, snapshot, ops: int) -> Dict[str, float]:
    """Per-operation layer metrics from the tracer's spans and the merged
    telemetry snapshot of the same operations."""
    ops = max(ops, 1)
    totals = tracer.layer_totals()
    out = {
        name: totals[layer][key] / ops
        for name, (layer, key) in SPAN_METRICS.items()
    }
    if snapshot is None:
        return out
    total = snapshot.metric_total
    instr = total("cpu_instructions_total")
    hits = total("blockcache_hits_total")
    misses = total("blockcache_misses_total")
    fast = total("harrier_fastpath_blocks")
    slow = total("harrier_slowpath_blocks")
    match_s = sum(
        float(s.get("sum") or 0.0) for s in snapshot.metrics
        if s["name"] == "secpert_match_seconds"
    )
    stages = (snapshot.profile or {}).get("stage_seconds", {})
    out.update({
        "isa.instructions": instr / ops,
        "kernel.syscalls": total("kernel_syscalls_total") / ops,
        "harrier.dispatches_per_instr": (
            (hits + misses) / instr if instr else 0.0
        ),
        "harrier.blockcache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "harrier.fastpath_ratio": fast / (fast + slow) if fast + slow else 0.0,
        "harrier.bbfreq_s": float(stages.get("bbfreq", 0.0)) / ops,
        "harrier.dataflow_s": float(stages.get("dataflow", 0.0)) / ops,
        "harrier.analysis_s": float(stages.get("analysis", 0.0)) / ops,
        "harrier.events": total("harrier_events_emitted_total") / ops,
        "secpert.match_s": match_s / ops,
        "secpert.facts": total("secpert_facts_asserted_total") / ops,
    })
    return out


def merged(reports) -> object:
    """One telemetry snapshot over many reports (the program's own merge)."""
    from repro.telemetry import TelemetrySnapshot

    return TelemetrySnapshot.merged([r.telemetry for r in reports])


def traced_options():
    """Run options of the traced passes: counters and stage profile on."""
    from repro.core.options import RunOptions

    return RunOptions(metrics=True, profile=True)


# -- steady_s9 ---------------------------------------------------------------

class SteadyS9:
    """The §9 program, repeated on one warm Session (steady regime)."""

    name = "steady_s9"
    #: Warm-up runs: the first run translates every block.
    WARMUP = 5
    #: Monitored/native pairs for the §9 reference figure.
    NATIVE_PAIRS = 40
    #: Operations in the traced pass.
    TRACED_OPS = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the §9 program is fixed; the seed changes nothing

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session()
        for _ in range(self.WARMUP):
            self._run(self.session)

    def generate(self, seconds: float) -> None:
        pass

    def _run(self, session, options=None):
        return session.run(S9_SOURCE, path=S9_PATH, options=options)

    def _check(self, report) -> Optional[str]:
        fired = sorted({w.rule for w in report.warnings})
        error = mismatch(report.verdict.value, fired, "high", S9_RULES,
                         S9_PATH)
        if error is None and fired != sorted(S9_RULES):
            error = f"{S9_PATH}: warning rules {fired}"
        if error is None and report.exit_code != 0:
            error = f"{S9_PATH}: exit code {report.exit_code}"
        return error

    def timed(self, seconds: float) -> Timed:
        out = Timed()
        start = clock()
        out.host.sample()
        end = start
        while end < start + seconds:
            t0 = clock()
            report = self._run(self.session)
            out.record(clock() - t0, self._check(report))
            out.host.sample()
            end = clock()
        out.wall = end - start - out.host.spent
        out.host.sample()
        out.scale_by_host()
        return out

    def traced(self, tracer: Tracer, timed: Timed) -> Dict[str, float]:
        from repro.api import Session
        from repro.core.engine import EngineCache
        from repro.core.hth import HTH

        # The paper's §9 figure: monitored vs unmonitored, interleaved,
        # both on warm engines, tracing off.
        native_engine = EngineCache()
        HTH(monitored=False, engine=native_engine).run(
            native_engine.image(S9_PATH, S9_SOURCE)
        )
        monitored, native = [], []
        for _ in range(self.NATIVE_PAIRS):
            t0 = clock()
            self._run(self.session)
            t1 = clock()
            HTH(monitored=False, engine=native_engine).run(
                native_engine.image(S9_PATH, S9_SOURCE)
            )
            native.append(clock() - t1)
            monitored.append(t1 - t0)

        options = traced_options()
        session = Session()
        for _ in range(self.WARMUP):
            self._run(session, options)
        reports, latencies = [], []
        with tracer:
            for _ in range(self.TRACED_OPS):
                tracer.begin_op()
                t0 = clock()
                reports.append(self._run(session, options))
                latencies.append(clock() - t0)
        for report in reports:
            timed.record(None, self._check(report))
        out = attribute(tracer, merged(reports), len(reports))
        out.update({
            "kernel.native_ms_p50": percentile(native, 0.5) * 1e3,
            "harrier.slowdown_vs_native": (
                percentile(monitored, 0.5) / percentile(native, 0.5)
            ),
            "telemetry.trace_overhead": (
                percentile(latencies, 0.5)
                / percentile(timed.latencies, 0.5)
            ),
        })
        return out

    def close(self) -> None:
        pass


# -- cold_matrix --------------------------------------------------------------

class ColdMatrix:
    """Every registry workload once per pass, each on a fresh Session."""

    name = "cold_matrix"
    TRACED_PASSES = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.api import Session
        from repro.programs.registry import workloads

        self.Session = Session
        self.workloads = workloads()
        for workload in self.workloads:  # warm-up pass
            Session().run_workload(workload)

    def generate(self, seconds: float) -> None:
        """Seeded pass orders: every pass runs every workload once."""
        self.rng = random.Random(f"cold_matrix|{self.seed}")

    def _pass_order(self) -> list:
        order = list(self.workloads)
        self.rng.shuffle(order)
        return order

    def _run(self, workload, options=None):
        report = self.Session().run_workload(workload, options=options)
        if workload.classified_correctly(report):
            return report, None
        return report, (
            f"{workload.name}: verdict {report.verdict.value} expected "
            f"{workload.expected_verdict.value} with rules "
            f"{list(workload.expected_rules)}"
        )

    def timed(self, seconds: float) -> Timed:
        out = Timed()
        start = clock()
        out.host.sample()
        end = start
        while end < start + seconds:  # whole passes only
            for workload in self._pass_order():
                t0 = clock()
                _, error = self._run(workload)
                out.record(clock() - t0, error)
                out.host.sample()
            end = clock()
        out.wall = end - start - out.host.spent
        out.host.sample()
        out.scale_by_host()
        return out

    def traced(self, tracer: Tracer, timed: Timed) -> Dict[str, float]:
        options = traced_options()
        reports, latencies = [], []
        with tracer:
            for _ in range(self.TRACED_PASSES):
                for workload in self._pass_order():
                    tracer.begin_op()
                    t0 = clock()
                    report, error = self._run(workload, options)
                    latencies.append(clock() - t0)
                    reports.append(report)
                    timed.record(None, error)
        out = attribute(tracer, merged(reports), len(reports))
        out["telemetry.trace_overhead"] = (
            percentile(latencies, 0.5) / percentile(timed.latencies, 0.5)
        )
        return out

    def close(self) -> None:
        pass


# -- sweep_fleet --------------------------------------------------------------

class SweepFleet:
    """``repro.advers.run_sweep``: 30 Trojan parents x 7 mutation classes
    per sweep, fanned through the fleet on two worker processes."""

    name = "sweep_fleet"
    #: A known defect of the program, exempt from the verdict check by
    #: name: (parent, mutation class, expected, actual).  Installed as
    #: ``/lib/libc.so`` by ``rename-paths``, these two Table 6 rows are
    #: rated high instead of low in about one sweep in twelve.  The run
    #: counts and prints every such variant; any other verdict than the
    #: expected one fails.
    KNOWN_ESCALATIONS = frozenset(
        (parent, "rename-paths", "low", "high")
        for parent in ("File -> socket: Hardcoded, User input",
                       "Socket -> File: User input, Hardcoded")
    )
    #: More sweep seeds than any window can use (one sweep is ~1 s).
    MAX_SWEEPS = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.advers import default_parents, run_sweep

        self.run_sweep = run_sweep
        # Warm-up: one parent through every class and both workers.
        result = run_sweep(parents=default_parents()[:1], workers=WORKERS,
                           seed=-1 - self.seed)
        if result.errors:
            raise RuntimeError(f"warm-up sweep failed: {result.errors}")

    def generate(self, seconds: float) -> None:
        """One fresh variant seed per sweep, so no sweep repeats an
        image of an earlier one in the run."""
        base = self.seed * 100_003
        self.sweep_seeds = [base + i for i in range(self.MAX_SWEEPS)]
        #: The traced passes' sweep: fixed, so that its counts repeat.
        self.traced_seed = base + self.MAX_SWEEPS

    def _sweep(self, seed: int, workers: int = WORKERS, options=None):
        t0 = clock()
        result = self.run_sweep(seed=seed, workers=workers, options=options)
        return result, clock() - t0

    def _check(self, planned, record, out: Timed) -> Optional[str]:
        if record.failed:
            return f"{record.name}: {record.error!r}"
        verdict = str(record.report["verdict"])
        expected = planned.expected_verdict
        if (planned.parent, planned.klass, expected,
                verdict) in self.KNOWN_ESCALATIONS:
            out.extra.setdefault("escalated", []).append(
                f"{record.name}: {expected} -> {verdict}"
            )
            expected = verdict
        return report_mismatch(record.report, expected,
                               planned.expected_rules, record.name)

    def timed(self, seconds: float) -> Timed:
        out = Timed()
        busy = 0.0
        sweeps = 0
        with WorkerSpeed() as speed:
            while out.wall < seconds and sweeps < len(self.sweep_seeds):
                result, elapsed = self._sweep(self.sweep_seeds[sweeps])
                sweeps += 1
                busy += sum(record.elapsed for record in result.fleet.runs)
                # A variant's latency is the CPU time of its task in the
                # worker (pure computation: the guest's I/O is simulated),
                # at that worker's speed next to it.  Both workers share
                # the 2-CPU host with the coordinator and other tenants,
                # and the time a task waits for a CPU made the tail (p90)
                # of its wall time swing between runs of one seed by
                # twice as much.  The sweep is scaled by the
                # latency-weighted mean, less the workers' time spent
                # calibrating.
                measured = speed.drain()
                lats, scaled = [], []
                for planned, record in zip(result.plan, result.fleet.runs):
                    scale, cpu = measured.get(record.index,
                                              (1.0, record.elapsed))
                    out.record(cpu, self._check(planned, record, out))
                    lats.append(cpu)
                    scaled.append(scale)
                elapsed -= speed.spent / WORKERS
                out.scales += scaled
                out.wall += elapsed
                out.scaled_wall += elapsed * sum(
                    lat * scale for lat, scale in zip(lats, scaled)
                ) / sum(lats)
        out.extra.update(sweeps=sweeps, busy=busy)
        return out

    def traced(self, tracer: Tracer, timed: Timed) -> Dict[str, float]:
        import repro.fleet.engine as fleet_engine

        sweeps = timed.extra["sweeps"]
        run_task = fleet_engine.run_task_with_retry

        def run_task_with_retry(*args, **kwargs):
            tracer.begin_op()  # one operation id per variant
            return run_task(*args, **kwargs)

        with tracer:
            # The real fleet: the coordinator's sharding (which mutates
            # and assembles every variant to cluster it) is traced here,
            # as one operation; worker-side spans stay in the forked
            # workers.
            tracer.begin_op()
            fleet, fleet_wall = self._sweep(self.traced_seed)
            # The same sweep in-process: the workers=1 path runs a fleet
            # worker's retry loop on one warm Session.
            fleet_engine.run_task_with_retry = run_task_with_retry
            try:
                result, _ = self._sweep(
                    self.traced_seed, workers=1,
                    options=traced_options().replaced(wall_timeout=60.0),
                )
            finally:
                fleet_engine.run_task_with_retry = run_task
        for sweep in (fleet, result):
            for planned, record in zip(sweep.plan, sweep.fleet.runs):
                timed.record(None, self._check(planned, record, timed))
        out = attribute(tracer, result.fleet.telemetry,
                        len(result.fleet.runs))
        out.update({
            "fleet.shard_s": sum(
                end - start for layer, start, end, _, _ in tracer.spans
                if layer == "fleet.shard"
            ),
            "fleet.worker_busy_s": timed.extra["busy"] / sweeps,
            "fleet.utilization": (
                timed.extra["busy"] / (WORKERS * timed.wall)
            ),
            "telemetry.trace_overhead": fleet_wall / (timed.wall / sweeps),
        })
        return out

    def close(self) -> None:
        pass


# -- serve_mixed --------------------------------------------------------------

#: Registry rows an inline submission can carry whole: no setup
#: callback (files, peers) and no extra libraries.
def _inline_rows():
    from repro.programs.registry import entries

    return [
        workload for _, workload in entries()
        if workload.setup is None and not workload.extra_libraries
    ]


def _submission(workload, name: str):
    from repro.core.options import RunOptions
    from repro.serve import Submission

    return Submission(
        source=workload.source,
        path=workload.program_path,
        argv=tuple(workload.argv or [workload.program_path]),
        stdin=workload.stdin,
        options=RunOptions(max_ticks=workload.max_ticks),
        name=name,
    )


class ServeMixed:
    """A ``repro serve`` daemon process driven over two connections:
    3/4 repeats (verdict-cache hits), 1/4 never-seen variants (misses)."""

    name = "serve_mixed"
    #: Submissions per ``--seconds`` of window: about what the daemon
    #: serves in a second at reference host speed on a 2-CPU host.  The
    #: window is this fixed amount of work, not a length of time: each
    #: miss leaves a new image in a worker's warm Session, so the
    #: daemon's memory grows with the misses it serves, and a faster or
    #: slower build must serve the same ones.
    SUBMISSIONS_PER_SECOND = 330
    #: Submissions of the in-process attribution pass.
    ATTRIBUTION_OPS = 64
    #: Per-submission client timeout, seconds.
    TIMEOUT = 60.0
    #: Seconds between pauses for a host-speed sample.
    PAUSE_EVERY = 0.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.proc: Optional[subprocess.Popen] = None
        # Relative: a unix socket path is limited to ~100 bytes, and the
        # daemon runs in the same working directory.
        self.socket = os.path.join(OUT_DIR, f"serve-{os.getpid()}.sock")

    # -- daemon lifecycle ---------------------------------------------------
    def setup(self) -> None:
        from repro.serve import submit_async

        self.submit_async = submit_async
        self.hits = [
            (_submission(w, w.name), w.expected_verdict.value,
             tuple(w.expected_rules))
            for w in _inline_rows()
        ]
        self._start_daemon()
        # Warm-up: every repeat-pool submission once, so it is cached.
        for sub, verdict, rules in self.hits:
            events = asyncio.run(self._submit(sub))
            error = self._check(events, verdict, rules, sub.name)
            if error is not None:
                raise RuntimeError(f"warm-up failed: {error}")

    def _start_daemon(self) -> None:
        import select

        os.makedirs(OUT_DIR, exist_ok=True)
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--socket", self.socket, "--workers", str(WORKERS),
             "--http", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            bufsize=0,  # unbuffered, so select() sees every line
        )
        deadline = clock() + 60.0
        seen = b""
        while clock() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            seen += line
            if b"http" in line:
                self.port = int(line.rsplit(b":", 1)[1].split()[0])
                return
        raise RuntimeError(f"serve daemon did not start: {seen!r}")

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        proc.stdout.close()
        if os.path.exists(self.socket):
            os.unlink(self.socket)

    def scrape(self) -> Dict[str, float]:
        """Counter and histogram totals from the daemon's ``/metrics``."""
        from repro.serve.client import http_get_text

        text = http_get_text("127.0.0.1", self.port, "/metrics")["text"]
        totals: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    # -- inputs -------------------------------------------------------------
    def generate(self, seconds: float) -> None:
        """The window's submissions: ``SUBMISSIONS_PER_SECOND`` per
        second, one in four a miss (a unique variant of an inline row,
        never the row itself) and three in four hits, in seeded order."""
        from repro.programs.mutate import MUTATION_CLASSES, mutate_workload

        rng = random.Random(f"serve_mixed|{self.seed}")
        rows = _inline_rows()
        seen = {(w.program_path, w.source) for w in rows}
        want = max(self.ATTRIBUTION_OPS,
                   int(seconds * self.SUBMISSIONS_PER_SECOND) // 4)
        misses = []
        vseed = self.seed * 100_003
        while len(misses) < want:
            for row in rows:
                for klass in MUTATION_CLASSES:
                    variant = mutate_workload(row, klass, vseed)
                    key = (variant.program_path, variant.source)
                    if key in seen:
                        continue
                    seen.add(key)
                    misses.append((
                        _submission(variant, variant.name),
                        variant.expected_verdict.value,
                        tuple(variant.expected_rules),
                    ))
            vseed += 1
        rng.shuffle(misses)
        self.misses = misses[:want]
        mix = []
        for miss in self.misses:
            block = [rng.choice(self.hits) for _ in range(3)]
            block.insert(rng.randrange(4), miss)
            mix.extend(block)
        self.mix = mix

    # -- running ------------------------------------------------------------
    async def _submit(self, submission) -> list:
        return await asyncio.wait_for(
            self.submit_async(self.socket, submission), self.TIMEOUT
        )

    @staticmethod
    def _check(events, verdict, rules, name) -> Optional[str]:
        last = events[-1] if events else {}
        if last.get("kind") != "report":
            return f"{name}: terminal event {last.get('kind')!r} {last}"
        return report_mismatch(last["report"], verdict, rules, name)

    def timed(self, seconds: float) -> Timed:
        out = Timed()
        before = self.scrape()
        hit_lat, miss_lat, queue, execute = [], [], [], []

        async def connection(state) -> None:
            while True:
                await state["gate"].wait()
                if state["next"] >= len(self.mix):
                    break
                sub, verdict, rules = self.mix[state["next"]]
                state["next"] += 1
                state["inflight"] += 1
                t0 = clock()
                try:
                    events = await self._submit(sub)
                except Exception as exc:  # a lost or broken submission
                    # The run has failed; stop this connection rather
                    # than wait out a timeout per remaining submission.
                    out.record(None, f"{sub.name}: {exc!r}")
                    break
                finally:
                    state["inflight"] -= 1
                latency = clock() - t0
                out.record(latency, self._check(events, verdict, rules,
                                                sub.name))
                if events[-1].get("cached"):
                    hit_lat.append(latency)
                else:
                    miss_lat.append(latency)
                    timing = events[-1].get("timing") or {}
                    queue.append(float(timing.get("queue_wait", 0.0)))
                    execute.append(float(timing.get("exec", 0.0)))
            state["end"] = max(state["end"], clock())

        async def pace(state) -> None:
            """Now and then hold new submissions, wait until none is in
            flight (the daemon is idle) and sample the host's speed."""
            while True:
                await asyncio.sleep(self.PAUSE_EVERY)
                state["gate"].clear()
                while state["inflight"]:
                    await asyncio.sleep(0.001)
                out.host.sample(2)
                state["gate"].set()

        async def drive() -> None:
            state = {"next": 0, "end": start, "inflight": 0,
                     "gate": asyncio.Event()}
            state["gate"].set()
            out.host.sample()
            pacer = asyncio.ensure_future(pace(state))
            try:
                await asyncio.gather(*(connection(state)
                                       for _ in range(WORKERS)))
            finally:
                pacer.cancel()
                await asyncio.gather(pacer, return_exceptions=True)
            out.host.sample(2)
            out.wall = state["end"] - start - out.host.spent

        start = clock()
        asyncio.run(drive())
        out.scale_by_host()
        after = self.scrape()
        out.extra.update(
            hit_lat=hit_lat, miss_lat=miss_lat, queue=queue,
            execute=execute,
            scraped={k: after.get(k, 0.0) - before.get(k, 0.0)
                     for k in after},
        )
        return out

    def traced(self, tracer: Tracer, timed: Timed) -> Dict[str, float]:
        from repro.api import Session
        from repro.serve.worker import execute_submission

        extra = timed.extra
        scraped = extra["scraped"]
        hits = scraped.get("cache_hits_total", 0.0)
        lookups = hits + scraped.get("cache_misses_total", 0.0)
        lookup_count = scraped.get("cache_lookup_seconds_count", 0.0)

        # The miss path in-process: the serve worker's own entry point on
        # one warm Session, once untraced and once traced.
        misses = self.misses[:self.ATTRIBUTION_OPS]

        def one(session, sub, verdict, rules, options=None):
            if options is not None:
                sub = replace(sub, options=options)
            report, _, _ = execute_submission(
                session, sub, on_warning=lambda seq, warning: None
            )
            timed.record(None, report_mismatch(report.to_dict(), verdict,
                                               rules, sub.name))
            return report

        plain = []
        session = Session()
        for miss in misses:
            t0 = clock()
            one(session, *miss)
            plain.append(clock() - t0)
        reports, latencies = [], []
        session = Session()
        with tracer:
            for sub, verdict, rules in misses:
                tracer.begin_op()
                t0 = clock()
                reports.append(one(
                    session, sub, verdict, rules,
                    sub.options.replaced(metrics=True, profile=True),
                ))
                latencies.append(clock() - t0)
        out = attribute(tracer, merged(reports), len(reports))
        out.update({
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.lookup_ms_mean": (
                scraped.get("cache_lookup_seconds_sum", 0.0)
                / lookup_count * 1e3 if lookup_count else 0.0
            ),
            "serve.hit_ms_p50": percentile(extra["hit_lat"], 0.5) * 1e3,
            "serve.miss_ms_p50": percentile(extra["miss_lat"], 0.5) * 1e3,
            "serve.queue_ms_p50": percentile(extra["queue"], 0.5) * 1e3,
            "serve.exec_ms_p50": percentile(extra["execute"], 0.5) * 1e3,
            "telemetry.trace_overhead": (
                percentile(latencies, 0.5) / percentile(plain, 0.5)
            ),
        })
        return out


WORKLOADS = {
    cls.name: cls for cls in (SteadyS9, ColdMatrix, SweepFleet, ServeMixed)
}
