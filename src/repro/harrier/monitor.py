"""Harrier: the run-time monitor (paper section 7).

Harrier virtualizes the application (Figure 4): it receives every
architectural, OS, and library-level event from the simulated kernel
through the :class:`KernelHooks` interface and

* propagates multi-source taint per instruction (``InstructionDataFlow``),
* counts application basic-block executions (``CodeExecutionPatterns``),
* short-circuits name-translating library routines (``RoutineShortCircuit``),
* tags loaded binaries BINARY and the initial stack USER INPUT,
* generates semantic events at syscalls (``SyscallEventGenerator``) and
  forwards them to the analyzer (Secpert), pausing the process until the
  analysis — and, on a warning, the user's continue/kill decision — is in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.harrier.analyzer import (
    DecisionPolicy,
    EventAnalyzer,
    always_continue,
)
from repro.harrier.bbfreq import CodeExecutionPatterns
from repro.harrier.config import HarrierConfig
from repro.harrier.dataflow import InstructionDataFlow
from repro.harrier.events import SecurityEvent
from repro.harrier.routines import RoutineShortCircuit
from repro.harrier.state import ProcessShadow
from repro.harrier.syscall_events import SyscallEventGenerator
from repro.isa.cpu import StepResult
from repro.kernel.hooks import KernelHooks
from repro.kernel.kernel import Kernel
from repro.kernel.loader import LoadedImage
from repro.kernel.process import Process
from repro.taint.tags import DataSource, TagSet
from repro.telemetry import (
    CATEGORY_ANALYSIS,
    STAGE_ANALYSIS,
    STAGE_BBFREQ,
    STAGE_DATAFLOW,
)
from repro.telemetry.provenance import ProvenanceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

_SHADOW_KEY = "harrier.shadow"


@dataclass(frozen=True)
class MonitorFault:
    """A contained failure of the monitor's own analysis machinery.

    When a rule (or a whole analyzer) raises while processing an event,
    Harrier quarantines the failure instead of propagating it into the
    monitored run: the guest keeps executing, and this record — the
    ``MONITOR_FAULT`` warning — surfaces in the :class:`RunReport` so the
    degradation is visible rather than silent.
    """

    rule: str          # "MONITOR_FAULT" unless a specific rule is known
    error: str         # "ExceptionType: message"
    stage: str         # 'analyze' | 'decision'
    event: object = None

    def render(self) -> str:
        return f"Warning [MONITOR_FAULT/{self.stage}] {self.error}"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.render()


class Harrier(KernelHooks):
    def __init__(
        self,
        analyzer: Optional[EventAnalyzer] = None,
        config: Optional[HarrierConfig] = None,
        decision: DecisionPolicy = always_continue,
        interner=None,
    ) -> None:
        self.analyzer = analyzer or EventAnalyzer()
        self.config = config or HarrierConfig()
        self.decision = decision
        #: Cached (config is frozen): the per-block dispatch flags, so
        #: the on_block hot path loads slots instead of chasing the
        #: config dataclass per block.
        self._fastpath = self.config.taint_fastpath
        self._track_df = self.config.track_dataflow
        self._track_bb = self.config.track_bb_frequency
        self._short_circuit = self.config.short_circuit_routines
        self.dataflow = InstructionDataFlow(interner=interner)
        self.bbfreq = CodeExecutionPatterns()
        self.routines = RoutineShortCircuit(self.dataflow)
        #: The per-run evidence recorder (None when disabled — hot paths
        #: pay one cached None check, NullSink-style).
        self.provenance = (
            ProvenanceRecorder() if self.config.provenance else None
        )
        self._prov = self.provenance
        self.event_gen = SyscallEventGenerator(
            self.config, self.dataflow, self.bbfreq,
            provenance=self.provenance,
        )
        self.kernel: Optional[Kernel] = None
        #: Every event emitted, in order (when keep_event_log is set).
        #: Bounded by config.max_event_log: a deque(maxlen=cap) evicts the
        #: oldest entry in O(1) and every drop is counted in
        #: ``events_dropped``.
        self._events: Deque[SecurityEvent] = deque(
            maxlen=self.config.max_event_log
        )
        #: Events discarded because the bounded log was full.
        self.events_dropped: int = 0
        #: Blocks whose taint effects were applied via the summary fast
        #: path / the per-transfer slow path (always counted — the perf
        #: benchmarks read them without a metrics registry attached).
        self.fastpath_blocks: int = 0
        self.slowpath_blocks: int = 0
        #: (event, warning) pairs where the decision policy said "kill".
        self.kills: List[Tuple[SecurityEvent, object]] = []
        #: Contained analysis failures (see :class:`MonitorFault`).
        self.monitor_faults: List[MonitorFault] = []
        # Telemetry wiring (attach_telemetry); None keeps hot paths free.
        self._metrics = None
        self._tracer = None
        self._profiler = None
        self._c_emitted = None
        self._c_dropped = None

    @property
    def events(self) -> List[SecurityEvent]:
        """The (possibly capped) event log, oldest first."""
        return list(self._events)

    # -- wiring -------------------------------------------------------------
    def bind(self, kernel: Kernel) -> "Harrier":
        """Associate with the kernel whose hooks we implement."""
        self.kernel = kernel
        return self

    def attach_telemetry(self, telemetry: "Telemetry") -> "Harrier":
        """Wire the observability hub (see :mod:`repro.telemetry`)."""
        self._tracer = telemetry.tracer
        self._profiler = telemetry.profiler
        if telemetry.is_enabled:
            m = telemetry.metrics
            self._metrics = m
            self._c_emitted = m.counter("harrier_events_emitted_total")
            self._c_dropped = m.counter("harrier_events_dropped_total")
        else:
            self._metrics = None
        return self

    def shadow(self, proc: Process) -> ProcessShadow:
        """The per-process monitor state (one dict probe on the hot path)."""
        shadow = proc.meta.get(_SHADOW_KEY)
        if shadow is None:
            shadow = proc.meta[_SHADOW_KEY] = ProcessShadow()
        return shadow

    @property
    def _now(self) -> int:
        return self.kernel.now if self.kernel is not None else 0

    # -- loader events (sections 7.3.2 / 7.3.3) ------------------------------
    def on_image_load(self, proc: Process, loaded: LoadedImage) -> None:
        shadow = self.shadow(proc)
        image_name = loaded.name
        is_app = loaded.is_app and image_name not in self.config.trusted_images
        leaders = shadow.app_leaders if is_app else shadow.lib_leaders
        for addr in loaded.abs_bb_leaders():
            leaders[addr] = True
        for addr in range(loaded.text_start, loaded.text_end):
            shadow.code_image[addr] = loaded
        for symbol in self.config.short_circuit_symbols:
            addr = loaded.symbol_addr(symbol)
            if addr is not None:
                shadow.routine_addrs[addr] = symbol
        if self.config.track_dataflow:
            binary_tags = self.dataflow.binary_tag(image_name)
            shadow.memory.set_range(
                loaded.data_start,
                loaded.end - loaded.data_start,
                binary_tags,
            )
            if self._prov is not None:
                self._prov.record_source(
                    binary_tags, pid=proc.pid, tick=self._now,
                    resource=image_name, via="image_load",
                )

    def on_initial_stack(self, proc: Process, start: int, end: int) -> None:
        if not self.config.track_dataflow:
            return
        if self.config.complete_dataflow:
            tags = TagSet.of(DataSource.USER_INPUT)
        else:
            tags = self.dataflow.binary_tag(proc.command)
        self.shadow(proc).memory.set_range(start, end - start, tags)
        if self._prov is not None:
            self._prov.record_source(
                tags, pid=proc.pid, tick=self._now,
                resource=proc.command, via="initial_stack",
            )

    # -- per-instruction events (section 7.3.1 / 7.4 / 7.2) --------------------
    def on_instruction(self, proc: Process, step: StepResult) -> None:
        shadow = self.shadow(proc)
        if self._profiler is None:
            if self.config.track_dataflow:
                self.dataflow.apply(shadow, step)
                if self.config.short_circuit_routines:
                    self.routines.on_step(proc, shadow, step)
            if self.config.track_bb_frequency:
                self.bbfreq.observe(shadow, step.pc)
            return
        # Profiled path: attribute each component's wall time to its §8
        # stage.  Kept separate so the unprofiled path pays one None check.
        prof = self._profiler
        if self.config.track_dataflow:
            t0 = perf_counter()
            self.dataflow.apply(shadow, step)
            if self.config.short_circuit_routines:
                self.routines.on_step(proc, shadow, step)
            prof.add(STAGE_DATAFLOW, perf_counter() - t0)
        if self.config.track_bb_frequency:
            t0 = perf_counter()
            self.bbfreq.observe(shadow, step.pc)
            prof.add(STAGE_BBFREQ, perf_counter() - t0)

    def on_block(self, proc: Process, rec) -> None:
        """Batched per-block observation (the block-cache hot path).

        One call replaces ``executed`` on_instruction calls: the
        dataflow templates are applied in a single pass, the routine
        short-circuit sees the record only when its terminator was a
        CALL/RET (those always end a block, so register state at hook
        time matches the per-step path), and BB frequency is observed
        once per block leader whose first instruction retired — the
        entry pc of a translated block (interior pcs are never leaders
        by construction of the translation cut), each constituent's
        leader in a superblock (``plan.leads``).  The summary fast path
        starts at a block's second full execution
        (``InstructionDataFlow.defer_summary``).
        """
        if rec.executed == 0:
            return
        # self.shadow(proc), inlined (hottest call site).
        meta = proc.meta
        shadow = meta.get(_SHADOW_KEY)
        if shadow is None:
            shadow = meta[_SHADOW_KEY] = ProcessShadow()
        if self._profiler is None:
            plan = rec.plan
            if self._track_df:
                # _apply_block_dataflow, inlined; the compiled applier
                # is called straight off the plan.
                if (
                    self._fastpath
                    and rec.executed == plan.length
                    and (
                        plan.taint_apply or self.dataflow.defer_summary
                    )(shadow, rec)
                ):
                    self.fastpath_blocks += 1
                    prov = self._prov
                    if prov is not None and plan not in prov.seen_plans:
                        prov.observe_block(plan)
                else:
                    self.slowpath_blocks += 1
                    self.dataflow.apply_block(shadow, rec)
                    if plan.parts is not None and self._fastpath:
                        self._declined(proc, rec)
                if self._short_circuit and (
                    rec.call_target is not None
                    or rec.ret_target is not None
                ):
                    self.routines.on_step(proc, shadow, rec)
            if self._track_bb:
                leads = plan.leads
                if leads is None:
                    # self.bbfreq.observe, inlined.
                    pc = plan.start
                    if pc in shadow.app_leaders:
                        shadow.bb_counts[pc] = shadow.bb_counts.get(pc, 0) + 1
                        shadow.last_app_bb = pc
                else:
                    # self.bbfreq.observe_leads, inlined.
                    executed = rec.executed
                    app_leaders = shadow.app_leaders
                    for offset, pc in leads:
                        if offset >= executed:
                            break
                        if pc in app_leaders:
                            shadow.bb_counts[pc] = (
                                shadow.bb_counts.get(pc, 0) + 1
                            )
                            shadow.last_app_bb = pc
            return
        prof = self._profiler
        config = self.config
        if config.track_dataflow:
            t0 = perf_counter()
            if (
                not self._apply_block_dataflow(shadow, rec)
                and rec.plan.parts is not None
                and self._fastpath
            ):
                self._declined(proc, rec)
            if config.short_circuit_routines and (
                rec.call_target is not None or rec.ret_target is not None
            ):
                self.routines.on_step(proc, shadow, rec)
            prof.add(STAGE_DATAFLOW, perf_counter() - t0)
        if config.track_bb_frequency:
            t0 = perf_counter()
            leads = rec.plan.leads
            if leads is None:
                self.bbfreq.observe(shadow, rec.plan.start)
            else:
                self.bbfreq.observe_leads(shadow, leads, rec.executed)
            prof.add(STAGE_BBFREQ, perf_counter() - t0)

    def _apply_block_dataflow(self, shadow: ProcessShadow, rec) -> bool:
        """Apply one block's taint effects, fast path first; True when
        the fast path applied them.

        The summary fast path is valid only for full executions (a
        partial block's templates were only partially applied), starts
        at a block's second full execution (see
        ``InstructionDataFlow.defer_summary``) and bails on intra-block
        load/store aliasing; everything else replays the templates per
        transfer.
        """
        plan = rec.plan
        if (
            self._fastpath
            and rec.executed == plan.length
            and (
                plan.taint_apply or self.dataflow.defer_summary
            )(shadow, rec)
        ):
            self.fastpath_blocks += 1
            return True
        self.slowpath_blocks += 1
        self.dataflow.apply_block(shadow, rec)
        return False

    @staticmethod
    def _declined(proc: Process, rec) -> None:
        """A superblock replayed its templates with the fast path on:
        when that was a full execution (the fast path declined), tell
        the block cache, which demotes superblocks that keep
        declining."""
        if rec.executed == rec.plan.length:
            proc.block_cache.decline(rec.plan)

    # -- syscall events (section 7.1) -----------------------------------------
    def on_syscall_pre(
        self,
        proc: Process,
        sysno: int,
        args: Tuple[int, int, int, int, int],
        info: Dict[str, object],
    ) -> bool:
        shadow = self.shadow(proc)
        events = self.event_gen.pre_events(
            proc, shadow, self._now, sysno, args, info
        )
        return self._dispatch(events)

    def on_syscall_post(
        self,
        proc: Process,
        sysno: int,
        args: Tuple[int, int, int, int, int],
        result: int,
        info: Dict[str, object],
    ) -> None:
        shadow = self.shadow(proc)
        events = self.event_gen.post_effects(
            proc, shadow, self._now, sysno, args, result, info
        )
        # Post events cannot veto (the call already happened) but still
        # feed the analysis and may warn.
        self._dispatch(events)

    def _dispatch(self, events: List[SecurityEvent]) -> bool:
        """Feed events to the analyzer; False means "kill the process".

        Veto semantics: the *first* kill decision terminates the process,
        so remaining events of the batch are not dispatched — they
        describe a syscall that will never execute.  Analysis failures
        are contained (see :class:`MonitorFault`): a crashing rule must
        not take down the monitored run.
        """
        tracer = self._tracer
        prof = self._profiler
        for event in events:
            self._log_event(event)
            span = None
            if tracer is not None:
                span = tracer.start(
                    f"analyze {getattr(event, 'call_name', event)}",
                    CATEGORY_ANALYSIS,
                    self._now,
                    parent=(
                        self.kernel.current_syscall_span
                        if self.kernel is not None else None
                    ),
                    tid=getattr(event, "pid", 0),
                )
            t0 = perf_counter() if prof is not None else 0.0
            try:
                warnings = self.analyzer.analyze(event)
            except Exception as exc:  # noqa: BLE001 - containment boundary
                self._contain(event, exc, stage="analyze")
                if prof is not None:
                    prof.add(STAGE_ANALYSIS, perf_counter() - t0)
                if span is not None:
                    tracer.end(span, self._now, fault=True)
                continue
            if prof is not None:
                prof.add(STAGE_ANALYSIS, perf_counter() - t0)
            if span is not None:
                tracer.end(span, self._now, warnings=len(warnings))
            for warning in warnings:
                try:
                    proceed = self.decision(warning)
                except Exception as exc:  # noqa: BLE001
                    self._contain(event, exc, stage="decision")
                    proceed = True
                if not proceed:
                    self.kills.append((event, warning))
                    if self._metrics is not None:
                        self._metrics.counter("harrier_kills_total").inc()
                    return False
        return True

    def _log_event(self, event: SecurityEvent) -> None:
        if self._prov is not None:
            self._prov.observe_event(event)
        if self._c_emitted is not None:
            self._c_emitted.inc()
        if not self.config.keep_event_log:
            return
        log = self._events
        if log.maxlen is not None and len(log) >= log.maxlen:
            # append below evicts the oldest entry (or is a no-op when
            # maxlen == 0); either way one event is lost.
            self.events_dropped += 1
            if self._c_dropped is not None:
                self._c_dropped.inc()
        log.append(event)

    def _contain(self, event: SecurityEvent, exc: Exception,
                 stage: str) -> None:
        rule = getattr(exc, "rule_name", "MONITOR_FAULT")
        self.monitor_faults.append(
            MonitorFault(
                rule=str(rule),
                error=f"{type(exc).__name__}: {exc}",
                stage=stage,
                event=event,
            )
        )
        if self._metrics is not None:
            self._metrics.counter(
                "harrier_monitor_faults_total", stage=stage
            ).inc()

    # -- end-of-run state sampling ------------------------------------------
    def sample_state_gauges(self) -> None:
        """Record the monitor's state footprint as gauges.

        Called once per run (cheap relative to the run itself): tainted
        shadow cells, live taint-set cardinality, and application
        basic-block totals across every process the kernel still knows.
        """
        m = self._metrics
        if m is None or self.kernel is None:
            return
        tainted_cells = 0
        shadow_pages = 0
        tag_sets = set()
        max_cardinality = 0
        bb_executions = 0
        app_blocks = 0
        for proc in self.kernel.procs.values():
            shadow = proc.meta.get(_SHADOW_KEY)
            if shadow is None:
                continue
            page_stats = shadow.memory.page_stats()
            tainted_cells += page_stats["cells"]
            shadow_pages += page_stats["pages"]
            for _, tags in shadow.memory.live_cells():
                tag_sets.add(tags)
                if len(tags) > max_cardinality:
                    max_cardinality = len(tags)
            bb_executions += sum(shadow.bb_counts.values())
            app_blocks += len(shadow.bb_counts)
        m.gauge("harrier_tainted_memory_cells").set(tainted_cells)
        m.gauge("harrier_shadow_pages_live").set(shadow_pages)
        m.gauge("harrier_taint_sets_live").set(len(tag_sets))
        m.gauge("harrier_taint_set_max_cardinality").set(max_cardinality)
        m.gauge("harrier_bb_executions").set(bb_executions)
        m.gauge("harrier_app_basic_blocks").set(app_blocks)
        m.gauge("harrier_fastpath_blocks").set(self.fastpath_blocks)
        m.gauge("harrier_slowpath_blocks").set(self.slowpath_blocks)
        if self._prov is not None:
            self._prov.sample_gauges(m)

    # -- process lifecycle -------------------------------------------------------
    def on_fork(self, parent: Process, child: Process) -> None:
        parent_shadow = self.shadow(parent)
        child.meta[_SHADOW_KEY] = parent_shadow.copy_for_fork()

    def on_exec(self, proc: Process, path: str) -> None:
        self.shadow(proc).reset_for_exec()

    # -- inspection ---------------------------------------------------------------
    def events_named(self, call_name: str) -> List[SecurityEvent]:
        return [e for e in self.events if e.call_name == call_name]
