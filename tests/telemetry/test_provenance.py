"""Unit tests for the bounded provenance recorder.

The integration story (evidence on real Secpert warnings, bit-identity
across execution modes) lives in the differential suite and the serve
tests; here the recorder's own contracts are pinned down: bounds,
first-introduction-wins, fallback synthesis, JSON purity, and the
human-readable rendering behind ``repro explain``.
"""

import json
from dataclasses import dataclass, field
from typing import Tuple

from repro.expert.engine import FiredRule
from repro.secpert.warnings import SecurityWarning, Severity
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.provenance import (
    EVIDENCE_SCHEMA_VERSION,
    ProvenanceRecorder,
    render_evidence,
)


@dataclass
class FakeEvent:
    """Just the attribute surface the recorder reads off an event."""

    time: int = 10
    pid: int = 1
    call_name: str = "SYS_write"
    address: int = 0x1000
    resource: str = "FILE:/tmp/out"
    data_tags: Tuple[str, ...] = ()
    origin: Tuple[str, ...] = ()
    direction: str = "write"


def warning(rule="check_x"):
    return SecurityWarning(
        severity=Severity.HIGH, rule=rule, headline="h", pid=1, time=10
    )


class TestSources:
    def test_first_introduction_wins(self):
        rec = ProvenanceRecorder()
        rec.record_source(["FILE(/a)"], pid=1, tick=5,
                          resource="/a", via="SYS_read")
        rec.record_source(["FILE(/a)"], pid=2, tick=99,
                          resource="/b", via="SYS_recv")
        assert rec.sources["FILE(/a)"]["tick"] == 5
        assert rec.sources["FILE(/a)"]["via"] == "SYS_read"

    def test_token_table_is_bounded(self):
        rec = ProvenanceRecorder(max_tokens=2)
        rec.record_source(["a", "b", "c", "d"], pid=1, tick=0,
                          resource="r", via="v")
        assert len(rec.sources) == 2
        assert rec.source_drops == 2
        assert rec.summary()["source_drops"] == 2

    def test_re_recording_a_known_token_never_drops(self):
        rec = ProvenanceRecorder(max_tokens=1)
        rec.record_source(["a"], pid=1, tick=0, resource="r", via="v")
        rec.record_source(["a"], pid=1, tick=1, resource="r", via="v")
        assert rec.source_drops == 0


class TestTrails:
    def test_data_and_identifier_taint_become_waypoints(self):
        rec = ProvenanceRecorder()
        rec.observe_event(FakeEvent(data_tags=("t1",)))
        rec.observe_event(FakeEvent(
            call_name="SYS_open", origin=("t1",), data_tags=()
        ))
        trail = rec.trails["t1"]
        assert [w["direction"] for w in trail] == ["write", "identifier"]
        assert trail[1]["call"] == "SYS_open"
        assert rec.events_observed == 2

    def test_trail_keeps_the_earliest_waypoints(self):
        rec = ProvenanceRecorder(max_trail=2)
        for tick in range(5):
            rec.observe_event(FakeEvent(time=tick, data_tags=("t1",)))
        assert [w["tick"] for w in rec.trails["t1"]] == [0, 1]
        assert rec.trail_drops == 3


class TestEvidence:
    def test_recorded_source_and_trail_flow_into_evidence(self):
        rec = ProvenanceRecorder()
        rec.record_source(["t1"], pid=1, tick=0,
                          resource="/etc/hosts", via="SYS_resolve")
        rec.observe_event(FakeEvent(time=5, data_tags=("t1",)))
        sink = FakeEvent(time=9, data_tags=("t1",))
        fired = [FiredRule("check_x_rule", (2,), {})]
        ev = rec.evidence_for(
            warning(), sink, None, fired,
            rule_docs={"check_x_rule": "why it fires"},
        )
        assert ev["schema_version"] == EVIDENCE_SCHEMA_VERSION
        assert ev["rule"] == "check_x"
        assert ev["sources"] == [{
            "token": "t1", "kind": "input", "via": "SYS_resolve",
            "pid": 1, "tick": 0, "resource": "/etc/hosts",
        }]
        assert [w["token"] for w in ev["waypoints"]] == ["t1"]
        assert ev["sink"]["call"] == "SYS_write"
        assert ev["derivation"] == [{
            "rule": "check_x_rule", "facts": ["f-2"],
            "doc": "why it fires",
        }]

    def test_unrecorded_token_gets_an_inferred_source(self):
        rec = ProvenanceRecorder()
        ev = rec.evidence_for(
            warning(), FakeEvent(data_tags=("mystery",)), None, []
        )
        assert ev["sources"][0]["kind"] == "inferred"
        assert ev["sources"][0]["token"] == "mystery"

    def test_tagless_warning_is_evidenced_by_its_event(self):
        rec = ProvenanceRecorder()
        ev = rec.evidence_for(warning(), FakeEvent(), None, [])
        assert len(ev["sources"]) == 1
        assert ev["sources"][0]["kind"] == "event"
        assert ev["sources"][0]["via"] == "SYS_write"

    def test_evidence_is_pure_json(self):
        rec = ProvenanceRecorder()
        rec.record_source(["t1"], pid=1, tick=0, resource="r", via="v")
        ev = rec.evidence_for(
            warning(), FakeEvent(data_tags=("t1",)), None,
            [FiredRule("r", (1, 2), {})],
        )
        assert json.loads(json.dumps(ev)) == ev

    def test_summary_counts(self):
        rec = ProvenanceRecorder()
        rec.record_source(["a", "b"], pid=1, tick=0, resource="r", via="v")
        rec.observe_event(FakeEvent(data_tags=("a",)))
        rec.evidence_for(warning(), FakeEvent(data_tags=("a",)), None, [])
        summary = rec.summary()
        assert summary["enabled"] is True
        assert summary["sources"] == 2
        assert summary["tokens_trailed"] == 1
        assert summary["waypoints"] == 1
        assert summary["evidence"] == 1

    def test_gauges_sampled(self):
        rec = ProvenanceRecorder()
        rec.record_source(["a"], pid=1, tick=0, resource="r", via="v")
        registry = MetricsRegistry()
        rec.sample_gauges(registry)
        assert registry.value("provenance_sources") == 1
        assert registry.value("provenance_evidence_built") == 0


class TestBlockDiagnostics:
    @dataclass(frozen=True)
    class Summary:
        live_in: tuple = ("r1",)
        touch_holes: tuple = ()
        is_noop: bool = False

    @dataclass(frozen=True)
    class Plan:
        taint_summary: object = field(default=None)
        parts: object = None  # a translated block, not a superblock

    def test_blocks_dedup_per_plan(self):
        rec = ProvenanceRecorder()
        plan = self.Plan(self.Summary())
        rec.observe_block(plan)
        rec.observe_block(plan)
        assert rec.blocks_observed == 1
        assert rec.block_tokens == 1

    def test_noop_blocks_not_counted(self):
        rec = ProvenanceRecorder()
        rec.observe_block(self.Plan(self.Summary(is_noop=True)))
        assert rec.blocks_observed == 0

    def test_block_counts_stay_out_of_the_summary(self):
        rec = ProvenanceRecorder()
        rec.observe_block(self.Plan(self.Summary()))
        assert "blocks" not in str(sorted(rec.summary()))


class TestRendering:
    def test_trail_renders_every_section(self):
        rec = ProvenanceRecorder()
        rec.record_source(["t1"], pid=1, tick=0,
                          resource="/etc/hosts", via="SYS_resolve")
        rec.observe_event(FakeEvent(time=5, data_tags=("t1",)))
        ev = rec.evidence_for(
            warning(), FakeEvent(time=9, data_tags=("t1",)), None,
            [FiredRule("check_x_rule", (2,), {})],
            rule_docs={"check_x_rule": "why"},
        )
        text = render_evidence(ev)
        assert "source   t1 <- SYS_resolve /etc/hosts" in text
        assert "waypoint t1 write via SYS_write" in text
        assert "sink     SYS_write" in text
        assert "fired    check_x_rule: f-2" in text
        assert "; why" in text

    def test_missing_evidence_renders_placeholder(self):
        assert "no evidence" in render_evidence(None)
        assert "no evidence" in render_evidence({})
