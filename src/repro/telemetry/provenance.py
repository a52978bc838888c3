"""Taint-provenance evidence trails (explainable detections).

The paper's pitch for an expert-system backend is that "an expert system
can give the user all of the information that was used to reach its
conclusion" (section 6.2.1).  :class:`ProvenanceRecorder` makes that
concrete for every Secpert warning by capturing the full causal chain:

* **sources** — which syscall/input event first introduced each taint
  token (tick, pid, resource, introducing call);
* **waypoints** — the data-transfer events that carried each token
  across resource boundaries (the observable flow of the tainted bytes);
* **sink** — the event / CLIPS fact assertion that consumed the tainted
  value and triggered the analysis;
* **derivation** — the fact→rule production chain inside
  :mod:`repro.expert.engine` that actually fired.

The resulting ``evidence`` object is attached to each
:class:`~repro.secpert.warnings.SecurityWarning`, serialized in report
schema v2, and streamed live by the serve daemon.

Determinism contract: evidence is built *only* from the Harrier event
stream and the engine fire trace — both of which are bit-identical
across the block cache / fastpath execution modes (proven by the
62-workload differential suite) — so trails are identical no matter how
the guest was executed, serially or sharded.  The block-level
``TaintSummary`` observations (:meth:`ProvenanceRecorder.observe_block`)
are an execution-mode *diagnostic* and surface exclusively through
``provenance_*`` metrics, never inside evidence.

Boundedness contract: the recorder tracks at most :data:`MAX_TOKENS`
distinct taint tokens and keeps the *first* :data:`MAX_TRAIL` waypoints
per token (first-introduction-wins, like the source table), counting
everything it sheds — memory stays O(1) per run regardless of guest
behaviour, and "keep the earliest" is deterministic where an LRU would
not be.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Version stamp carried inside every evidence object (and the report's
#: ``provenance`` summary) so downstream consumers can detect shape
#: changes independently of the run-report schema.
EVIDENCE_SCHEMA_VERSION = 1

#: Hard cap on distinct taint tokens tracked per run.
MAX_TOKENS = 4096

#: Hard cap on waypoints kept per token (earliest kept, rest counted).
MAX_TRAIL = 16


def _resource_name(resource) -> str:
    """A stable printable name for an event's resource field."""
    if resource is None:
        return ""
    return str(resource)


class ProvenanceRecorder:
    """Bounded, deterministic per-run evidence recorder.

    One recorder lives on each :class:`~repro.harrier.monitor.Harrier`
    (when :class:`~repro.harrier.config.HarrierConfig` ``.provenance``
    is on).  Harrier feeds it taint introductions and the event log;
    Secpert calls :meth:`evidence_for` while stamping warnings.
    """

    def __init__(
        self,
        max_tokens: int = MAX_TOKENS,
        max_trail: int = MAX_TRAIL,
    ) -> None:
        self.max_tokens = max_tokens
        self.max_trail = max_trail
        #: token (str(tag)) -> first-introduction source record.
        self.sources: Dict[str, Dict[str, object]] = {}
        #: token -> earliest waypoint records (bounded by ``max_trail``).
        self.trails: Dict[str, List[Dict[str, object]]] = {}
        #: Introductions shed because the token table was full.
        self.source_drops = 0
        #: Waypoints shed because a token's trail was full.
        self.trail_drops = 0
        #: Events inspected by :meth:`observe_event`.
        self.events_observed = 0
        #: Evidence objects built by :meth:`evidence_for`.
        self.evidence_built = 0
        # Block-mode diagnostics (metrics only — never part of evidence,
        # because the interpreter path has no blocks to observe).
        self.blocks_observed = 0
        self.block_tokens = 0
        #: Plans :meth:`observe_block` has seen; the monitor probes it
        #: inline so a hot block costs no call after its first.
        self.seen_plans: set = set()

    # -- recording -----------------------------------------------------------
    def record_source(
        self,
        tags,
        *,
        pid: int,
        tick: int,
        resource: str,
        via: str,
    ) -> None:
        """Record where taint tokens entered the system.

        First introduction wins: re-reading the same file later does not
        rewrite the token's origin.  ``tags`` is any iterable of
        :class:`~repro.taint.tags.Tag` (a ``TagSet`` iterates sorted).
        """
        sources = self.sources
        for tag in tags:
            token = str(tag)
            if token in sources:
                continue
            if len(sources) >= self.max_tokens:
                self.source_drops += 1
                continue
            sources[token] = {
                "token": token,
                "kind": "input",
                "via": via,
                "pid": pid,
                "tick": tick,
                "resource": resource,
            }

    def observe_event(self, event) -> None:
        """Fold one Harrier security event into the waypoint trails.

        Data-transfer events carry tainted bytes across a resource
        boundary; resource-access events carry taint in the resource
        *identifier*.  Both become per-token waypoints.  Event streams
        are identical across execution modes, so trails are too.
        """
        self.events_observed += 1
        data_tags = getattr(event, "data_tags", None)
        if data_tags:
            self._trail(
                data_tags,
                event,
                direction=getattr(event, "direction", "write"),
            )
        origin = getattr(event, "origin", None)
        if origin:
            self._trail(origin, event, direction="identifier")

    def _trail(self, tags, event, *, direction: str) -> None:
        waypoint = {
            "tick": event.time,
            "pid": event.pid,
            "call": event.call_name,
            "direction": direction,
            "resource": _resource_name(getattr(event, "resource", None)),
            "address": event.address,
        }
        trails = self.trails
        limit = self.max_trail
        for tag in tags:
            token = str(tag)
            trail = trails.get(token)
            if trail is None:
                if len(trails) >= self.max_tokens:
                    self.trail_drops += 1
                    continue
                trails[token] = [waypoint]
            elif len(trail) < limit:
                trail.append(waypoint)
            else:
                self.trail_drops += 1

    def observe_block(self, plan) -> None:
        """Count taint-carrying translated blocks (fastpath diagnostic).

        Called from the block-cache fast path only, once per plan (see
        :attr:`seen_plans`).  A superblock counts as its constituent
        blocks (``plan.parts``), each once, so the counts do not depend
        on which chains were fused.  Feeds ``provenance_*``
        gauges — deliberately *not* evidence, which must be
        mode-independent.
        """
        seen = self.seen_plans
        if plan in seen:
            return
        seen.add(plan)
        for block in plan.parts or (plan,):
            if block is not plan and block in seen:
                continue
            seen.add(block)
            summary = block.taint_summary
            if summary is None or summary.is_noop:
                continue
            self.blocks_observed += 1
            self.block_tokens += (
                len(summary.live_in) + len(summary.touch_holes)
            )

    # -- evidence ------------------------------------------------------------
    def evidence_for(
        self, warning, event, fact, fired, rule_docs=None
    ) -> Dict[str, object]:
        """Build the evidence object for one freshly fired warning.

        ``event`` is the triggering Harrier event, ``fact`` the CLIPS
        fact Secpert asserted for it, ``fired`` the slice of the
        engine's fire trace produced while that fact was in working
        memory, and ``rule_docs`` an optional rule-name → docstring map
        for the derivation chain.  Everything in the result is a JSON
        primitive, so wire round-trips (serve NDJSON, fleet pickles)
        are identity.
        """
        self.evidence_built += 1
        tokens = _event_tokens(event)
        sources = []
        for token in tokens:
            record = self.sources.get(token)
            if record is None:
                # The token predates the recorder (or the table was
                # full): synthesize an inferred origin so the trail is
                # never source-less.
                record = {
                    "token": token,
                    "kind": "inferred",
                    "via": "unrecorded",
                    "pid": event.pid,
                    "tick": event.time,
                    "resource": _resource_name(
                        getattr(event, "resource", None)
                    ),
                }
            sources.append(dict(record))
        if not sources:
            # Tag-less warnings (process/memory abuse, hardcoded-name
            # accesses with empty origins) are evidenced by the
            # triggering event itself.
            sources.append({
                "token": "",
                "kind": "event",
                "via": event.call_name,
                "pid": event.pid,
                "tick": event.time,
                "resource": _resource_name(getattr(event, "resource", None)),
            })
        waypoints = []
        for token in tokens:
            for record in self.trails.get(token, ()):
                waypoints.append(dict(record, token=token))
        sink = {
            "call": event.call_name,
            "pid": event.pid,
            "tick": event.time,
            "address": event.address,
            "resource": _resource_name(getattr(event, "resource", None)),
            "fact": _render_fact(fact),
        }
        docs = rule_docs or {}
        derivation = [
            {
                "rule": f.rule_name,
                "facts": [f"f-{i}" for i in f.fact_ids],
                "doc": docs.get(f.rule_name, ""),
            }
            for f in fired
        ]
        return {
            "schema_version": EVIDENCE_SCHEMA_VERSION,
            "rule": warning.rule,
            "sources": sources,
            "waypoints": waypoints,
            "sink": sink,
            "derivation": derivation,
        }

    # -- summaries -----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Mode-independent run-level counts for the report (schema v2).

        Deliberately excludes the block-observation diagnostics, which
        differ between the interpreter and block-cache modes.
        """
        return {
            "schema_version": EVIDENCE_SCHEMA_VERSION,
            "enabled": True,
            "sources": len(self.sources),
            "tokens_trailed": len(self.trails),
            "waypoints": sum(len(t) for t in self.trails.values()),
            "evidence": self.evidence_built,
            "source_drops": self.source_drops,
            "trail_drops": self.trail_drops,
        }

    def sample_gauges(self, registry) -> None:
        """Write the recorder's state into ``provenance_*`` gauges."""
        registry.gauge("provenance_sources").set(len(self.sources))
        registry.gauge("provenance_tokens_trailed").set(len(self.trails))
        registry.gauge("provenance_waypoints").set(
            sum(len(t) for t in self.trails.values())
        )
        registry.gauge("provenance_evidence_built").set(self.evidence_built)
        registry.gauge("provenance_trail_drops").set(self.trail_drops)
        registry.gauge("provenance_blocks_observed").set(self.blocks_observed)
        registry.gauge("provenance_block_tokens").set(self.block_tokens)


def _event_tokens(event) -> List[str]:
    """Sorted distinct taint tokens the triggering event carried."""
    tokens = set()
    for attr in ("data_tags", "origin", "resource_origin",
                 "server_socket_origin", "source_server_origin"):
        tags = getattr(event, attr, None)
        if tags:
            tokens.update(str(t) for t in tags)
    for pair in getattr(event, "source_origins", ()) or ():
        tag, origin = pair
        tokens.add(str(tag))
        tokens.update(str(t) for t in origin)
    return sorted(tokens)


def _render_fact(fact) -> str:
    if fact is None:
        return ""
    from repro.expert.clips_format import render_fact

    return render_fact(fact)


def render_evidence(evidence: Optional[Dict[str, object]]) -> str:
    """One warning's evidence as a human-readable trail (``repro
    explain``)."""
    if not evidence:
        return "  (no evidence recorded)"
    lines = []
    for source in evidence.get("sources", ()):
        token = source.get("token") or "(untainted)"
        lines.append(
            f"  source   {token} <- {source.get('via', '?')}"
            f" {source.get('resource') or ''}".rstrip()
            + f"  [tick {source.get('tick')}, pid {source.get('pid')}]"
        )
    for wp in evidence.get("waypoints", ()):
        lines.append(
            f"  waypoint {wp.get('token')} {wp.get('direction')}"
            f" via {wp.get('call')} {wp.get('resource') or ''}".rstrip()
            + f"  [tick {wp.get('tick')}, pid {wp.get('pid')}]"
        )
    sink = evidence.get("sink") or {}
    lines.append(
        f"  sink     {sink.get('call')} {sink.get('resource') or ''}".rstrip()
        + f"  [tick {sink.get('tick')}, pid {sink.get('pid')}"
        + f" @ {sink.get('address')}]"
    )
    for step in evidence.get("derivation", ()):
        facts = ",".join(step.get("facts", ()))
        line = f"  fired    {step.get('rule')}: {facts}"
        lines.append(line)
        if step.get("doc"):
            lines.append(f"           ; {step['doc']}")
    return "\n".join(lines)
