"""The serve wire protocol: submissions in, event streams out.

One submission travels as a single JSON object; the daemon answers with
a stream of JSON event objects (newline-delimited over a socket, chunked
over HTTP) and closes after a terminal event.  Everything on the wire is
plain JSON — the protocol is what lets a submission cross from any
client into a worker *process* unchanged, so the wire codec here is also
the job codec the supervisor hands to workers.

Submission forms (exactly one):

* **inline source** — guest assembly text plus its environment (argv,
  stdin script, seeded files, network peers), the shape ``repro run``
  takes from the shell;
* **registry workload** — ``{"table": "4", "name": "Remote"}`` naming a
  row of the paper's evaluation registries; the worker resolves it like
  a fleet worker does, setup callbacks included.

Event kinds, in stream order::

    accepted  {job, queue_depth}            admission succeeded
    rejected  {reason}                      terminal: backpressure/limits
    warning   {seq, warning:{rule,...}}     streamed as Secpert fires
    report    {report:{...}, timing:{...}}  terminal: the full RunReport
    error     {code, error, timing}         terminal: contained failure

The ``report`` dict inside the terminal event is byte-for-byte
``RunReport.to_dict()`` — identical to what a batch ``Session.run`` of
the same submission produces (the serve differential tests hold that
line).

Schema discipline mirrors the fleet wire format: every stream opens with
an event carrying ``schema_version`` (:data:`SERVE_SCHEMA_VERSION`);
bump it on any breaking layout change.

v2 (verdict cache): submissions may carry ``options.cache`` and a
``triage`` flag; ``accepted``/``report`` events carry ``cached: bool``
and a ``triage`` event (non-terminal) streams the static profile when
requested.  v1 submissions are still accepted — the new fields default
off, and v1 clients ignore event keys they do not know.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.cache.digest import peer_address
from repro.core.options import RunOptions

#: Version of the serve wire format (submissions and events).
SERVE_SCHEMA_VERSION = 2

#: Versions this daemon accepts: additions in v2 are optional, so v1
#: submissions decode unchanged.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, SERVE_SCHEMA_VERSION})

#: Terminal event kinds — after one of these the stream is complete.
TERMINAL_KINDS = frozenset({"rejected", "report", "error"})

#: Scalar FaultProfile fields that may travel on the wire (the same set
#: ``repro chaos`` exposes as CLI overrides).  Collection-valued fields
#: (eligible syscall sets, errno palettes) keep their profile defaults.
_FAULT_SCALARS = (
    "stall_rate", "errno_rate", "connect_reset_rate",
    "resolve_fail_rate", "quantum_jitter", "max_faults",
)


class ProtocolError(ValueError):
    """A submission or event that does not follow the wire contract."""


# ---------------------------------------------------------------------------
# RunOptions <-> wire


def _wire_bool(value: object) -> bool:
    """Decode a boolean option: only a JSON ``true``/``false`` counts
    (``bool("false")`` would silently turn a string into ``True``)."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


#: The :class:`RunOptions` fields a submission carries as themselves,
#: with the decoder each goes through — the one list the encoder, the
#: decoder and its unknown-key check all read.
WIRE_OPTION_FIELDS = (
    ("block_cache", _wire_bool), ("taint_fastpath", _wire_bool),
    ("provenance", _wire_bool), ("rete", _wire_bool), ("metrics", _wire_bool),
    ("max_ticks", int), ("wall_timeout", float), ("cache", _wire_bool),
)

#: Fields that do not travel as themselves: policy and HarrierConfig
#: overrides are server-side concerns, trace/profile telemetry is local
#: to the caller, and a fault profile travels as the ``fault`` dict
#: (its scalar rates plus the schedule seed).
WIRE_EXEMPT_FIELDS = (
    "policy", "harrier_config", "trace", "profile",
    "fault_profile", "fault_seed",
)


def options_to_wire(options: RunOptions) -> Dict[str, object]:
    """The JSON-safe subset of :class:`RunOptions` a submission carries."""
    wire: Dict[str, object] = {
        name: getattr(options, name) for name, _ in WIRE_OPTION_FIELDS
    }
    if options.fault_profile is not None:
        wire["fault"] = {
            "seed": options.fault_seed,
            **{
                name: getattr(options.fault_profile, name)
                for name in _FAULT_SCALARS
            },
        }
    return wire


def options_from_wire(data: Optional[Mapping[str, object]]) -> RunOptions:
    """Rebuild a :class:`RunOptions` from its wire dict (missing or null
    keys keep their defaults, unknown keys are rejected)."""
    if data is None:
        return RunOptions()
    data = dict(data)
    fault = data.pop("fault", None)
    decoders = dict(WIRE_OPTION_FIELDS)
    unknown = set(data) - set(decoders)
    if unknown:
        raise ProtocolError(f"unknown options field(s): {sorted(unknown)}")
    decoded = {}
    for name, value in data.items():
        if value is None:
            continue
        try:
            decoded[name] = decoders[name](value)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"bad options value for {name!r}: {exc}"
            ) from None
    options = RunOptions(**decoded)
    if fault is not None:
        from repro.faultinject.plan import FaultProfile

        fault = dict(fault)
        seed = int(fault.pop("seed", 0))
        unknown = set(fault) - set(_FAULT_SCALARS)
        if unknown:
            raise ProtocolError(
                f"unknown fault field(s): {sorted(unknown)}"
            )
        profile = FaultProfile(**fault)
        options = replace(
            options, fault_profile=profile, fault_seed=seed
        )
    return options


# ---------------------------------------------------------------------------
# submissions


@dataclass(frozen=True)
class Submission:
    """One unit of serve work: what to run, as what, for whom."""

    #: Inline guest assembly source (one of ``source``/``workload``).
    source: Optional[str] = None
    #: Registry row reference: ``(table_key, workload_name)``.
    workload: Optional[Tuple[str, str]] = None
    #: Guest path identity for inline source.
    path: str = "/bin/guest"
    argv: Optional[Tuple[str, ...]] = None
    stdin: Optional[str] = None
    #: Files seeded into the simulated fs before the run.
    files: Mapping[str, str] = field(default_factory=dict)
    #: Network peers: ``"host:port" -> opening payload`` ("" registers a
    #: plain data sink, anything else a conversation peer that pushes
    #: the payload on connect — the ``--peer``/``--serve`` CLI split).
    peers: Mapping[str, str] = field(default_factory=dict)
    options: RunOptions = field(default_factory=RunOptions)
    #: Admission identity: budgets and rate limits are per tenant.
    tenant: str = "default"
    #: Free-form label echoed back in events (debugging, load tests).
    name: str = ""
    #: Stream a static :class:`~repro.cache.triage.TriageProfile` event
    #: (non-terminal) before the run/hit.  Wire schema v2.
    triage: bool = False

    def __post_init__(self) -> None:
        if (self.source is None) == (self.workload is None):
            raise ProtocolError(
                "a submission needs exactly one of source= or workload="
            )
        for addr in self.peers:
            try:
                peer_address(addr)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "tenant": self.tenant,
            "name": self.name,
            "options": options_to_wire(self.options),
        }
        if self.workload is not None:
            wire["workload"] = {
                "table": self.workload[0], "name": self.workload[1],
            }
        else:
            wire["source"] = self.source
            wire["path"] = self.path
            if self.argv is not None:
                wire["argv"] = list(self.argv)
            if self.stdin is not None:
                wire["stdin"] = self.stdin
            if self.files:
                wire["files"] = dict(self.files)
            if self.peers:
                wire["peers"] = dict(self.peers)
        if self.triage:
            wire["triage"] = True
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, object]) -> "Submission":
        if not isinstance(data, Mapping):
            raise ProtocolError("submission must be a JSON object")
        version = data.get("schema_version", SERVE_SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ProtocolError(
                f"unsupported schema_version {version!r} "
                f"(this daemon speaks "
                f"{sorted(SUPPORTED_SCHEMA_VERSIONS)})"
            )
        workload = data.get("workload")
        if workload is not None:
            workload = (str(workload["table"]), str(workload["name"]))
        source = data.get("source")
        if source is not None:
            source = str(source)
        argv = data.get("argv")
        return cls(
            source=source,
            workload=workload,
            path=str(data.get("path", "/bin/guest")),
            argv=tuple(str(a) for a in argv) if argv is not None else None,
            stdin=(
                str(data["stdin"]) if data.get("stdin") is not None else None
            ),
            files={
                str(k): str(v) for k, v in (data.get("files") or {}).items()
            },
            peers={
                str(k): str(v) for k, v in (data.get("peers") or {}).items()
            },
            options=options_from_wire(data.get("options")),
            tenant=str(data.get("tenant", "default")),
            name=str(data.get("name", "")),
            triage=bool(data.get("triage", False)),
        )


# ---------------------------------------------------------------------------
# events


def encode_event(event: Mapping[str, object]) -> bytes:
    """One event as an NDJSON line."""
    return (json.dumps(event, default=str) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("wire line must decode to a JSON object")
    return data


def accepted_event(
    job: str, queue_depth: int, cached: bool = False
) -> Dict[str, object]:
    return {
        "kind": "accepted",
        "schema_version": SERVE_SCHEMA_VERSION,
        "job": job,
        "queue_depth": queue_depth,
        "cached": cached,
    }


def triage_event(job: str, profile: Dict[str, object]) -> Dict[str, object]:
    """Non-terminal: the static triage profile of the submitted image."""
    return {
        "kind": "triage",
        "schema_version": SERVE_SCHEMA_VERSION,
        "job": job,
        "profile": profile,
    }


def rejected_event(reason: str, detail: str = "") -> Dict[str, object]:
    return {
        "kind": "rejected",
        "schema_version": SERVE_SCHEMA_VERSION,
        "reason": reason,
        "detail": detail,
    }
