"""Canonical byte serialization and content digests for the verdict cache.

A cache key must mean the same thing in every process that computes it:
a fleet worker populating a shared on-disk store, the serve daemon
answering hits without queueing, and a test re-deriving the key under a
different ``PYTHONHASHSEED`` all have to agree bit for bit.  Python's
``hash()`` is salted per process and dict iteration order is an
implementation detail, so neither may appear anywhere near a key.

:func:`canon_bytes` therefore defines one canonical encoding: every
value is emitted as a type tag plus a length-prefixed payload, dict
items and set members are sorted by their own canonical encodings, and
floats travel as their IEEE-754 bit pattern.  Frozen config dataclasses
(:class:`~repro.core.options.RunOptions` and everything it nests —
policy, harrier config, fault profiles) encode as their qualified class
name plus their sorted field items, so *every* field of every nested
config participates in the key: flip one and the key moves.

The digests built on top:

* :func:`image_digest` — the assembled-image identity (name, every
  instruction including operand shapes, data cells, symbols,
  relocations, basic-block leaders, externs);
* :func:`options_fingerprint` — the frozen :class:`RunOptions`, minus
  the ``cache`` enable flag itself (whether a result may be cached is
  not part of what the result *is*);
* :func:`environment_digest` — argv/env/stdin plus the declarative
  seeded-files/peers environment (:class:`CacheEnv`);
* :func:`run_key` / :func:`workload_key` / :func:`submission_key` — the
  full content-addressed keys the Session, fleet workers, and serve
  daemon use.

Workload setup callbacks are closures and cannot be content-hashed;
:func:`workload_key` pins them by the workload's registry identity
(name, description, source, environment, and the setup function's
``module.qualname``) — the same contract that makes
:class:`repro.fleet.refs.WorkloadRef` resolution deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from collections import OrderedDict
from functools import partial
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.options import RunOptions
from repro.isa.image import Image
from repro.kernel.network import ConversationPeer, SinkPeer

#: Bump when the canonical encoding or any key recipe changes: old
#: on-disk entries then simply miss instead of decoding wrongly.
KEY_SCHEMA = "repro-verdict-cache/1"


class DigestError(TypeError):
    """A value with no canonical byte encoding (e.g. a closure)."""


#: ``id(image.text)`` -> ``(text, name, guard, digest)`` — see
#: :func:`image_digest`.
_IMAGE_DIGEST_MEMO: "OrderedDict[int, Tuple[tuple, str, tuple, str]]" = (
    OrderedDict()
)
_IMAGE_MEMO_CAPACITY = 256


def _mutable_guard(image: Image) -> tuple:
    """Cheap fingerprint of an Image's *mutable* containers.

    ``Image`` is frozen, but ``data`` and ``symbols`` are plain dicts a
    caller could mutate between runs; a digest memoized before such a
    mutation must not answer after it.  This guard is O(cells) integer
    arithmetic — far cheaper than re-running the canonical
    serialization — and moves on any added/removed/re-valued cell or
    symbol.  (A pair of exactly compensating mutations can slip past;
    the memo is a latency optimization for engine-produced images,
    which are fresh copies per run — see :func:`image_digest`.)
    """
    data = image.data
    symbols = image.symbols
    return (
        len(data), sum(data.keys()), sum(data.values()),
        len(symbols), sum(symbols.values()),
    )


def _chunk(tag: bytes, payload: bytes, out: list) -> None:
    out.append(tag)
    out.append(struct.pack(">Q", len(payload)))
    out.append(payload)


def _canon(value: object, out: list) -> None:
    if value is None:
        _chunk(b"N", b"", out)
    elif value is True:
        _chunk(b"T", b"", out)
    elif value is False:
        _chunk(b"F", b"", out)
    elif isinstance(value, int):
        _chunk(b"i", str(value).encode("ascii"), out)
    elif isinstance(value, float):
        _chunk(b"f", struct.pack(">d", value), out)
    elif isinstance(value, str):
        _chunk(b"s", value.encode("utf-8"), out)
    elif isinstance(value, (bytes, bytearray)):
        _chunk(b"b", bytes(value), out)
    elif isinstance(value, enum.Enum):
        cls = type(value)
        _chunk(b"E", f"{cls.__module__}.{cls.__qualname__}".encode(), out)
        _canon(value.value, out)
    elif isinstance(value, (tuple, list)):
        _chunk(b"t", struct.pack(">Q", len(value)), out)
        for item in value:
            _canon(item, out)
    elif isinstance(value, (set, frozenset)):
        members = sorted(canon_bytes(item) for item in value)
        _chunk(b"S", struct.pack(">Q", len(members)), out)
        out.extend(members)
    elif isinstance(value, Mapping):
        items = sorted(
            (canon_bytes(k), canon_bytes(v)) for k, v in value.items()
        )
        _chunk(b"d", struct.pack(">Q", len(items)), out)
        for key, val in items:
            out.append(key)
            out.append(val)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        _chunk(b"D", f"{cls.__module__}.{cls.__qualname__}".encode(), out)
        fields = sorted(f.name for f in dataclasses.fields(value))
        _chunk(b"t", struct.pack(">Q", len(fields)), out)
        for name in fields:
            _canon(name, out)
            _canon(getattr(value, name), out)
    else:
        raise DigestError(
            f"no canonical encoding for {type(value).__name__}: {value!r}"
        )


def canon_bytes(value: object) -> bytes:
    """The canonical, process-independent byte encoding of ``value``."""
    out: list = []
    _canon(value, out)
    return b"".join(out)


def content_digest(*parts: object) -> str:
    """SHA-256 hex digest over the canonical encoding of ``parts``."""
    hasher = hashlib.sha256()
    hasher.update(KEY_SCHEMA.encode("ascii"))
    hasher.update(canon_bytes(tuple(parts)))
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# the key ingredients


def image_digest(image: Image) -> str:
    """Content digest of one assembled image.

    Covers everything the loader consumes: the full instruction tuple
    (opcode, operand shapes and values, source lines), data cells and
    extent, symbols, both relocation tables, basic-block leaders, and
    externs.  A one-instruction (or one-byte-of-data) change moves it.

    A warm-hit lookup must not re-serialize thousands of instructions
    per request, so the digest is memoized two ways: on the (frozen)
    instance itself, and — because ``EngineCache.image`` hands out a
    fresh ``replace()`` of its interned template per call — by the
    identity of the shared text tuple, which *is* stable across a warm
    session.  The memo entry keeps a strong reference to the tuple it
    keyed on and checks ``is`` before answering, so a recycled ``id``
    can never alias.  (The memo digests the image as assembled; loader
    state is applied to per-machine copies after keys are computed.)

    Both memo levels are validated against :func:`_mutable_guard`
    before answering: ``data``/``symbols`` are mutable dicts, and a
    caller-held Image mutated between runs must re-digest rather than
    reuse the stale key (and with it, someone else's cached report).
    """
    guard = _mutable_guard(image)
    cached = image.__dict__.get("_verdict_digest")
    if cached is not None and cached[0] == guard:
        return cached[1]
    ident = id(image.text)
    entry = _IMAGE_DIGEST_MEMO.get(ident)
    if entry is not None and entry[0] is image.text and (
        entry[1] == image.name
    ) and entry[2] == guard:
        return entry[3]
    digest = content_digest(
        "image",
        image.name,
        image.text,
        image.data,
        image.data_size,
        image.symbols,
        image.text_relocations,
        image.data_relocations,
        image.bb_leaders,
        image.externs,
    )
    object.__setattr__(image, "_verdict_digest", (guard, digest))
    _IMAGE_DIGEST_MEMO[ident] = (image.text, image.name, guard, digest)
    while len(_IMAGE_DIGEST_MEMO) > _IMAGE_MEMO_CAPACITY:
        _IMAGE_DIGEST_MEMO.popitem(last=False)
    return digest


def options_fingerprint(options: RunOptions) -> str:
    """Content digest of a frozen :class:`RunOptions`.

    Every field participates — policy, harrier config, engine toggles,
    fault profile + seed, budgets — *except* ``cache`` itself: enabling
    or disabling the cache must not change what a run computes, so it
    cannot change the key either.
    """
    cached = options.__dict__.get("_verdict_fingerprint")
    if cached is not None:
        return cached
    items = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(options)
        if f.name != "cache"
    }
    digest = content_digest("options", items)
    # RunOptions is frozen too; memoized for the same warm-hit reason.
    object.__setattr__(options, "_verdict_fingerprint", digest)
    return digest


def peer_address(addr: str) -> Tuple[str, int]:
    """Split a ``HOST:PORT`` peer address; ``ValueError`` if malformed.

    The one check every way in shares — CLI flags, serve submissions and
    :meth:`CacheEnv.seed` — so a bad address is refused where it enters
    instead of failing inside a run.
    """
    host, _, port = addr.partition(":")
    if host and port.isdigit() and int(port) <= 65535:
        return host, int(port)
    raise ValueError(
        f"peer address must be HOST:PORT with a port in 0..65535, "
        f"got {addr!r}"
    )


@dataclasses.dataclass(frozen=True)
class CacheEnv:
    """The declarative guest environment: seeded files and network peers.

    This is the one description of what a CLI run, a profile or a serve
    submission sets up around its guest.  ``Session.run(cache_env=...)``
    hashes it into the verdict-cache key *and* builds the machine from
    it (:meth:`seed`), so a cached verdict always belongs to the
    environment the machine gets.
    """

    #: ``(path, content)`` pairs seeded into the simulated fs.
    files: Tuple[Tuple[str, str], ...] = ()
    #: ``("host:port", opening_payload)`` pairs; ``""`` payload means a
    #: plain data-sink peer, anything else a peer that pushes the
    #: payload on connect and then hangs up (the ``--peer`` / ``--serve``
    #: CLI split).
    peers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def from_mappings(
        cls,
        files: Optional[Mapping[str, str]] = None,
        peers: Optional[Mapping[str, str]] = None,
    ) -> "CacheEnv":
        return cls(
            files=tuple(sorted((files or {}).items())),
            peers=tuple(sorted((peers or {}).items())),
        )

    def seed(self, hth) -> None:
        """Write the files and register the peers on a fresh machine.

        Both go in sorted order — the order the key hashes them in — so
        two declarations with one key also get one host-address layout.
        """
        for path, content in self.files:
            hth.fs.write_text(path, content)
        for addr, payload in self.peers:
            host, port = peer_address(addr)
            factory = (
                partial(ConversationPeer, host, opening=payload.encode())
                if payload else partial(SinkPeer, host)
            )
            hth.network.add_peer(host, port, factory)


def environment_digest(
    argv: Optional[Sequence[str]],
    env: Optional[Mapping[str, str]],
    stdin: Optional[Union[str, bytes]],
    cache_env: Optional[CacheEnv],
) -> str:
    """Digest of everything the guest observes besides its own image."""
    return content_digest(
        "environment",
        tuple(argv) if argv is not None else None,
        dict(env) if env is not None else None,
        stdin,
        cache_env if cache_env is not None else CacheEnv(),
    )


# ---------------------------------------------------------------------------
# full keys


def run_key(
    image: Image,
    options: RunOptions,
    argv: Optional[Sequence[str]] = None,
    env: Optional[Mapping[str, str]] = None,
    stdin: Optional[Union[str, bytes]] = None,
    cache_env: Optional[CacheEnv] = None,
) -> str:
    """The verdict-cache key for one ``Session.run`` invocation."""
    return content_digest(
        "run",
        image_digest(image),
        options_fingerprint(options),
        environment_digest(argv, env, stdin, cache_env),
    )


def _setup_identity(workload) -> Optional[Tuple[str, str]]:
    if workload.setup is None:
        return None
    setup = workload.setup
    return (
        getattr(setup, "__module__", "") or "",
        getattr(setup, "__qualname__", repr(setup)),
    )


def workload_key(workload, options: RunOptions, engine=None) -> str:
    """The verdict-cache key for one registry :class:`Workload` run.

    The setup closure is pinned by registry identity (see module
    docstring); everything else is content-hashed, including the
    assembled image — so the same source registered under a different
    path/name, or with one patched instruction, keys differently.
    """
    return content_digest(
        "workload",
        workload.name,
        workload.description,
        image_digest(workload.image(engine=engine)),
        tuple(workload.extra_libraries),
        tuple(workload.argv) if workload.argv is not None else None,
        dict(workload.env),
        workload.stdin,
        workload.max_ticks,
        workload.harrier_config,
        _setup_identity(workload),
        options_fingerprint(options),
    )


def submission_key(submission, engine=None) -> str:
    """The verdict-cache key for one serve :class:`Submission`.

    Registry submissions resolve their workload daemon-side (the same
    deterministic resolution a worker performs); inline submissions
    assemble through ``engine`` (or cold) and hash their declarative
    files/peers environment.
    """
    if submission.workload is not None:
        from repro.fleet.refs import WorkloadRef

        table, name = submission.workload
        workload = WorkloadRef.from_registry(table, name).resolve()
        return content_digest(
            "submission-workload",
            workload_key(workload, submission.options, engine=engine),
        )
    if engine is not None:
        image = engine.image(submission.path, submission.source)
    else:
        from repro.isa.assembler import assemble

        image = assemble(submission.path, submission.source)
    return content_digest(
        "submission-source",
        run_key(
            image,
            submission.options,
            argv=submission.argv,
            stdin=submission.stdin,
            cache_env=CacheEnv.from_mappings(
                submission.files, submission.peers
            ),
        ),
    )

