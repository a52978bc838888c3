"""Fault kinds, profiles, and the record of what a run actually injected.

Two families of faults exist, and the distinction matters for what the
chaos harness may assert:

* **Transparent** faults perturb *when* things happen but not *what* the
  guest observes: a stall parks the syscall through the kernel's existing
  blocked-retry machinery (the guest never sees an error return, the call
  just completes later), and quantum jitter reshapes scheduling slices.
  Detection verdicts are stable under transparent faults by construction,
  so the stability suite asserts exact classification under them.

* **Semantic** faults are guest-visible: a read returns ``-EIO``, a
  connect is refused even though the peer exists, a hostname stops
  resolving.  They drive execution down rare error-handling paths — the
  place related work says trojans hide — but they can legitimately change
  what a program does, so the harness only asserts *graceful degradation*
  (no crash, no hang, a coherent report) rather than verdict equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.kernel import errors
from repro.kernel.syscalls import (
    SYS_OPEN,
    SYS_READ,
    SYS_RESOLVE,
    SYS_SOCKETCALL,
    SYS_WRITE,
)


class FaultKind(enum.Enum):
    """What was done to one intercepted kernel operation."""

    STALL = "stall"                  # transparent one-shot WouldBlock
    ERRNO = "errno"                  # guest-visible negative errno return
    CONNECT_RESET = "connect-reset"  # connect fails despite a live peer
    RESOLVE_FAIL = "resolve-fail"    # DNS lookup fails for a known host
    QUANTUM_JITTER = "quantum-jitter"  # scheduler slice perturbation


@dataclass(frozen=True)
class FaultProfile:
    """Probabilities and shapes of the faults a run may suffer.

    Rates are per *opportunity* (one interceptable syscall dispatch, one
    scheduler quantum).  All randomness is drawn from a single
    ``random.Random(seed)`` stream in arrival order, which is what makes a
    run replayable from its seed.
    """

    #: Chance an eligible syscall is parked once before completing.
    stall_rate: float = 0.0
    #: Syscalls eligible for stalls.  A stall fires *before* the handler
    #: runs (the handler executes exactly once, on the retry), so any
    #: call can stall transparently; the default set is the I/O boundary.
    stall_syscalls: FrozenSet[int] = frozenset(
        {SYS_READ, SYS_WRITE, SYS_OPEN, SYS_SOCKETCALL, SYS_RESOLVE}
    )
    #: Chance an eligible syscall returns an injected errno to the guest.
    errno_rate: float = 0.0
    #: Errno values the injector picks between (uniformly).
    errno_codes: Tuple[int, ...] = (
        errors.EIO, errors.ENOSPC, errors.EAGAIN
    )
    #: Syscalls eligible for errno injection.
    errno_syscalls: FrozenSet[int] = frozenset(
        {SYS_READ, SYS_WRITE, SYS_OPEN}
    )
    #: Chance an outbound connect is reset despite a reachable peer.
    connect_reset_rate: float = 0.0
    #: Chance a SYS_resolve lookup fails for a registered host.
    resolve_fail_rate: float = 0.0
    #: Scheduler quantum perturbation: each quantum is scaled by a factor
    #: drawn uniformly from [1 - jitter, 1 + jitter] (0 disables).
    quantum_jitter: float = 0.0
    #: Hard cap on injected faults per run (None = unlimited).  Stalls and
    #: errno/connect/resolve faults count; quantum jitter does not.
    max_faults: int | None = None


#: Semantics-preserving chaos: stalls plus scheduling jitter.  Used by the
#: chaos stability suite, which asserts verdicts are *unchanged*.
TRANSPARENT_PROFILE = FaultProfile(stall_rate=0.25, quantum_jitter=0.5)

#: Guest-visible chaos: transient errno faults, socket resets, DNS
#: failures (plus jitter).  Used for graceful-degradation testing only.
SEMANTIC_PROFILE = FaultProfile(
    errno_rate=0.05,
    connect_reset_rate=0.25,
    resolve_fail_rate=0.25,
    quantum_jitter=0.5,
)


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually delivered (the replay log)."""

    time: int          # kernel virtual time at injection
    pid: int
    kind: FaultKind
    call_name: str     # syscall (or "quantum") the fault landed on
    detail: str = ""   # errno name, stall reason, jittered size, ...

    def __str__(self) -> str:  # pragma: no cover - debug/CLI rendering
        return (f"t={self.time} pid={self.pid} {self.kind.value} "
                f"{self.call_name} {self.detail}".rstrip())

