"""Basic-block frequency tracking (paper section 7.4).

Only *application* basic blocks are counted: when execution is inside a
trusted shared object (the execve wrapper in libc, say), the event is
attributed to the "last" application basic block executed before entering
the library — this is how a rarely-exercised malicious function in the
application is distinguished even though every syscall funnels through
libc (Figure 3).
"""

from __future__ import annotations

from typing import Tuple

from repro.harrier.state import ProcessShadow


class CodeExecutionPatterns:
    """Per-step leader bookkeeping over a :class:`ProcessShadow`."""

    def observe(self, shadow: ProcessShadow, pc: int) -> None:
        if pc in shadow.app_leaders:
            shadow.bb_counts[pc] = shadow.bb_counts.get(pc, 0) + 1
            shadow.last_app_bb = pc

    def observe_leads(self, shadow: ProcessShadow, leads,
                      executed: int) -> None:
        """:meth:`observe` every superblock leader (``(offset, pc)``
        pairs, in order) whose first instruction retired."""
        app_leaders = shadow.app_leaders
        counts = shadow.bb_counts
        for offset, pc in leads:
            if offset >= executed:
                return
            if pc in app_leaders:
                counts[pc] = counts.get(pc, 0) + 1
                shadow.last_app_bb = pc

    def event_context(self, shadow: ProcessShadow) -> Tuple[int, str]:
        """(frequency, address) attached to an outgoing event.

        Frequency is the execution count of the last application basic
        block; before any app block has run (loader shim territory) it
        defaults to 1.
        """
        bb = shadow.last_app_bb
        if bb is None:
            return 1, "0"
        return shadow.bb_counts.get(bb, 1), format(bb, "x")
