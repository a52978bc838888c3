"""Layer tracing from outside the program.

The traced run wraps the public entry point of each layer in a span
recorder, runs the workload, and restores every original afterwards.
Nothing in ``src/`` is edited: a function is replaced wherever a
``repro.*`` module binds it by name (``assemble`` is imported by name
into several modules), a method is replaced on its class.

A span is ``[layer, start, end, parent, op]``: wall-clock seconds from
``time.perf_counter``, the index of the enclosing span (-1 at top
level) and the identifier of the operation it belongs to (one guest
program, variant or submission).  Spans stay in memory; self time is a
span's duration minus that of its direct children, and
:meth:`Tracer.chrome_trace` writes them in Chrome trace-event form.

Spans recorded in a forked child (fleet and serve workers inherit the
wrappers) stay in the child.  Workloads that cross a process boundary
attribute those layers with an extra in-process pass instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

#: layer -> (module, attribute): a module-level function, or
#: ``Class.method`` for a method.  One entry per layer boundary the
#: per-layer metrics name.
LAYERS: Dict[str, Tuple[str, str]] = {
    "isa.assemble": ("repro.isa.assembler", "assemble"),
    "isa.translate": ("repro.isa.translate", "translate_block"),
    "isa.summarize": ("repro.isa.translate", "summarize_taint"),
    "kernel.load": ("repro.kernel.loader", "Loader.load"),
    "kernel.run": ("repro.kernel.kernel", "Kernel.run"),
    "secpert.build": ("repro.secpert.secpert", "Secpert.__init__"),
    "secpert.analyze": ("repro.secpert.secpert", "Secpert.analyze"),
    "core.machine": ("repro.core.hth", "HTH.__init__"),
    "core.report_encode": ("repro.core.report", "RunReport.to_dict"),
    "programs.mutate": ("repro.programs.mutate", "variants"),
    "fleet.shard": ("repro.fleet.engine", "shard"),
}


def resolve(module: str, attr: str) -> Tuple[object, str, Callable]:
    """(owner, name, original callable) for one ``LAYERS`` entry."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs span-recording wrappers and keeps the spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, Callable]] = []

    # -- installing ---------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [layer, clock(), 0.0, stack[-1] if stack else -1,
                      tracer.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> "Tracer":
        for layer, (module, attr) in LAYERS.items():
            owner, name, original = resolve(module, attr)
            wrapper = self._wrap(layer, original)
            if "." in attr:
                self._patch(owner, name, wrapper)
                continue
            # Every repro module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ------------------------------------------------------------
    def begin_op(self) -> int:
        """Start a new operation; later spans carry its identifier."""
        self.op += 1
        return self.op

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """layer -> {"calls": n, "self_s": seconds} over every span."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
        }
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += (end - start) - child_time[i]
        return totals

    def chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto loads it)."""
        pid = os.getpid()
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for layer, start, end, parent, op in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
