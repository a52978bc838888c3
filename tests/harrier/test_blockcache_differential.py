"""Differential suite: every registered workload, cached vs interpreted,
and taint fast path on vs off.

The block translation cache and the zero-taint fast path are pure
performance substrates — it must be impossible to tell from any
observable output which engine executed the guest or which dataflow
path tagged it.  This runs the entire Table 4-8 + macro + extension +
scenario registries through both engines and both dataflow paths and
asserts the *full* report fingerprint matches: verdict, warnings,
events, console output, fault log, virtual clock, per-process exit
codes, and the monitor's internal shadow state (BB counters,
register/memory tags).  A last test shares one warm engine across the
whole matrix, so translated plans (library plan tables included) and
installed summary appliers are reused across layouts.
"""

import importlib
import random

import pytest

_REGISTRIES = (
    ("table4", "repro.programs.micro.execflow", "table4_workloads"),
    ("table5", "repro.programs.micro.resource", "table5_workloads"),
    ("table6", "repro.programs.micro.infoflow", "table6_workloads"),
    ("table7", "repro.programs.trusted.registry", "table7_workloads"),
    ("table8", "repro.programs.exploits.registry", "table8_workloads"),
    ("macro", "repro.programs.macro.registry", "macro_workloads"),
    ("ext", "repro.programs.extensions", "extension_workloads"),
    ("scenarios", "repro.programs.scenarios", "scenario_workloads"),
)


def _all_workloads():
    out = []
    for table, module_name, factory in _REGISTRIES:
        module = importlib.import_module(module_name)
        for workload in getattr(module, factory)():
            out.append(pytest.param(workload, id=f"{table}-{workload.name}"))
    return out


def _shadow_fingerprint(hth):
    """Monitor-internal state per process, in pid order."""
    rows = []
    for pid in sorted(hth.kernel.procs):
        proc = hth.kernel.procs[pid]
        shadow = proc.meta.get("harrier.shadow")
        if shadow is None:
            rows.append((pid, None))
            continue
        rows.append((
            pid,
            dict(shadow.bb_counts),
            shadow.last_app_bb,
            shadow.regs.snapshot(),
            dict(shadow.memory.cell_tags),
        ))
    return rows


def _run_fingerprint(workload, block_cache, taint_fastpath=True,
                     provenance=True, engine=None):
    from repro.core.options import RunOptions

    hth = workload.build_machine(
        options=RunOptions(
            block_cache=block_cache, taint_fastpath=taint_fastpath,
            provenance=provenance,
        ),
        engine=engine,
    )
    report = hth.run(
        workload.image(engine=engine),
        argv=workload.argv or [workload.program_path],
        env=workload.env,
        stdin=workload.stdin,
        max_ticks=workload.max_ticks,
    )
    return {
        "verdict": report.verdict,
        # repr() includes the evidence trail, so this fingerprint also
        # holds evidence bit-identity across execution modes.
        "warnings": [repr(w) for w in report.warnings],
        "events": [str(e) for e in report.events],
        "console": report.console_output,
        "exit_code": report.exit_code,
        "reason": report.result.reason,
        "ticks": report.result.ticks,
        "instructions": report.result.instructions,
        "exit_codes": report.result.exit_codes,
        "faults": report.faults,
        "killed_by_monitor": report.killed_by_monitor,
        "shadow": _shadow_fingerprint(hth),
    }


@pytest.mark.parametrize("workload", _all_workloads())
def test_cached_execution_is_indistinguishable(workload):
    cached = _run_fingerprint(workload, block_cache=True)
    interp = _run_fingerprint(workload, block_cache=False)
    for key in cached:
        assert cached[key] == interp[key], (
            f"{workload.name}: {key} diverges between block-cache and "
            f"interpreter execution"
        )


@pytest.mark.parametrize("workload", _all_workloads())
def test_fastpath_is_indistinguishable(workload):
    fast = _run_fingerprint(workload, block_cache=True, taint_fastpath=True)
    slow = _run_fingerprint(workload, block_cache=True, taint_fastpath=False)
    for key in fast:
        assert fast[key] == slow[key], (
            f"{workload.name}: {key} diverges between summary fast path "
            f"and per-transfer template replay"
        )


@pytest.mark.parametrize("workload", _all_workloads())
def test_provenance_recorder_is_transparent(workload):
    """Disabling the evidence recorder changes nothing but the evidence.

    The recorder is an observer: verdicts, warnings (modulo their
    ``evidence`` field, which is excluded from SecurityWarning equality),
    events, clocks, and shadow state must be identical with it on or
    off — otherwise recording trails would perturb detection.
    """
    on = _run_fingerprint(workload, block_cache=True, provenance=True)
    off = _run_fingerprint(workload, block_cache=True, provenance=False)
    on_warnings = on.pop("warnings")
    off_warnings = off.pop("warnings")
    # Strip the evidence trail out of the reprs before comparing.
    import re

    def strip(reprs):
        return [re.sub(r"evidence=.*\)$", "evidence=...)", r)
                for r in reprs]

    assert strip(on_warnings) == strip(off_warnings), (
        f"{workload.name}: warnings diverge when provenance is disabled"
    )
    for key in on:
        assert on[key] == off[key], (
            f"{workload.name}: {key} diverges when provenance is disabled"
        )


@pytest.mark.parametrize("taint_fastpath", [True, False],
                         ids=["fastpath", "slowpath"])
def test_shared_engine_is_indistinguishable(taint_fastpath):
    """Every workload twice on one EngineCache, in a seeded shuffled
    order: each run must equal that workload's fresh-machine run.

    Exercises what the per-workload tests cannot: cached layouts, shared
    library plan tables and installed summary appliers carried from one
    machine (and one main image) into the next.
    """
    from repro.core.engine import EngineCache

    params = _all_workloads()
    fresh = {
        p.id: _run_fingerprint(
            p.values[0], block_cache=True, taint_fastpath=taint_fastpath
        )
        for p in params
    }
    order = params * 2
    random.Random(2006).shuffle(order)
    engine = EngineCache()
    for p in order:
        shared = _run_fingerprint(
            p.values[0], block_cache=True, taint_fastpath=taint_fastpath,
            engine=engine,
        )
        for key in shared:
            assert shared[key] == fresh[p.id][key], (
                f"{p.id}: {key} diverges on a shared engine"
            )
