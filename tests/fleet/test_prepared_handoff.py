"""Prepared handoff: fork workers run the coordinator's workloads.

With ``cluster`` sharding the coordinator resolves and assembles every
task to order the shards; under ``fork`` each worker inherits its
shard's resolved workloads and template images instead of building
them again.  ``spawn`` and ``workers=1`` still resolve in the worker —
the reference path every report here is compared against.
"""

import functools
import json
import multiprocessing
import os

import pytest

import repro.advers as advers
import repro.core.engine as core_engine
import repro.fleet.worker as fleet_worker
from repro.advers import run_sweep
from repro.core.engine import EngineCache
from repro.core.hth import HTH
from repro.fleet import WorkloadRef, run_fleet, workload_refs
from repro.programs.base import Workload

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the prepared handoff needs the fork start method",
)

BROKEN = WorkloadRef(module="repro.no_such_module", factory="nope",
                     name="ghost")


def _dumps(value):
    return json.dumps(value, sort_keys=True, default=str)


@needs_fork
def test_sweep_reports_identical_across_fork_spawn_and_serial(monkeypatch):
    fork = run_sweep(workers=2)
    serial = run_sweep(workers=1)
    monkeypatch.setattr(
        advers, "run_fleet",
        functools.partial(run_fleet, mp_start_method="spawn"),
    )
    spawn = run_sweep(workers=2)
    assert len(fork.fleet.runs) == 210
    assert not fork.errors
    for other in (serial, spawn):
        assert _dumps(other.fleet.reports) == _dumps(fork.fleet.reports)
        assert _dumps(other.to_dict()) == _dumps(fork.to_dict())


@needs_fork
def test_cluster_fleet_identical_across_fork_spawn_and_serial():
    refs = workload_refs()
    assert len(refs) == 62
    fork = run_fleet(refs, workers=2, shard_by="cluster")
    spawn = run_fleet(refs, workers=2, shard_by="cluster",
                      mp_start_method="spawn")
    serial = run_fleet(refs, workers=1)
    assert not fork.failures
    for other in (spawn, serial):
        assert _dumps(other.reports) == _dumps(fork.reports)
        assert [r.ok for r in other.runs] == [r.ok for r in fork.runs]


@needs_fork
def test_unresolvable_ref_still_gets_the_workers_error_record():
    refs = [BROKEN] + workload_refs(["4"])
    fork = run_fleet(refs, workers=2, shard_by="cluster")
    serial = run_fleet(refs, workers=1)
    record = fork.runs[0]
    assert [r.name for r in fork.failures] == ["ghost"]
    assert "ModuleNotFoundError" in record.error
    assert record.report is None and record.attempts == 1
    assert record.error == serial.runs[0].error
    assert _dumps(fork.reports) == _dumps(serial.reports)


@needs_fork
def test_prepared_workloads_are_never_built_or_run_in_the_coordinator(
    monkeypatch,
):
    coordinator = os.getpid()
    worker_resolves = multiprocessing.get_context("fork").Value("i", 0)
    coordinator_resolves = []
    resolve = WorkloadRef.resolve

    def counted(self):
        if os.getpid() == coordinator:
            coordinator_resolves.append(self.name)
        else:
            with worker_resolves.get_lock():
                worker_resolves.value += 1
        return resolve(self)

    def worker_only(fn):
        def guarded(*args, **kwargs):
            if os.getpid() == coordinator:
                raise AssertionError(f"{fn.__qualname__} in coordinator")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(WorkloadRef, "resolve", counted)
    monkeypatch.setattr(Workload, "build_machine",
                        worker_only(Workload.build_machine))
    monkeypatch.setattr(Workload, "run", worker_only(Workload.run))
    monkeypatch.setattr(HTH, "run", worker_only(HTH.run))
    refs = workload_refs(["4", "8"])
    fleet = run_fleet(refs, workers=2, shard_by="cluster")
    assert not fleet.failures
    assert sorted(coordinator_resolves) == sorted(r.name for r in refs)
    assert worker_resolves.value == 0


@needs_fork
def test_retried_prepared_task_runs_each_attempt_on_a_fresh_machine(
    monkeypatch,
):
    refs = workload_refs(["4"])
    reference = run_fleet(refs, workers=1)
    builds = multiprocessing.get_context("fork").Value("i", 0)
    build = Workload.build_machine

    def counted(self, *args, **kwargs):
        with builds.get_lock():
            builds.value += 1
        return build(self, *args, **kwargs)

    seen = []  # per worker process: retry_reason runs only in workers
    reason = fleet_worker.retry_reason

    def first_attempt_stalls(report):
        seen.append(report)
        if len(seen) % 2:
            return fleet_worker.RETRY_WATCHDOG
        return reason(report)

    monkeypatch.setattr(Workload, "build_machine", counted)
    monkeypatch.setattr(fleet_worker, "retry_reason", first_attempt_stalls)
    fleet = run_fleet(refs, workers=2, shard_by="cluster", backoff=0.0)
    assert [r.retries for r in fleet.runs] == [["watchdog"]] * len(refs)
    assert builds.value == 2 * len(refs)
    # A second attempt on the first attempt's machine would not
    # reproduce the single-attempt reports.
    assert _dumps(fleet.reports) == _dumps(reference.reports)


def test_adopted_template_is_handed_out_without_assembling(monkeypatch):
    workload = workload_refs(["4"])[0].resolve()
    template = EngineCache().template(workload.program_path,
                                      workload.source)
    engine = EngineCache()
    engine.adopt(workload.program_path, workload.source, template)

    def no_assemble(*args):
        raise AssertionError("adopted image was assembled again")

    monkeypatch.setattr(core_engine, "assemble", no_assemble)
    image = workload.image(engine)
    assert image.text is template.text
    assert image.data == template.data and image.data is not template.data
