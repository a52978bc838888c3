"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q hthbench

Each workload is run at a tiny size (one-second windows) through the
real command, so these take a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from hthbench.tracing import LAYERS, Tracer, resolve
from hthbench.workloads import S9_SOURCE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@lru_cache(maxsize=None)
def run(workload: str, trace: int, attempt: int = 0) -> dict:
    """The result line of one tiny run (``attempt`` tells repeats apart)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hthbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC[kind]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_for_one_seed(workload):
    names = ("isa.instructions", "kernel.syscalls",
             "harrier.dispatches_per_instr")
    first, second = run(workload, 1), run(workload, 1, attempt=1)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name


def _bindings():
    """Every (owner, name) -> object the tracer may replace."""
    found = {}
    for module, attr in LAYERS.values():
        owner, name, original = resolve(module, attr)
        found[(id(owner), name)] = (owner, name, original)
        if "." in attr:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        found[(id(mod), key)] = (mod, key, original)
    return list(found.values())


def test_tracer_restores_every_wrapped_function():
    from repro.api import Session

    bindings = _bindings()
    tracer = Tracer()
    with tracer:
        assert all(getattr(owner, name) is not original
                   for owner, name, original in bindings)
        Session().run(S9_SOURCE, path="/bin/perf")
    assert tracer.spans
    assert all(getattr(owner, name) is original
               for owner, name, original in bindings)
    recorded = len(tracer.spans)
    Session().run(S9_SOURCE, path="/bin/perf")
    assert len(tracer.spans) == recorded


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans.extend([
        ["kernel.run", 0.0, 10.0, -1, 1],
        ["isa.translate", 1.0, 4.0, 0, 1],
        ["isa.summarize", 2.0, 3.0, 1, 1],
    ])
    totals = tracer.layer_totals()
    assert totals["kernel.run"]["self_s"] == 7.0
    assert totals["isa.translate"]["self_s"] == 2.0
    assert totals["isa.summarize"]["self_s"] == 1.0


def test_s9_source_matches_the_section9_bench():
    from benchmarks.bench_performance import WORKLOAD_SOURCE

    assert S9_SOURCE == WORKLOAD_SOURCE


def test_exits_nonzero_without_a_source_tree(tmp_path):
    bench = tmp_path / "hthbench"
    bench.mkdir()
    for path in (ROOT / "hthbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "hthbench/run.py", "--workload", "steady_s9",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
