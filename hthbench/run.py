"""Run one HTH benchmark workload; print its metrics and a result line.

    python3 hthbench/run.py --workload steady_s9 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (``src/repro`` must be there).
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` repeats the timed window as the untraced reference and then
makes the traced passes that give the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every operation's verdict is checked; any failure makes ``correct`` false
and the exit code 1.  See ``hthbench/README.md`` for the workloads, the
metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: The seed results are quoted at, and the held-out seed a later claim
#: must also hold on (choosing-metrics: a seed not used while the change
#: was written).
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: Set-ups per run for ``setup_s``: this process plus fresh interpreters
#: (``probe.py``); the median is reported.
SETUP_SAMPLES = 7


def fingerprint(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """Host, code and input identity of one result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of ``workload`` in a fresh interpreter, at
    reference host speed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hthbench" / "probe.py"), workload,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for (Linux
    reports ``ru_maxrss`` in KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload of BENCHMARK.json, or 'all' for each in turn",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hthbench: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from hthbench.calibration import timed_setup
    from hthbench.tracing import Tracer
    from hthbench.workloads import OUT_DIR, WORKLOADS, percentile

    if args.workload == "all":
        # Each workload in its own fresh interpreter, one after another.
        codes = [
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be all or one of "
                     f"{', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = fingerprint(args.workload, args.seed, args.seconds)
    print(f"hthbench {args.workload} trace={args.trace}")
    print(f"fingerprint {json.dumps(info, sort_keys=True)}")

    workload = WORKLOADS[args.workload](args.seed)
    try:
        setups = [timed_setup(workload)]
        workload.generate(args.seconds)
        timed = workload.timed(args.seconds)
        # The traced passes below check (and count) more operations.
        completed = timed.completed
        layers = None
        if args.trace:
            tracer = Tracer()
            layers = workload.traced(tracer, timed)
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
            )
            tracer.chrome_trace(trace_path, info)
            print(f"chrome trace {trace_path} ({len(tracer.spans)} spans)")
    finally:
        workload.close()
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]

    # Times at reference host speed (see calibration.py).
    raw = timed.latencies
    lat = [latency * scale for latency, scale in zip(raw, timed.scales)]
    print(f"host speed factor {timed.scaled_wall / timed.wall:.4f} "
          f"(n={len(timed.scales)}); "
          f"as measured: p50 {percentile(raw, 0.5) * 1e3:.4f} ms, "
          f"{completed / timed.wall:.4f} ops/s")
    rows = {
        "setup_s": (statistics.median(setups), len(setups)),
        "throughput_per_s": (completed / timed.scaled_wall, completed),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, len(lat)),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, len(lat)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        # Over every checked operation, the traced passes' included.
        "error_rate": (timed.failed / timed.attempted, timed.attempted),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "ratio"
    for name, (value, count) in rows.items():
        print(f"  {name:<18} {value:>12.4f} {units[name]:<6} (n={count})")
    escalated = timed.extra.get("escalated", [])
    if escalated:
        print(f"  known escalations {len(escalated)} of {timed.attempted} "
              f"(SweepFleet.KNOWN_ESCALATIONS; not failures)")
    for line in escalated[:10]:
        print(f"  escalation: {line}")
    for failure in timed.failures:
        sys.stderr.write(f"hthbench: FAILED {failure}\n")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        unknown = set(layers) - set(names)
        if unknown:
            raise KeyError(f"per-layer metrics not in BENCHMARK.json: "
                           f"{sorted(unknown)}")
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        for name, entry in metrics.items():
            print(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    else:
        metrics = {
            m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    result = {
        "correct": timed.failed == 0,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if timed.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
