"""Time one workload's set-up in a fresh interpreter; print the seconds
at reference host speed (``calibration.timed_setup``).

    python3 hthbench/probe.py <workload> <seed>

``run.py`` starts this several times per run, so that ``setup_s`` is a
median of independent cold starts rather than a single one.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hthbench.calibration import timed_setup  # noqa: E402
from hthbench.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    try:
        elapsed = timed_setup(workload)
    finally:
        workload.close()
    print(elapsed)


if __name__ == "__main__":
    main()
