"""Host-speed calibration: times at a reference host speed.

The reference host is shared with other machines.  A fixed loop of pure
Python runs up to 1.6 times slower during busy periods that last seconds
to tens of seconds, and the program slows down with it.  So the benchmark
times a fixed kernel of pure Python next to the operations it measures,
and scales each measured time by ``CALIBRATION_REF_S / kernel time``.
The kernel is timed where the operations run:

* :class:`HostSpeed`, in the benchmark process, between operations,
  while the system under test is idle;
* :class:`WorkerSpeed`, inside forked fleet workers, after a task.
"""

from __future__ import annotations

import bisect
import fcntl
import os
import statistics
import struct
import time
from typing import Dict, List, Tuple

clock = time.perf_counter

#: The kernel's duration that defines reference speed.
CALIBRATION_REF_S = 1.0e-3


def calibration_kernel() -> int:
    """Fixed pure-Python work: arithmetic, dict, str, small objects and a
    sort.  It takes about 1 ms at reference speed."""
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    table: Dict[int, int] = {}
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) * (i % 7)
    pairs = [(i, [i], {"k": i}) for i in range(600)]
    return acc + len(sorted(table.items())) + len(pairs)


def timed_kernel() -> float:
    start = clock()
    calibration_kernel()
    return clock() - start


class HostSpeed:
    """Kernel timings taken in this process between operations.

    :meth:`scale` converts a time measured at ``stamp`` to reference
    speed from the samples nearest to it.  ``spent`` is the time spent
    sampling, which a window's measured wall time leaves out.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            duration = timed_kernel()
            self.times.append(clock())
            self.durations.append(duration)
            self.spent += duration

    def scale(self, stamp: float) -> float:
        """Reference / measured speed at ``stamp``: the median of the two
        samples before it and the two after."""
        i = bisect.bisect_left(self.times, stamp)
        near = self.durations[max(0, i - 2):i + 2]
        return CALIBRATION_REF_S / statistics.median(near)

    @property
    def factor(self) -> float:
        """Reference / measured speed over every sample."""
        return CALIBRATION_REF_S / statistics.median(self.durations)


class WorkerSpeed:
    """Kernel timings taken inside fleet workers, next to their tasks.

    While active, ``repro.fleet.worker.run_task_with_retry`` is wrapped:
    a worker forked from this process reports, after each task, its pid,
    the task index, the time and the task's CPU seconds, and times the
    kernel (at most every ``INTERVAL`` seconds).  :meth:`drain` reads the
    reports and gives each task index the scale of its worker's samples
    nearest in time, and the task's CPU seconds.
    """

    INTERVAL = 0.02
    #: pid, task index, end time, kernel seconds (-1: not sampled), task
    #: CPU seconds.
    _FORMAT = "iiddd"

    def __enter__(self) -> "WorkerSpeed":
        import repro.fleet.worker as fleet_worker

        self._module = fleet_worker
        self._original = original = fleet_worker.run_task_with_retry
        self._read, write = os.pipe()
        self._write = write
        for fd in (self._read, write):
            flags = fcntl.fcntl(fd, fcntl.F_GETFL)
            fcntl.fcntl(fd, fcntl.F_SETFL, flags | os.O_NONBLOCK)
        last = [float("-inf")]
        interval, form = self.INTERVAL, self._FORMAT

        def run_task_with_retry(session, task, *args, **kwargs):
            cpu = time.process_time()
            wire = original(session, task, *args, **kwargs)
            cpu = time.process_time() - cpu
            end = clock()
            if end - last[0] >= interval:
                duration = timed_kernel()
                last[0] = clock()
            else:
                duration = -1.0
            try:
                # Under PIPE_BUF bytes, so concurrent workers never
                # interleave a report.
                os.write(write, struct.pack(form, os.getpid(), task.index,
                                            end, duration, cpu))
            except BlockingIOError:  # the parent stopped reading
                pass
            return wire

        fleet_worker.run_task_with_retry = run_task_with_retry
        return self

    def drain(self) -> Dict[int, Tuple[float, float]]:
        """Task index -> (scale, CPU seconds); ``spent`` becomes the
        seconds workers spent sampling."""
        data = b""
        while True:
            try:
                chunk = os.read(self._read, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        workers: Dict[int, HostSpeed] = {}
        ends: Dict[int, tuple] = {}
        for pid, index, end, duration, cpu in struct.iter_unpack(
            self._FORMAT, data
        ):
            ends[index] = (pid, end, cpu)
            if duration >= 0:
                host = workers.setdefault(pid, HostSpeed())
                host.times.append(end)
                host.durations.append(duration)
                host.spent += duration
        self.spent = sum(host.spent for host in workers.values())
        return {
            index: (workers[pid].scale(end), cpu)
            for index, (pid, end, cpu) in ends.items()
        }

    def __exit__(self, *exc) -> None:
        self._module.run_task_with_retry = self._original
        os.close(self._read)
        os.close(self._write)


def timed_setup(workload) -> float:
    """Seconds ``workload.setup()`` takes, at reference host speed."""
    host = HostSpeed()
    host.sample(10)
    start = clock()
    workload.setup()
    elapsed = clock() - start
    host.sample(10)
    return elapsed * host.factor
