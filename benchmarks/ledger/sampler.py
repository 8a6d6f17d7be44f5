"""How fast the host runs Python right now, sampled on every CPU.

This host is a small virtual machine whose vCPUs slow down by 1.1x to 1.7x
for seconds to minutes at a time, independently of each other, with what
its neighbours do. CPU time stretches with wall time and no steal time is
reported, so nothing the ledger measures is immune. What can be done is to
measure the stretch and divide by it.

Run as a program (``sampler.py CPU OUT``) this pins itself to one CPU and,
every 10 ms, times one fixed *kernel*: a loop of what the program's hot
paths are made of (integer arithmetic, tuples, dict stores, str to bytes).
On SIGTERM it writes ``(time, duration)`` pairs to OUT. A kernel takes a
fifth of a millisecond, so a sampler costs the CPU it sits on 2-3%.

:class:`Samplers` starts one per CPU and, once stopped, says how long the
kernel took on given CPUs over a given span of ``time.perf_counter`` (which
is CLOCK_MONOTONIC here, shared between processes), and from that how long
the span would have been at the reference speed.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from array import array

#: What the kernel takes on the host the ledger was sized on when nothing
#: disturbs it: the 1st percentile of its samples. That percentile moved
#: by 1-2% between 6 s blocks, which is why it is a constant here and not
#: measured in every run. Scaled times are seconds on that host, calm.
REFERENCE_S = 210e-6

INTERVAL_S = 0.010

#: A span shorter than the sampling interval still wants a few samples.
MARGIN_S = 0.025

#: The host's speed is taken as constant over this long.
STEP_S = 0.050


def kernel():
    table = {}
    total = 0
    for index in range(1500):
        total += index * index % 7
    for index in range(500):
        item = (index, str(index))
        table[index & 63] = item
        total += len(item[1].encode())
    return total


def main(argv):
    cpu, out_path = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    stopped = []
    signal.signal(signal.SIGTERM, lambda *args: stopped.append(True))
    log = array("d")
    clock = time.perf_counter
    parent = os.getppid()
    while not stopped and os.getppid() == parent:  # an orphan stops by itself
        began = clock()
        kernel()
        took = clock() - began
        log.extend((began, took))
        time.sleep(max(0.0, INTERVAL_S - took))
    with open(out_path, "wb") as handle:
        log.tofile(handle)
    return 0


class Samplers:
    """One sampler process on each of *cpus*."""

    def __init__(self, work_dir, cpus):
        self._paths = {
            cpu: os.path.join(work_dir, f"sampler-{cpu}.bin") for cpu in cpus
        }
        self._processes = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__), str(cpu), path])
            for cpu, path in self._paths.items()
        ]
        self._series = {}  # cpu -> (sample times, running sum of durations)

    def stop(self):
        """End the samplers and read what they saw."""
        for process in self._processes:
            process.send_signal(signal.SIGTERM)
        for process in self._processes:
            process.wait()
        for cpu, path in self._paths.items():
            log = array("d")
            with open(path, "rb") as handle:
                log.frombytes(handle.read())
            sums = [0.0]
            for took in log[1::2]:
                sums.append(sums[-1] + took)
            self._series[cpu] = (log[0::2], sums)

    def reference_s(self, cpus, since, until):
        """How long ``[since, until]`` would have been at the reference
        speed: its time, step by step, over how much slower than
        ``REFERENCE_S`` the kernel ran on *cpus* around that step."""
        total = 0.0
        while since < until:
            step_end = min(until, since + STEP_S)
            total += (
                (step_end - since) * REFERENCE_S / self.kernel_s(cpus, since, step_end)
            )
            since = step_end
        return total

    def kernel_s(self, cpus, since, until):
        """Mean kernel time on *cpus* over ``[since, until]``."""
        means = []
        for cpu in cpus:
            times, sums = self._series[cpu]
            first = bisect.bisect_left(times, since - MARGIN_S)
            last = bisect.bisect_right(times, until + MARGIN_S)
            if last == first:  # the sampler was not up yet, or stalled
                first, last = max(0, first - 1), min(len(times), last + 1)
            means.append((sums[last] - sums[first]) / (last - first))
        return sum(means) / len(means)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
