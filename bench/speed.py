"""A speed probe that runs inside the measured process, while it runs.

The benchmark's host is shared.  Its speed changes by a quarter or more from
one second to the next and from one minute to the next while nothing in the
benchmark changes: the CPU time of an invocation tracks its wall time, so the
change is not scheduling delay but a slower core (other guests on the same
cores, caches and memory).  Repeats alone do not average that out.

So every untraced invocation carries this probe.  An interval timer raises
``SIGALRM`` every ``INTERVAL_S`` of wall time, and the handler, which Python
runs in the main thread between two bytecodes of the program, times one short
fixed kernel, in turn from ``KERNELS``.  The kernels are the benchmark's own
code, so no change to ``src/`` changes them; they mix what the workloads
spend their time on: interpreter loops over small numpy products, and
SHA-256 keying with float formatting.  (Of the kernels tried, these two
tracked the workloads' wall times best; a pure interpreter loop and small
eigensolves tracked them worse.)  Their times, sampled all through the call,
say how slow the core was during it:

    slowness = mean over kernels of (mean sample time / REFERENCE_S[kernel])
    norm_wall_s = (wall time - time spent in the probe) / slowness

``norm_wall_s`` is the call's wall time in seconds of the reference machine
(Intel Xeon, 2 vCPUs under KVM, one BLAS thread) at its median speed, at
which the kernels take ``REFERENCE_S``.  The probe costs about 2% of the
call, and that time is taken out of the wall time exactly.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# A call too short for this many samples of every kernel is topped up right
# after it returns.
MIN_SAMPLES = 3

_rng = np.random.default_rng(20240322)
_GRAMS = _rng.standard_normal((20, 10, 10))
_W = _rng.standard_normal((10, 10))


def _matmul() -> None:
    acc = np.zeros((10, 10))
    for _ in range(8):
        for g in _GRAMS:
            acc += g @ _W


def _keying() -> None:
    digest = b""
    rows = []
    for i in range(200):
        digest = hashlib.sha256(digest + i.to_bytes(4, "little")).digest()
        rows.append(f"{i},{digest[0] / 255.0!r}")
    ",".join(rows)


KERNELS = {"matmul": _matmul, "keying": _keying}
# Each kernel's median sample time on the reference machine, in seconds, over
# 199 invocations of all three workloads.
REFERENCE_S = {"matmul": 4.5e-4, "keying": 5.5e-4}


class SpeedProbe:
    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        self.inside_s = 0.0  # probe time inside the measured call
        self._order = list(KERNELS.items())
        self._next = 0
        self._busy = False

    def _sample(self, name, kernel) -> None:
        clock = time.perf_counter
        start = clock()
        kernel()
        self.samples[name].append(clock() - start)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while a kernel runs is dropped
            return
        self._busy = True
        try:
            name, kernel = self._order[self._next % len(self._order)]
            self._next += 1
            self._sample(name, kernel)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer; ``inside_s`` is then the probe's share of the call."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.inside_s = sum(sum(v) for v in self.samples.values())

    def top_up(self) -> None:
        """Sample, after the call, each kernel that has too few samples."""
        for name, kernel in self._order:
            while len(self.samples[name]) < MIN_SAMPLES:
                self._sample(name, kernel)

    def slowness(self) -> float:
        """How much slower than the reference machine the core ran (1.0: as fast)."""
        return statistics.mean(
            statistics.mean(self.samples[name]) / REFERENCE_S[name] for name in KERNELS
        )
