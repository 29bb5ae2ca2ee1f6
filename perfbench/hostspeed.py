"""Host speed, sampled while the benchmark runs, to scale its timings.

On the VM this benchmark was built on (2 vCPUs of an Intel Xeon, Python
3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread) the host switches, for
seconds at a time, between speeds up to 1.8x apart, whatever runs in the
guest; CPU time moves with wall time. Unscaled medians then spread by 10–30%
between runs. So a timer signal interrupts the benchmark every
``PERIOD_S`` seconds and times a fixed float64 forward of one T1 instance
(``oracle.reference_op``, which never calls the program). A timed call's
duration excludes those interruptions and is multiplied by the host speed
sampled during it (or just before it, for calls shorter than the period):
``NOMINAL_MS`` over the reference op's duration. Timings therefore read as
milliseconds at the host's fast speed.
"""

from __future__ import annotations

import signal
import time

import oracle

PERIOD_S = 0.05
# The reference op's duration at the fast speed of the VM named above.
NOMINAL_MS = 1.65
REFERENCE_SIZE = dict(layers=8, heads=8, dim=64, ffn=256, batch=1)


class HostSampler:
    """Context manager that samples host speed from SIGALRM."""

    def __init__(self):
        self.op = oracle.reference_op(**REFERENCE_SIZE)
        self.ratios: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.op()
        t1 = time.perf_counter()
        self.ratios.append(NOMINAL_MS / 1e3 / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """``(result, seconds, scaled seconds)`` of one call of ``fn``.

        ``seconds`` excludes the time spent sampling during the call.
        """
        n0, spent0 = len(self.ratios), self.spent
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0 - (self.spent - spent0)
        during = self.ratios[n0:] or self.ratios[-1:]
        return out, seconds, seconds * sum(during) / len(during)
