"""Machine-speed probe: rescales measured times to a fixed nominal speed.

On a shared 2-core machine the speed of the CPU a job runs on drifts by
±20% over seconds, with the same seed and the same code. That drift swamps
the changes the benchmark is meant to resolve. The probe measures it in the
measuring process itself: a SIGALRM handler runs a fixed reference loop
(interpreter work plus small numpy calls, nothing from pointtrack) every
INTERVAL_S of wall time and records how long the loop took. The slowdown at
a moment is the median loop time near it divided by NOMINAL_S; ``scaled``
divides each piece of an interval by the slowdown there, which gives the
interval's length at the nominal speed.

``now`` is a clock that excludes the time spent in the handler, so the
probe's own cost is not charged to the code being measured.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# typical in-job reference-loop time on the machine the benchmark was defined
# on (2 vCPUs, Python 3.11, numpy 2.4); times are reported at this speed
NOMINAL_S = 1.1e-3
WINDOW_S = 0.25    # half-width of the window a local speed is taken from
MIN_SAMPLES = 5
STEP_S = 0.1

_MATRIX = np.linspace(0.5, 1.5, 16).reshape(4, 4)
_PATCH = np.linspace(-1.0, 1.0, 32 * 32 * 8).reshape(32, 32, 8)


def reference_loop() -> float:
    acc = 0
    for i in range(5000):
        acc += i * i
    m = _MATRIX
    for _ in range(40):
        m = _MATRIX @ m @ _MATRIX.T / 16.0
    spectrum = np.fft.fft2(_PATCH, axes=(0, 1))
    return acc + float(m[0, 0]) + float(spectrum[0, 0, 0].real)


class SpeedProbe:
    """Context manager; samples the reference loop while it is active."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.times: list[float] = []       # probe clock at each sample's start
        self.durations: list[float] = []   # reference-loop seconds
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def now_ns(self) -> int:
        return time.perf_counter_ns() - round(self.spent * 1e9)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown_at(self, t: float) -> float:
        """Median reference time within WINDOW_S of probe-clock time t, divided
        by NOMINAL_S; with too few samples there, the median of all samples."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        window = self.durations[lo:hi] if hi - lo >= MIN_SAMPLES else self.durations
        return statistics.median(window) / NOMINAL_S if window else 1.0

    def scaled(self, start: float, end: float) -> float:
        """Seconds the probe-clock interval [start, end) would take at the
        nominal speed, rescaled piecewise in STEP_S pieces."""
        total, t = 0.0, start
        while t < end:
            step = min(STEP_S, end - t)
            total += step / self.slowdown_at(t + step / 2)
            t += step
        return total
