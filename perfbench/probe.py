"""Machine-speed probe: converts measured intervals into reference seconds.

The small shared machines this benchmark runs on change speed by
themselves: a fixed computation flips between two speeds about 1.8x apart,
in phases of a few to a few tens of seconds, and CPU time moves with wall
time (contention or clock speed, not descheduling).  A run of any length
that fits the time limit catches those phases in varying shares, so raw
seconds of the same code spread by 20-40% between runs.

`SpeedProbe` measures the speed beside the program instead.  While it is
active, a SIGALRM handler in the benchmark's one thread runs a fixed
reference computation every PERIOD seconds (under 1 ms of Fraction and dict
arithmetic, the same kind of work as the program's) and records when it ran.
`seconds(a, b)` is the perf_counter interval [a, b], without the probe's own
time, with each stretch between two probes scaled by REFERENCE_S over the
mean duration of those two probes (each taken as the median of itself and
its neighbours, so that one interrupted probe does not count as a phase):
the time the interval would have taken
had the machine run the reference computation in exactly REFERENCE_S
throughout.  A program change that does more or less work moves it in
proportion; the machine's speed changes largely do not.  REFERENCE_S is a
fixed constant, the probe's duration in the fast phase of a 2-vCPU Intel Xeon
VM under Python 3.11, so reference seconds there read like its fast-phase
seconds.
"""

from bisect import bisect_right
from fractions import Fraction
import signal
import statistics
from time import perf_counter

from oracle import pmul, rref

PERIOD = 0.1
REFERENCE_S = 0.00085

_P = {(i, 3 - i): Fraction(i - 2, i + 1) for i in range(4)}
_Q = {(i, 4 - i): Fraction(3 - i, 2 * i + 1) for i in range(5)}
_M = [[Fraction((7 * i + 3 * j) % 11 - 5) for j in range(6)] for i in range(6)]


def reference_work():
    """The fixed computation the probe times."""
    pmul(pmul(_P, _Q), _Q)
    rref(_M)


class SpeedProbe:
    """Context manager that samples machine speed while it is active."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.samples = []        # (start, end) of each reference computation
        self._previous = None
        self._cum = None

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        reference_work()
        self.samples.append((start, perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._cum = None
        return False

    # -- reference time ----------------------------------------------------

    def _prepare(self):
        starts = [s for s, _ in self.samples]
        raw = [e - s for s, e in self.samples]
        # a lone slow probe (an interrupt landing in it) is not a phase: median of 3 neighbours
        widths = [statistics.median(raw[max(i - 1, 0):i + 2]) for i in range(len(raw))]
        # scale of the stretch after probe i: reference over the mean of probes i and i+1
        scales = [2 * REFERENCE_S / (w + v) for w, v in zip(widths, widths[1:])]
        scales.append(REFERENCE_S / widths[-1])
        cum = [0.0]
        for i in range(len(starts) - 1):
            cum.append(cum[-1] + scales[i] * (starts[i + 1] - self.samples[i][1]))
        self._cum = (starts, scales, cum)

    def _at(self, t):
        """Reference seconds from the first probe's start to t."""
        starts, scales, cum = self._cum
        i = bisect_right(starts, t) - 1
        if i < 0:
            return (t - starts[0]) * scales[0]
        end = self.samples[i][1]
        return cum[i] + (scales[i] * (t - end) if t > end else 0.0)

    def seconds(self, a, b):
        """Reference seconds of the perf_counter interval [a, b]."""
        if self._cum is None:
            self._prepare()
        return self._at(b) - self._at(a)

    def summary(self):
        """The probe durations (ms) as a drift witness: quartiles, extremes, count."""
        widths = sorted(1000 * (e - s) for s, e in self.samples)
        q1, q2, q3 = statistics.quantiles(widths, n=4) if len(widths) > 1 else widths * 3
        return {"probe_ms": {"min": widths[0], "q1": q1, "median": q2, "q3": q3,
                             "max": widths[-1], "n": len(widths)},
                "period_s": self.period, "reference_s": REFERENCE_S}
