"""Machine-speed sampling during the measured work.

The benchmark host shares its cores with other tenants.  The same solve
ran at 45 to 65 ms within 15 seconds, and the same fixed loop took 3 ms
in one stretch and 6 ms in the next, in CPU time as much as in wall
time: the slowdown comes from neighbours on the same physical core, not
from being descheduled.  Stretches last from milliseconds to seconds.

So while a run measures, an interval timer interrupts it every
``INTERVAL_S`` of wall time and times a short fixed kernel.  The samples
are spread evenly over the run's wall time, so the mean of
``REFERENCE_S / sample`` is the run's average speed relative to the
reference machine, and

    normalized = wall * mean(REFERENCE_S / sample)

is the time the same work would have taken there.  A slow stretch slows
the program and the kernel alike and cancels out, while a slower program
shows in full.  The kernel does the kinds of work basiq spends its time
on (column slices and small dot products from a Python loop, JSON round
trips, float parsing); it is benchmark code and never changes with the
program, so runs of two commits stay comparable.

Time spent in the sampler is kept out of every measurement: ``clock()``
is ``perf_counter()`` minus the sampler's own time.
"""

import json
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02       # wall time between samples
REFERENCE_S = 0.1e-3    # the kernel's time on the reference machine, unloaded

_A = np.asfortranarray(np.random.default_rng(0).standard_normal((64, 64)))
_B = np.random.default_rng(1).standard_normal(64)
_DOC = [{"id": f"q{i:05d}", "text": f"what color is the bench {i}?", "score": i / 97.0}
        for i in range(8)]
_NUMBERS = " ".join(map(repr, np.random.default_rng(2).standard_normal(32).tolist()))


def _kernel():
    t0 = perf_counter()
    r = _B.copy()
    for j in range(24):
        col = _A[:, j]
        rho = float(col @ r)
        if rho != 0.0:
            r -= col * (1e-3 * rho)
    json.loads(json.dumps(_DOC))
    sum(float(p) for p in _NUMBERS.split())
    return perf_counter() - t0


class Sampler:
    """Kernel samples taken on a timer while running; one per process."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0    # wall seconds spent inside the sampler
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:      # a signal that arrives while sampling is dropped
            return
        self._busy = True
        t0 = perf_counter()
        _kernel()   # warm: the program has just evicted the kernel's code
        self.samples.append(_kernel())
        self.spent += perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Wall seconds that exclude the sampler's own time."""
        return perf_counter() - self.spent

    def factor(self, first=0):
        """Mean speed relative to the reference machine, over samples ``first``...

        One factor per run: a step is too short to hold enough samples
        of its own, and the mean over the run is exact for its total.
        """
        return statistics.fmean(REFERENCE_S / k for k in self.samples[first:])
