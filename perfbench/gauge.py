"""A speed gauge that runs inside the measured process.

The benchmark's host is a shared VM whose cores change speed by up to 2x
from one second to the next, as other tenants come and go.  Such swings
show in wall time and in CPU time alike, so neither is steady enough to
compare two commits with.  The gauge samples the speed while the program
runs: every PERIOD_S of process CPU time a SIGPROF handler times one
round of fixed work: a Python loop that stores small tuples in a dict
(interpreter dispatch, allocation and hashing, which is what the
program's scalar ODE kernel and 2x2 product loops spend their time on).
Gauge.clock() is a clock of nominal time, the time the program would
have taken on an idle core: it advances at the speed of the last round
(NOMINAL_S over the round's time) and stands still during rounds.  The
benchmark times everything with it.

On the reference host (2-vCPU Xeon VM at 2.0 GHz), a round takes 1 ms on
an idle core and up to 2 ms on a contended one.  In a probe of ten
repeats of a short ``verify`` and eight of ``cocycle``, their raw times
spread 14% and 12% (standard deviation over mean), and 1.6% and 1.8%
once normalised.  Of the rounds tried, this one slowed down in the same
proportion as the program; 2x2 numpy products slowed down more, and pure
float arithmetic less.

The handler runs between bytecodes of the main thread and touches none
of the program's state, so outputs stay byte-identical.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05   # process CPU time between rounds
ROUND = 9000      # dict stores per round
NOMINAL_S = 1e-3  # a round's time on an idle core of the reference host


class Gauge:
    def __init__(self):
        self.samples: list[float] = []
        self._running = False
        self._previous = None
        # (nominal time at the end of the last round, end of the last
        # round on the raw clock, speed since then); one attribute, so
        # clock() can tell whether a round ran while it read the time
        self._state = (0.0, time.perf_counter(), 1.0)

    def round(self) -> None:
        nominal, last, speed = self._state
        start = time.perf_counter()
        d = {}
        for i in range(ROUND):
            d[i & 63] = (i, i * 0.5)
        end = time.perf_counter()
        self.samples.append(end - start)
        self._state = (nominal + (start - last) * speed, end,
                       NOMINAL_S / (end - start))

    def clock(self) -> float:
        """Nominal seconds; only differences mean anything."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:
                nominal, last, speed = state
                return nominal + (now - last) * speed

    def _handler(self, signum, frame) -> None:
        self.round()

    def start(self) -> None:
        """Take a round now and one every PERIOD_S of process CPU time."""
        self.round()
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        """Stop the timer and restore the previous handler."""
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            previous = self._previous
            signal.signal(signal.SIGPROF,
                          signal.SIG_DFL if previous is None else previous)
            self._running = False
