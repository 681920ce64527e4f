"""A fixed reference tick, timed ten times a second while a pass runs.

Dividing a pass's wall time by the mean tick time during that pass cancels the
swings in machine speed that a shared host shows: on the 2-core box the
benchmark was written on, one workload's median pass time moved by 25%
between runs minutes apart, and its speed flipped between two states within
seconds.  So a change in the program stands out from a change in the machine.

Interpreter-bound code, vectorized numpy code and code that builds large
text blocks slow down by different factors when the host is busy (numpy code
by about 1.5x where small-dict code slows 2x on that box), so there are three
ticks, and each workload is divided by the one whose kind of code it spends
its time in.  A tick takes 0.5 to 1.5 ms, so the sampler adds about 1% to a
pass.  The ticks never touch the package, so
no change to the program moves them; they run on the main thread, from a
SIGALRM handler, between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_BINS = np.array([0.5, 1.0])
_KEY = np.array([3, 1], dtype=np.uint64)


def _python_tick() -> None:
    """Merge keyed tuples in a dict and print the sums as text, like the symbolic layer and writers."""
    acc: dict[tuple[int, int], float] = {}
    for i in range(600):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    ",".join(format(v, ".17g") for v in acc.values())


def _numpy_tick() -> None:
    """Counter-based draws, bin search and prefix sums on a 130x130 grid, like the sampling layer."""
    for _ in range(2):
        rng = np.random.Generator(np.random.Philox(key=_KEY))
        idx = np.searchsorted(_BINS, rng.random((130, 130)), side="right")
        np.cumsum(np.cumsum(idx.astype(np.float64), axis=0), axis=1)


def _text_tick() -> None:
    """Format a 700-row table of floats into one encoded text block, like the report writers."""
    rows = [f"{i};{-i}," + format(i * 0.37, ".17g") for i in range(700)]
    ("\n".join(rows) + "\n").encode("utf-8")


TICKS = {"python": _python_tick, "numpy": _numpy_tick, "text": _text_tick}

INTERVAL_S = 0.1


class SpeedSampler:
    """Context manager: times one tick on entry and then every ``INTERVAL_S`` seconds."""

    def __init__(self, kind: str) -> None:
        self.tick = TICKS[kind]
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.tick()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> float:
        return statistics.fmean(self.samples)
