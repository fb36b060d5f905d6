"""A fixed reference computation that gauges the machine's current speed.

The benchmark's machine is a share of a host whose speed drifts by a fifth
or more within a minute, for every program on it alike: in one process,
back-to-back runs of one 3-second spectrum took from 3.2 to 4.2 s, and
the fastest of a run's ten moved from 2.6 to 3.5 s between runs.  A run
therefore also times this computation, which the engine does not run and
no engine change can alter, between its units, and divides each unit's
time by the mean of the samples taken just before and just after it.  The
computation mixes what the engine spends its time on: batched SVDs and
inverses of 1x1 and 2x2 complex matrices, trigonometric sums, dictionary
work in the interpreter, and a dense symmetric eigensolve.
"""

import statistics
import time

import numpy as np

#: least seconds between two samples, so short units are not swamped
SAMPLE_EVERY_S = 2.0


class HostGauge:
    """Times the reference computation now and then during a run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.ones = rng.normal(size=(800, 1, 1)) + 1j * rng.normal(
            size=(800, 1, 1))
        self.twos = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(
            size=(200, 2, 2))
        self.axis = np.linspace(-3.0, 3.0, 4096)
        half = rng.normal(size=(160, 160))
        self.dense = half + half.T
        self.times = []
        self.last = -np.inf
        self.units = []          # (key, seconds, operations, next sample)

    def sample(self):
        """Time one pass of the reference computation."""
        start = time.perf_counter()
        for _ in range(100):
            for batch in (self.ones, self.twos):
                np.linalg.svd(batch, compute_uv=False)
                np.linalg.inv(batch)
            wave = np.cos(self.axis) + 1j * np.cos(2.0 * self.axis)
            np.sum(wave * wave.conj())
            memo = {}
            for i in range(60):
                memo[(i, i + 1)] = 0.5 * i
        np.linalg.eigvalsh(self.dense)
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def sample_if_due(self):
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def unit_done(self, key, seconds, operations):
        """Record a unit: its input key, engine seconds and operations."""
        self.units.append((key, seconds, operations, len(self.times)))

    def relative(self):
        """Mean operation time in units of the reference computation.

        Each unit's time is divided by the mean of the samples around it;
        the repeats of one key give their median, and the medians are
        summed over the keys and divided by their operations.
        """
        ratios, operations = {}, {}
        for key, seconds, ops, after in self.units:
            around = 0.5 * (self.times[after - 1] + self.times[after])
            ratios.setdefault(key, []).append(seconds / around)
            operations[key] = ops
        return sum(statistics.median(r) for r in ratios.values()) / sum(
            operations.values())
