"""Host speed calibration for wall-time metrics.

On a shared host other tenants slow the CPU by up to 2x, in phases that
last from seconds to many minutes, so raw wall times of the same program
drift between runs far more than any bound worth setting.  Right before
and right after every timed operation and every set-up the harness times a
fixed numpy loop that does not touch ``blocksep`` (FFTs over a frame
matrix, complex element-wise work, a Python overlap-add loop and a small
tanh recurrence, like the program's own mix).  Each wall time is divided by
the mean of those two loop times and reported times ``REFERENCE_S``:
seconds on a host where the loop takes ``REFERENCE_S``.  The slowdown
changes within a second, so the loop on both sides of an operation tracks
the slowdown it saw better than the loop on one side.  A change to the
program moves its times and not the loop's, so it moves the scaled figures
by the same share.
"""

import time

import numpy as np

# About the loop's 5th-percentile time on the 2-vCPU Xeon (Sapphire Rapids)
# KVM guest where the benchmark was defined.  It only fixes the scale.
REFERENCE_S = 0.014


class HostSpeed:
    """The calibration loop and the times it took in one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.normal(0.0, 1.0, (2500, 256))
        self._w = 0.1 * rng.normal(0.0, 1.0, (64, 64))
        self.samples = []

    def sample(self):
        """Time the calibration loop once; returns the seconds it took."""
        t0 = time.perf_counter()
        spec = np.fft.rfft(self._frames, axis=1)
        mag = np.abs(spec)
        cross = spec * np.conj(spec[::-1])
        np.where(mag > 1.0, np.real(cross) / mag, 1.0)
        frames = np.fft.irfft(0.5 * spec, n=256, axis=1)
        out = np.zeros(400 * 64 + 256)
        for i in range(400):
            out[i * 64 : i * 64 + 256] += frames[i]
        h = np.zeros(64)
        for i in range(600):
            h = np.tanh(self._frames[i, :64] + h @ self._w)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def reference_s(self, elapsed, before):
        """``elapsed`` wall seconds in reference-host seconds; ``before`` is
        the loop time sampled right before them, and the loop runs again now."""
        return REFERENCE_S * elapsed * 2.0 / (before + self.sample())
