"""Reference-speed scaling of op times on a shared, noisy host.

On a shared 2-core VM the CPU speed a process gets drifts by 10-50% over
seconds to minutes; a fixed numpy loop timed in 10 s windows spreads by
about 17% (quartile distance over median).  That drift is not the program's.
To keep it out of the metrics, a run times a fixed reference loop between
ops (never inside one), and each op's time is scaled by

    REF_NOMINAL_S / (median reference time of the samples within 0.75 s
                     of op time of the op),

i.e. reported at the speed the host has when the loop takes REF_NOMINAL_S.
Ops that run in child processes (the cli workload) use the median of all of
the run's samples instead: the parent's sample need not come from the CPU
the child ran on, and per-op factors made those figures noisier.
The loop uses numpy and Python only, so no change to ``fueter`` moves it.
The raw, unscaled figures are printed in the run report next to the scaled
ones.
"""

import time

import numpy as np

# median reference_sample() time on the 2-core x86 box the bounds were set on
REF_NOMINAL_S = 0.0022
EVERY_S = 0.1          # op time between samples
HALF_WINDOW_S = 0.75

_A = np.linspace(-1.0, 1.0, 256).reshape(64, 4)
_Z = np.exp(1j * np.linspace(0.0, 6.0, 6144))   # a quadrature-sized array


def _loop(rounds):
    acc = 0.0
    for k in range(rounds):
        b = np.sqrt(np.sum(_A * _A, axis=-1))
        c = np.maximum(0.0, 1.0 - b)
        acc += float(c @ b)
        for i in range(60):
            acc += i * 1e-9
        if k % 8 == 0:
            acc += float(np.sum(_Z * np.conj(_Z)).real)
    return acc


def reference_sample():
    """Seconds for a fixed mix of small-array numpy and plain Python work.

    A short untimed pass first brings the loop back into cache, so the
    sample tracks CPU speed rather than what the op before it evicted.
    """
    _loop(20)
    t0 = time.perf_counter()
    _loop(120)
    return time.perf_counter() - t0


def reference_now(count=7):
    """Median of `count` back-to-back reference samples."""
    return float(np.median([reference_sample() for _ in range(count)]))


class Reference:
    """Reference samples taken every EVERY_S of op time, keyed by op index."""

    def __init__(self, half_window_s=HALF_WINDOW_S):
        self.half_window_s = half_window_s
        self.at = []          # index of the next op when the sample was taken
        self.busy = []        # op time elapsed when the sample was taken
        self.times = []
        self._next_busy = 0.0

    def maybe_sample(self, op_index, busy):
        if busy >= self._next_busy:
            self.at.append(op_index)
            self.busy.append(busy)
            self.times.append(reference_sample())
            self._next_busy = busy + EVERY_S

    def factors(self, n_ops):
        """Per-op scale factor: REF_NOMINAL_S over the median reference time
        of the samples within half_window_s of op time of the op's own, or
        of all samples when half_window_s is None."""
        busy = np.asarray(self.busy)
        times = np.asarray(self.times)
        if self.half_window_s is None:
            return np.full(n_ops, REF_NOMINAL_S / np.median(times))
        lo = np.searchsorted(busy, busy - self.half_window_s, side="left")
        hi = np.searchsorted(busy, busy + self.half_window_s, side="right")
        local = np.array([np.median(times[a:b]) for a, b in zip(lo, hi)])
        pos = np.searchsorted(np.asarray(self.at), np.arange(n_ops), side="right") - 1
        return REF_NOMINAL_S / local[np.maximum(pos, 0)]
