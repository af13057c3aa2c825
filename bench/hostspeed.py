"""Host speed, measured by fixed reference kernels interleaved with the items.

On a shared host the same Python code runs up to about 1.5x slower in some
minutes than in others (neighbours on the same cores, caches and memory bus;
thread CPU time drifts with wall time, so it is not time spent descheduled).
A run of a few tens of seconds sits in one or two such phases, so run-to-run
spread stays near the slowdown however much work a run does.

The benchmark therefore times, every REF_EVERY seconds, a short reference
kernel that lives here and never calls ratnets.  Between items it runs
directly; during an item it runs from a SIGALRM handler, so an item of
several seconds is sampled all along, and the kernel's time is taken out of
the item's latency.  The kernel's median time in and near an item, over its
nominal time, is the host's slowdown then; the item's latency divided by it
is the latency at the reference host speed.  A kernel's nominal time is its
median over a minute, rounded, on a shared 2-vCPU Intel Xeon Linux host
(Python 3.11, numpy 2.4), so scaled times read as times on that host.

Each workload uses the kernel that resembles its inner loop: sparse
dictionary polynomial products over GF(2^31 - 1) for the algebra
workloads, the forward and backward pass of a tiny reciprocal network for
training.  A change to ratnets cannot make a kernel faster or slower: the
kernel runs with the garbage collector off, so even the heap ratnets leaves
behind does not reach it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

import numpy as np

# One kernel run (about 3 ms) every REF_EVERY seconds; an item's slowdown is
# the median of the runs within REF_WINDOW seconds of it, and at least of
# the run just before and just after it.
REF_EVERY = 0.2
REF_WINDOW = 1.0

_P = 2 ** 31 - 1
_rng = random.Random(2509)
_A = {tuple(_rng.randrange(4) for _ in range(4)): _rng.randrange(_P) for _ in range(80)}
_B = {tuple(_rng.randrange(4) for _ in range(4)): _rng.randrange(_P) for _ in range(80)}
_g = np.random.default_rng(2509)
_W = [_g.standard_normal((3, 2)), _g.standard_normal((3, 3)), _g.standard_normal((1, 3))]
_X = _g.uniform(0.5, 1.5, (2, 441))
_Y = _g.standard_normal((1, 441))


def dict_poly() -> dict:
    """One product of two fixed 4-variable sparse polynomials mod 2^31 - 1."""
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[e] = (out.get(e, 0) + ca * cb) % _P
    return out


def small_matmul() -> float:
    """Loss and gradients of a fixed 2-3-3-1 network with reciprocal
    activations on 441 points, 55 times."""
    w1, w2, w3 = _W
    for _ in range(55):
        u1 = w1 @ _X
        mask = np.all(np.abs(u1) >= 1e-6, axis=0)
        a1 = 1.0 / u1
        u2 = w2 @ a1
        a2 = 1.0 / u2
        r = w3 @ a2 - _Y
        loss = float((r * r).sum(axis=0).mean())
        dout = 2.0 * r / _X.shape[1]
        g3 = dout @ a2.T
        du2 = -(w3.T @ dout) / (u2 * u2)
        g2 = du2 @ a1.T
        du1 = -(w2.T @ du2) / (u1 * u1)
        g1 = du1 @ _X.T
    return loss + float(mask.sum() + g1.sum() + g2.sum() + g3.sum())


# name -> (kernel, nominal seconds per run)
KERNELS = {
    "dict-poly": (dict_poly, 3.0e-3),
    "small-matmul": (small_matmul, 3.0e-3),
}


class HostSpeed:
    """Timed runs of one reference kernel, and the slowdown they imply."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.fn, self.nominal_s = KERNELS[kernel]
        self.times: list[float] = []     # mid-time of each kernel run
        self.ref_s: list[float] = []     # duration of each kernel run
        self.spent = 0.0                 # total seconds spent in sample()
        self._busy = False

    def sample(self) -> None:
        if self._busy:      # the alarm went off during a direct sample
            return
        self._busy = True
        t_in = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.fn()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.ref_s.append(t1 - t0)
        self.spent += time.perf_counter() - t_in
        self._busy = False

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY:
            self.sample()

    @contextlib.contextmanager
    def inside_items(self):
        """Also sample every REF_EVERY seconds while an item runs."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def slowdown(self, t0: float, t1: float) -> float:
        """Kernel time near [t0, t1] over its nominal time."""
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW)
        # always include the burst just before t0 and just after t1
        lo = min(lo, max(bisect.bisect_left(self.times, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, t1) + 1, len(self.times)))
        return statistics.median(self.ref_s[lo:hi]) / self.nominal_s

    def summary(self) -> dict:
        slow = [r / self.nominal_s for r in self.ref_s]
        q = statistics.quantiles(slow, n=4) if len(slow) > 1 else slow * 3
        return {"kernel": self.kernel, "nominal_s": self.nominal_s, "samples": len(slow),
                "slowdown_quartiles": q}
