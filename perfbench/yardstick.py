"""Machine-speed yardstick for the timed metrics.

On the shared 2-vCPU host the benchmark was written on, the speed of a core
drifts by up to +-20% within a minute, with episodes of 1.5x slowdowns, and
the same command's wall time moves with it (steal time stays near 0, so the
drift is in the core and its caches, not in scheduling).  A fixed slice of
work timed before and after each command tracks that drift, so the benchmark
reports each command's wall time scaled by REF_S over the yardstick's mean
time around it: seconds at the reference speed.

The slice has four parts because the workloads do different kinds of work:
interpreter-bound small numpy contractions with Fraction arithmetic (exact
su(2,1), chart calculus), einsum over (512, 8) arrays (batched su(2,1)),
gathers from a 4 MiB table (cache-sensitive work), and a closure-driven RK4
stepper writing CSV text (the integrator and trajectory output).  On six
30-second flow runs (with an earlier sizing of the same four parts), the
largest spread (interquartile range over median) of the per-run medians of
pass, warped-part and algebra-part time was 9.8% in wall seconds, 4.8%
scaled by the first two parts and 4.0% scaled by all four.  The yardstick
calls no semigeo code, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Yardstick seconds at the reference speed: about its median on the host
# above (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6).
REF_S = 0.085


class Yardstick:
    """A fixed slice of work whose time tracks the machine's current speed."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.arange(16.0).reshape(4, 4) / 7.0 + np.eye(4)
        self._vec = np.arange(4.0)
        grid = np.linspace(-1.0, 1.0, 512 * 8)
        self._x = np.sin(7.0 * grid).reshape(512, 8)
        self._y = np.cos(5.0 * grid).reshape(512, 8)
        self._tensor = np.sin(np.arange(512.0)).reshape(8, 8, 8)
        self._weights = np.linspace(-2.0, 2.0, 8)
        self._table = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB
        self._gather = np.random.default_rng(0).integers(0, 1 << 19, size=1 << 15)

    def measure(self) -> float:
        """Seconds one yardstick takes now."""
        start = time.perf_counter()
        acc = self._scalar() + self._array() + self._memory() + self._stepper()
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("yardstick arithmetic went wrong")
        return elapsed

    def _scalar(self) -> float:
        np, a, v = self._np, self._small, self._vec
        acc = 0.0
        for i in range(1500):
            acc += float(v @ np.einsum("ij,jk->ik", a, a) @ v)
            acc += float(Fraction(i, 7) + Fraction(3, i + 1))
            acc += sum(j * 0.5 for j in range(20))
        return acc

    def _array(self) -> float:
        np = self._np
        acc = 0.0
        for _ in range(18):
            z = np.einsum("ni,nj,ijk->nk", self._x, self._y, self._tensor, optimize=True)
            acc += float(np.einsum("nk,k,nk->n", z, self._weights, z).sum())
            acc += float(np.sqrt(np.abs(self._x * self._y)).sum())
        return acc

    def _memory(self) -> float:
        acc = 0.0
        for _ in range(40):
            acc += float(self._table[self._gather].sum()) + float(self._table[::7].sum())
        return acc

    def _stepper(self) -> float:
        np = self._np

        def rhs(t, s):
            return np.concatenate([s[4:], -0.5 * s[:4] * math.exp(-t) - 1e-3 * float(s[:4] @ s[:4]) * s[4:]])

        s, t, h = np.full(8, 0.1), 0.0, 1e-3
        lines = []
        for _ in range(400):
            k1 = rhs(t, s)
            k2 = rhs(t + h / 2, s + h / 2 * k1)
            k3 = rhs(t + h / 2, s + h / 2 * k2)
            k4 = rhs(t + h, s + h * k3)
            s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            lines.append(repr(t) + "," + ",".join(repr(float(q)) for q in s))
        return float(len("\n".join(lines)))


def scale(before: float, after: float) -> float:
    """Factor taking wall seconds to reference seconds, from the yardstick
    times measured just before and just after the timed work."""
    return REF_S / ((before + after) / 2.0)
