"""Machine-speed reference for the end-to-end times.

On a shared machine the same op can take 30% more CPU time from one
minute to the next, as other tenants come and go.  A reference slice is a
fixed piece of work of the same two kinds as the program's: small HiGHS
linear programs through `scipy.optimize.linprog`, and a logit fixed-point
iteration on tiny numpy arrays.  Slices run between ops, and each op's CPU
time is scaled by the reference's nominal time over the slices measured
around it.  Program changes cannot move the reference, because it does not
call the program.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.optimize import linprog

REF_NOMINAL_S = 0.008  # the slice's median CPU time on the machine the bounds were set on
SLICE_EVERY_S = 0.2  # wall seconds between slices

_C = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
_A_UB = -np.array([[1.0, -1.0, 0.0, 0.0, 1.0],
                   [0.0, 1.0, -1.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0, -1.0, 1.0]])
_A_EQ = np.array([[0.0, 1.0, 1.0, 1.0, 1.0]])
_BOUNDS = [(-10.0, 10.0)] + [(0.0, 1.0)] * 4
_PAYOFFS = np.array([[[1.0, 1.0], [0.0, 0.0], [-8.5, -9.5]],
                     [[0.0, 0.0], [0.0, 0.0], [-7.0, -7.0]],
                     [[-8.5, -9.5], [-7.0, -7.0], [-7.0, -7.0]]])


def _logit_steps(steps=60, lam=0.3):
    x = y = np.full(3, 1.0 / 3.0)
    for _ in range(steps):
        ux = np.einsum("ab,b->a", _PAYOFFS[..., 0], y)
        uy = np.einsum("ab,a->b", _PAYOFFS[..., 1], x)
        ex, ey = np.exp(lam * (ux - ux.max())), np.exp(lam * (uy - uy.max()))
        x, y = 0.5 * x + 0.5 * ex / ex.sum(), 0.5 * y + 0.5 * ey / ey.sum()
    return x, y


def reference_slice():
    """CPU seconds of one fixed slice of reference work."""
    c0 = time.process_time()
    for _ in range(2):
        res = linprog(_C, A_ub=_A_UB, b_ub=np.zeros(3), A_eq=_A_EQ, b_eq=[1.0],
                      bounds=_BOUNDS, method="highs")
        if not res.success:
            raise RuntimeError("reference LP failed")
    _logit_steps()
    return time.process_time() - c0


class Probe:
    """Reference slices taken during a run.

    Slices run between ops and, from the runner's interval timer, inside
    long ops; the CPU time of a slice inside an op is taken off the op's.
    (A CPU-time timer would not do: while ITIMER_PROF is armed, CPU clock
    readings here come in whole 4 ms ticks.)
    """

    def __init__(self):
        self.samples = []  # (ops finished before the slice, CPU seconds, inside an op)
        self._last = -float("inf")
        self._op = None
        self._inside_s = 0.0

    def sample(self, ops_done):
        self.samples.append((ops_done, reference_slice(), False))
        self._last = time.perf_counter()

    def maybe_sample(self, ops_done):
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.sample(ops_done)

    def start_op(self, index):
        self._op, self._inside_s = index, 0.0

    def end_op(self):
        """Stop sampling inside the op; returns the CPU seconds its slices took."""
        self._op = None
        return self._inside_s

    def inside_tick(self):
        """Take a slice inside the running op; called from a timer signal."""
        op, self._op = self._op, None  # no nested slice while this one runs
        if op is None:
            return
        try:
            t = reference_slice()
            self.samples.append((op, t, True))
            self._inside_s += t
        finally:
            self._op = op

    def current_factor(self, recent=5):
        """Nominal over the median of the latest slices."""
        return REF_NOMINAL_S / statistics.median(t for _, t, _ in self.samples[-recent:])

    def factors(self, n_ops, reach=2, enough=3):
        """Per op: nominal over the median of the slices taken inside it,
        when there are `enough` of them, or else of the slices around it,
        from `reach` slices before the op to `reach` slices after it."""
        between = [(d, t) for d, t, inside in self.samples if not inside]
        inside = {}
        for d, t, ins in self.samples:
            if ins:
                inside.setdefault(d, []).append(t)
        done = [d for d, _ in between]
        times = [t for _, t in between]
        out = []
        for i in range(n_ops):
            near = inside.get(i, [])
            if len(near) < enough:
                before = bisect.bisect_right(done, i) - 1
                after = bisect.bisect_left(done, i + 1)
                near = times[max(0, before - reach + 1):after + reach]
            out.append(REF_NOMINAL_S / statistics.median(near))
        return out
