"""Box-bounded Levenberg-Marquardt least squares (Marquardt, J. SIAM 11:431,
1963; Moré, Lecture Notes in Mathematics 630:105, 1978), numpy only.

Each iteration takes a forward-difference Jacobian J, each scalar stepped by
h = min(1e-7 * max(|x|, 1), its larger distance to a bound), backward where
x + h is past the upper bound, so no step leaves the box; it solves
[J; sqrt(lam * diag(J^T J))] dx = [-r; 0], holding each scalar at a bound
whose gradient points out of the box; trial points are clipped to the box.
lam starts at 1e-4, /10 after a trial that lowers the objective, x10 after
one that does not.  A run stops when no damped step lowers the objective,
when a taken step moves every scalar by less than 1e-10 relative, or after
maxiter iterations, never on a small objective alone.  A step below about
sqrt(eps) relative changes a nonzero objective by less than its roundoff, so
x is found to about that.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["LsqResult", "least_squares"]

NO_DESCENT = "no damped step lowers the objective"
SMALL_STEP = "the last step moved every parameter by less than 1e-10 relative"
MAXITER = "the iteration limit was reached"


class LsqResult(NamedTuple):
    x: np.ndarray
    fun: float          # |r(x)|^2
    nit: int
    success: bool
    message: str
    trace: tuple        # the objective at x0 and after each taken step


def least_squares(residuals, x0, lo, hi, *, maxiter: int) -> LsqResult:
    """Minimize |residuals(x)|^2 over the box lo <= x <= hi (arrays) from x0
    clipped to it; `residuals` maps a float array, always a copy, to one."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = residuals(x.copy())
    trace = [float(r @ r)]
    lam = 1e-4
    for nit in range(1, maxiter + 1):
        J = np.empty((len(r), len(x)))
        for i in range(len(x)):
            h = min(1e-7 * max(abs(x[i]), 1.0), max(hi[i] - x[i], x[i] - lo[i]))
            xh = x.copy()
            xh[i] += h if x[i] + h <= hi[i] else -h
            J[:, i] = (residuals(xh) - r) / (xh[i] - x[i])
        g = J.T @ r
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        diag = np.sum(J[:, free] ** 2, axis=0)
        while True:
            step = np.zeros_like(x)
            step[free] = np.linalg.lstsq(np.vstack([J[:, free], np.diag(np.sqrt(lam * diag))]),
                                         np.concatenate([-r, np.zeros(len(diag))]),
                                         rcond=None)[0]
            trial = np.clip(x + step, lo, hi)
            moved = np.any(np.abs(trial - x) >= 1e-10 * np.maximum(np.abs(x), 1.0))
            rt = residuals(trial.copy())
            if float(rt @ rt) < trace[-1]:
                break
            if not moved or lam > 1e16:  # past 1e16 the step is below roundoff
                return LsqResult(x, trace[-1], nit, True, NO_DESCENT, tuple(trace))
            lam *= 10.0
        x, r, lam = trial, rt, lam / 10.0
        trace.append(float(r @ r))
        if not moved:
            return LsqResult(x, trace[-1], nit, True, SMALL_STEP, tuple(trace))
    return LsqResult(x, trace[-1], maxiter, False, MAXITER, tuple(trace))
