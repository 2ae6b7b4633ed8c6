"""Bounded Nelder-Mead simplex minimization (Nelder & Mead, Comput. J. 7:308,
1965), numpy only.

nelder_mead takes the steps of scipy.optimize.minimize(method="Nelder-Mead")
with adaptive=False and maxiter set, in the same floating-point order, so
both return the same bits: reflection, expansion, contraction and shrink
coefficients 1, 2, 1/2 and 1/2; the initial simplex scales each nonzero
component of x0 by 1.05 and sets each zero one to 0.00025; with bounds, x0
and every new point are clipped to the box, and initial vertices above an
upper bound are first reflected into it.  The function is always handed a
copy of the point.  Evaluations are not capped (scipy caps them only when
maxiter is unset), so maxiter is required.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SimplexResult", "nelder_mead"]

SUCCESS = "Optimization terminated successfully."
MAXITER = "Maximum number of iterations has been exceeded."


class SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int
    success: bool
    message: str


def _sorted(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def nelder_mead(fun, x0, *, xatol: float, fatol: float, maxiter: int,
                bounds=None) -> SimplexResult:
    """Minimize fun(x) from x0.  `bounds` is None or a (lower, upper) pair of
    arrays (or scalars) with lower <= upper; the search stops when every
    vertex lies within xatol of the best in each coordinate and within fatol
    of it in value, or after maxiter iterations."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    lo, hi = (-np.inf, np.inf) if bounds is None else np.asarray(bounds, dtype=float)
    x0 = np.clip(x0, lo, hi)
    sim = np.repeat(x0[None], N + 1, axis=0)
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)

    def f(x):
        return fun(np.copy(x))

    fsim = np.array([f(x) for x in sim], dtype=float)
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts the first simplex twice
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _sorted(sim, fsim)
    success = iterations < maxiter
    return SimplexResult(sim[0], np.min(fsim), iterations, success,
                         SUCCESS if success else MAXITER)
