"""The box-bounded Levenberg-Marquardt solver, with scipy as the reference."""

import numpy as np
import pytest
import scipy.optimize

from rotorspec.lsq import MAXITER, least_squares


def test_box_bounded_linear_problems_match_scipy():
    # full-rank problems with 1-4 unknowns, the unconstrained minimum inside
    # or outside the box, from a start anywhere in it.  The objective agrees
    # to 1e-10 relative; x to 1e-7, since a step that moves x by less than
    # about sqrt(eps) relative changes the objective by less than its own
    # roundoff, and no decrease test can accept it (largest error 2.8e-8)
    rng = np.random.default_rng(2)
    held = set()
    for trial in range(200):
        n = trial % 4 + 1
        m = n + int(rng.integers(0, 4))
        A, y = rng.normal(size=(m, n)), 3.0 * rng.normal(size=m)
        lo, hi = -2.0 * rng.random(n), 2.0 * rng.random(n)
        x0 = lo + (hi - lo) * rng.random(n)
        res = least_squares(lambda x: A @ x - y, x0, lo, hi, maxiter=200)
        ref = scipy.optimize.lsq_linear(A, y, bounds=(lo, hi), method="bvls", tol=1e-15,
                                        lsq_solver="exact").x
        assert res.success, trial
        ref_cost = np.sum((A @ ref - y) ** 2)
        assert res.fun <= ref_cost * (1 + 1e-10) + 1e-20, trial
        np.testing.assert_allclose(res.x, ref, rtol=0, atol=1e-7, err_msg=str(trial))
        assert res.fun == pytest.approx(np.sum((A @ res.x - y) ** 2), rel=1e-14, abs=1e-28)
        held.add(bool(np.any((res.x == lo) | (res.x == hi))))
    assert held == {True, False}


def test_difference_step_stays_inside_a_box_narrower_than_it():
    # the box [0, 1e-8] is narrower than the step 1e-7 on both sides, so the
    # step shrinks to the larger distance to a bound and never leaves it
    lo, hi = np.array([0.0]), np.array([1e-8])

    def residuals(x):
        if not lo[0] <= x[0] <= hi[0]:
            raise ValueError(f"evaluated outside the box at {x[0]}")
        return x - 3e-9

    for x0 in (1.0, -1.0, 5e-9):
        res = least_squares(residuals, np.array([x0]), lo, hi, maxiter=50)
        assert res.success, x0
        assert res.x[0] == pytest.approx(3e-9, rel=1e-3), x0


def test_rosenbrock_reaches_its_minimum():
    res = least_squares(lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                        np.array([-1.2, 1.0]), np.full(2, -np.inf), np.full(2, np.inf), maxiter=200)
    assert res.success
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=0, atol=1e-8)
    assert all(b < a for a, b in zip(res.trace, res.trace[1:]))
    assert res.fun == res.trace[-1]


def test_minimum_outside_the_box_ends_on_its_bound():
    # the minimum (3, -2) lies outside [-1, 1]^2: each scalar ends on the
    # bound nearest it, where the gradient of |r|^2 points out of the box
    def residuals(x):
        return np.array([x[0] - 3.0, 2.0 * (x[1] + 2.0), 0.1 * x[0] * x[1]])

    lo, hi = np.full(2, -1.0), np.full(2, 1.0)
    res = least_squares(residuals, np.zeros(2), lo, hi, maxiter=100)
    assert res.success
    assert res.x.tolist() == [1.0, -1.0]
    r = residuals(res.x)
    grad = [np.sum(r * (residuals(res.x + h) - r)) / 1e-7 for h in np.eye(2) * 1e-7]
    assert grad[0] < 0 < grad[1]  # lower x0 and higher x1 would both leave the box


def test_iteration_limit_reports_no_convergence():
    res = least_squares(lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                        np.array([-1.2, 1.0]), np.full(2, -np.inf), np.full(2, np.inf), maxiter=2)
    assert (res.nit, res.success, res.message) == (2, False, MAXITER)
    assert len(res.trace) <= 3
