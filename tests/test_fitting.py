"""Peak-position and envelope calibration: round trips, determinism, bounds."""

import functools
import itertools
import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import max_abs_residual, peak_list
from rotorspec import cli, config, fitting, rotor, spectrum
from rotorspec.fitting import (EnvelopeModel, FitError, FitSpec, Peak,
                               PeakList, TransitionModel, fit_envelope,
                               fit_line_positions)

JMAX = 6
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tmodel():
    return TransitionModel(jmax=JMAX)


# ---------------------------------------------------------------- peak list

def test_peaklist_validation():
    with pytest.raises(FitError, match="positive"):
        PeakList((Peak(-3.0), Peak(5.0)))
    with pytest.raises(FitError, match="duplicate"):
        PeakList((Peak(5.0), Peak(5.0)))


def test_fitspec_validation():
    with pytest.raises(FitError):
        fit_line_positions(peak_list([3206.0, 3217.0]),
                           FitSpec(free_params=()), TransitionModel(jmax=JMAX))


def test_fitspec_rejects_nan_tolerance():
    assert [f for f, _ in FitSpec(free_params=("B",), tolerance=float("nan")).validate()] \
        == ["tolerance"]


def test_fwhm_bound_below_default_grid_step_rejected():
    # a bound reaches only the values a config accepts, and a config rejects
    # a fwhm below its grid step (default 0.05)
    assert FitSpec(free_params=("nu0", "fwhm"), bounds={"fwhm": (0.05, 2.0)}).validate() == []
    [(name, msg)] = FitSpec(free_params=("nu0", "fwhm"), bounds={"fwhm": (0.01, 2.0)}).validate()
    assert name == "bounds" and "below the grid step" in msg


@pytest.mark.parametrize("name", ["fwhm", "scale"])
def test_position_fit_rejects_envelope_only_parameters(tmodel, name):
    # no position residual reads fwhm, so a position fit would report
    # whatever value its solver left it at; the envelope fit solves its
    # scale at every point, so no fit frees it
    spec = FitSpec(free_params=("nu0", name))
    problem = {"fwhm": "fwhm acts on no peak position", "scale": "unknown parameter 'scale'"}
    assert [msg for _, msg in spec.validate()] == ([] if name == "fwhm" else [problem[name]])
    assert [f for f, msg in spec.validate(positions=True) if name in msg] == ["free_params"]
    peaks = peak_list([3206.0, 3217.0, 3230.0])
    with pytest.raises(FitError, match=problem[name]):
        fit_line_positions(peaks, spec, tmodel)


def test_underdetermined_rejected(tmodel):
    peaks = peak_list([3206.0, 3217.0])
    spec = FitSpec(free_params=("B", "beta", "nu0"))
    with pytest.raises(FitError, match="under-determined"):
        fit_line_positions(peaks, spec, tmodel)


def test_unknown_parameter_rejected(tmodel):
    peaks = peak_list([3206.0, 3217.0, 3230.0])
    with pytest.raises(FitError, match="unknown parameter"):
        fit_line_positions(peaks, FitSpec(free_params=("Q",)), tmodel)


def test_unknown_label_rejected(tmodel):
    peaks = peak_list([3206.0], labels=["(X9)1->(L1)1*"])
    with pytest.raises(FitError, match="matches no model transition"):
        fit_line_positions(peaks, FitSpec(free_params=("nu0",)), tmodel)


# ---------------------------------------------------------------- positions

TRUTH = {"B": 5.2, "beta": 1.3, "nu0": 3205.0, "excited_scale": 1.0,
         "dw_L1_star": 23.0, "dw_LE3_star": 28.0, "fwhm": 1.5}

NAMES = ("(L1)1->(L1)1*", "(A1)1->(L1)1*", "(E2)1->(L1)1*",
         "(L1)1->(E2)1*", "(L1)1->(L1)2*", "(L1)1->(E3)1*")


def _synthetic_peaks(tmodel, names=NAMES):
    freqs = tmodel.frequencies(names, TRUTH)
    return PeakList(tuple(Peak(float(f), None, n) for f, n in zip(freqs, names)))


def test_round_trip_recovers_parameters(tmodel):
    """Zero-noise synthetic peaks; the E2-referencing lines pin B and beta
    separately, so the full parameter set is identifiable."""
    peaks = _synthetic_peaks(tmodel)
    spec = FitSpec(
        free_params=("B", "beta", "nu0", "extra_offsets"),
        bounds={"B": (4.0, 7.0), "beta": (0.3, 2.5)},
        initial={"B": 5.6, "beta": 1.0, "nu0": 3204.0},
        n_starts=4, tolerance=1e-14,
    )
    report = fit_line_positions(peaks, spec, tmodel, seed=0)
    assert report.converged
    for name in ("B", "beta", "nu0", "dw_L1_star", "dw_LE3_star"):
        assert report.values[name] == pytest.approx(TRUTH[name], rel=1e-8), name
    assert max_abs_residual(report) < 1e-4
    assert (report.rank, report.unfixed) == (5, ())
    assert report.identifiability() == "rank 5 of 5 free scalars: the peaks fix each one"


def _envelope_fit(seed):
    """An envelope fit at Jmax 4 with 2 starts, and its observed envelope."""
    model = EnvelopeModel(jmax=4)
    truth = dict(TRUTH, beta=1.0)
    freqs = np.arange(3190.0, 3250.0, 0.5)
    amps = model.amplitude(truth, freqs)
    spec = FitSpec(free_params=("nu0", "fwhm"), bounds={"fwhm": (0.5, 20.0)}, n_starts=2,
                   max_iterations=60, initial=dict(truth, nu0=3204.0, fwhm=1.2))
    return fit_envelope(freqs, amps, spec, model, seed=seed), model, freqs, amps


def test_box_lstsq_matches_scipy():
    # scipy's bounded-variable least squares as the reference, on random
    # problems with 1-4 unknowns: full rank, a zero column and two parallel
    # columns, with the unconstrained minimum inside or outside the box
    rng = np.random.default_rng(1)
    seen = set()
    for trial in range(400):
        n, m = trial % 4 + 1, int(rng.integers(1, 7))
        A = rng.normal(size=(m, n))
        if trial % 3 == 0 and n > 1:
            A[:, -1] = 2.0 * A[:, 0] if trial % 2 else 0.0
        y = 3.0 * rng.normal(size=m)
        lo, hi = -2.0 * rng.random(n), 2.0 * rng.random(n)
        x0 = lo + (hi - lo) * rng.random(n)
        x = fitting._box_lstsq(A, y, x0, lo, hi)
        ref = scipy.optimize.lsq_linear(A, y, bounds=(lo, hi), method="bvls", tol=1e-15,
                                        lsq_solver="exact").x
        assert np.all((lo <= x) & (x <= hi)), trial
        cost, ref_cost = np.sum((y - A @ x) ** 2), np.sum((y - A @ ref) ** 2)
        assert cost <= ref_cost + 1e-10 * (y @ y), trial
        full = np.linalg.matrix_rank(A) == n
        if full:
            np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
        seen.add((bool(full), bool(np.any((x == lo) | (x == hi)))))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_box_lstsq_takes_the_minimum_norm_step():
    # a variable no row moves stays at its start, and of two parallel
    # columns each takes its share of the one combination the data fix
    A = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]])
    x0, lo, hi = np.array([1.0, 1.0, 0.5]), np.full(3, -10.0), np.full(3, 10.0)
    x = fitting._box_lstsq(A, np.array([8.0, 8.0]), x0, lo, hi)
    np.testing.assert_allclose(x, [1.0 + 1.0, 1.0 + 2.0, 0.5], rtol=1e-14)


def test_objective_equals_sum_of_squared_residuals(tmodel):
    peaks = _synthetic_peaks(tmodel)
    spec = FitSpec(free_params=("B", "beta", "nu0"), n_starts=2,
                   initial={"B": 5.5, "beta": 1.1, "nu0": 3204.5})
    report = fit_line_positions(peaks, spec, tmodel, seed=3)
    assert report.objective == pytest.approx(
        sum(r * r for _, _, _, r in report.residuals), abs=1e-12)
    report, model, freqs, amps = _envelope_fit(seed=3)
    squares = np.sum((amps - model.amplitude(report.values, freqs)) ** 2)
    assert report.objective == pytest.approx(squares, rel=1e-12)


def test_fit_is_deterministic(tmodel):
    peaks = _synthetic_peaks(tmodel)
    spec = FitSpec(free_params=("B", "beta", "nu0"), n_starts=3)
    a = fit_line_positions(peaks, spec, tmodel, seed=11)
    b = fit_line_positions(peaks, spec, tmodel, seed=11)
    assert a == b
    assert a.values == b.values and a.trace == b.trace


def test_random_starts_drawn_as_each_start_begins():
    # a million starts held up front took 160 MB before the first objective call
    class FirstCall(Exception):
        pass

    def residuals(params):
        raise FirstCall

    spec = FitSpec(free_params=("B", "beta", "nu0"), n_starts=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(FirstCall):
            fitting._minimize(spec, seed=0, residuals=residuals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_fitted_values_respect_bounds(tmodel):
    peaks = _synthetic_peaks(tmodel)
    spec = FitSpec(free_params=("B", "beta", "nu0"),
                   bounds={"B": (5.3, 5.45), "beta": (0.8, 1.1)}, n_starts=3)
    report = fit_line_positions(peaks, spec, tmodel, seed=0)
    assert 5.3 <= report.values["B"] <= 5.45
    assert 0.8 <= report.values["beta"] <= 1.1


def test_best_objective_trace_never_increases(tmodel):
    peaks = _synthetic_peaks(tmodel)
    spec = FitSpec(free_params=("B", "beta", "nu0"), n_starts=2)
    for report in (fit_line_positions(peaks, spec, tmodel, seed=5), _envelope_fit(seed=5)[0]):
        trace = report.trace
        assert trace and all(b < a for a, b in zip(trace, trace[1:]))
        assert report.objective == trace[-1]


def test_shrinking_bounds_around_truth_never_worsens(tmodel):
    peaks = _synthetic_peaks(tmodel)
    results = []
    for width in (0.6, 0.2, 0.05):
        spec = FitSpec(
            free_params=("B", "beta"),
            bounds={"B": (TRUTH["B"] - width, TRUTH["B"] + width),
                    "beta": (TRUTH["beta"] - width, TRUTH["beta"] + width)},
            initial={k: v for k, v in TRUTH.items()},
            n_starts=3,
        )
        spec = FitSpec(free_params=spec.free_params, bounds=spec.bounds,
                       initial={**TRUTH, "B": TRUTH["B"] - width / 2,
                                "beta": TRUTH["beta"] + width / 2},
                       n_starts=3)
        results.append(fit_line_positions(peaks, spec, tmodel, seed=1).objective)
    assert results[1] <= results[0] + 1e-12
    assert results[2] <= results[1] + 1e-12


def test_nearest_frequency_fallback_flagged(tmodel):
    freqs = tmodel.frequencies(("(L1)1->(L1)1*", "(A1)1->(L1)1*"), TRUTH)
    peaks = peak_list([float(f) for f in freqs])
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH), n_starts=2)
    report = fit_line_positions(peaks, spec, tmodel, seed=0)
    assert len(report.nearest_assigned) == 2
    assert report.converged


def test_extra_offsets_counts_as_one_parameter(tmodel):
    # 4 peaks, free (B, beta, nu0, extra_offsets) = 4 named parameters
    names = ("(L1)1->(L1)1*", "(A1)1->(L1)1*", "(L1)1->(L1)2*", "(L1)1->(E3)1*")
    peaks = _synthetic_peaks(tmodel, names)
    spec = FitSpec(free_params=("B", "beta", "nu0", "extra_offsets"), n_starts=2)
    report = fit_line_positions(peaks, spec, tmodel, seed=0)
    assert report.converged
    assert max_abs_residual(report) < 1e-3


def test_exact_fit_stops_at_first_start(tmodel):
    # zero-noise peaks: start 0 reaches the tolerance, so no later start runs
    names = ("(L1)1->(L1)1*", "(A1)1->(L1)1*", "(L1)1->(L1)2*", "(L1)1->(E3)1*")
    peaks = _synthetic_peaks(tmodel, names)
    spec = FitSpec(free_params=("B", "beta", "nu0", "extra_offsets"), n_starts=8)
    many = fit_line_positions(peaks, spec, tmodel, seed=0)
    one = fit_line_positions(peaks, replace(spec, n_starts=1), tmodel, seed=0)
    assert many.objective <= spec.tolerance
    assert many.starts_run == 1 and one.starts_run == 1
    assert many.values == one.values and many.objective == one.objective
    assert many.trace == one.trace
    assert (many.best_start, many.iterations) == (one.best_start, one.iterations)


def test_inexact_fit_runs_every_start(tmodel):
    # one peak off by 0.5 cm-1 and only beta and nu0 free: no start reaches
    # the tolerance
    freqs = [p.frequency for p in _synthetic_peaks(tmodel).peaks]
    freqs[0] += 0.5
    peaks = peak_list(freqs, labels=list(NAMES))
    spec = FitSpec(free_params=("beta", "nu0"), initial=dict(TRUTH), n_starts=3)
    many = fit_line_positions(peaks, spec, tmodel, seed=0)
    one = fit_line_positions(peaks, replace(spec, n_starts=1), tmodel, seed=0)
    assert many.objective > spec.tolerance
    assert many.starts_run == spec.n_starts and one.starts_run == 1
    assert many.objective <= one.objective


def test_random_starts_are_one_seeded_stream():
    # start 0 is x0; the later starts are successive uniform draws of one
    # generator seeded with the fit's seed, built at the first draw
    x0, lo, hi = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([3.0, 4.0])
    rng = np.random.default_rng(7)
    starts = list(itertools.islice(fitting._starts(x0, lo, hi, 7), 4))
    assert starts[0] is x0
    for start in starts[1:]:
        assert np.array_equal(start, lo + (hi - lo) * rng.random(2))


def test_linear_only_fit_is_one_solve(tmodel, monkeypatch):
    # with beta and excited_scale fixed the fit is one linear least-squares
    # solve, whatever the number of starts and whether or not it fits exactly
    freqs = [p.frequency for p in _synthetic_peaks(tmodel).peaks]
    freqs[0] += 0.5
    peaks = peak_list(freqs, labels=list(NAMES))
    spec = FitSpec(free_params=("B", "nu0", "extra_offsets"),
                   initial=dict(TRUTH, beta=1.25), n_starts=8)
    fresh = TransitionModel(jmax=JMAX)
    solves = _counting(monkeypatch, rotor.LevelGapCache, "eigenvalues")
    report = fit_line_positions(peaks, spec, fresh, seed=0)
    assert sorted(label for _, _, label in solves) == ["A1", "E2", "L1"]  # E3 is a free dw
    assert (report.starts_run, report.iterations, report.converged) == (1, 0, True)
    assert report.objective > spec.tolerance
    linear = ("B", "nu0", "dw_L1_star", "dw_LE3_star")
    names, obs = [r[0] for r in report.residuals], np.array([r[1] for r in report.residuals])
    A, b = fresh.design(names, spec.resolved_initial(), linear)
    x = np.linalg.lstsq(A, obs - b, rcond=None)[0]
    for name, value in zip(linear, x):
        assert report.values[name] == pytest.approx(value, rel=1e-12), name


def test_offset_no_peak_moves_keeps_its_start_value(tmodel):
    # no peak reads (E3)1, so dw_LE3_star keeps its start and the rank says so
    names = ("(L1)1->(L1)1*", "(A1)1->(L1)1*", "(L1)1->(L1)2*")
    spec = FitSpec(free_params=("nu0", "extra_offsets"), initial=dict(TRUTH, dw_LE3_star=31.0))
    report = fit_line_positions(_synthetic_peaks(tmodel, names), spec, tmodel)
    assert report.values["dw_LE3_star"] == 31.0
    assert report.values["dw_L1_star"] == pytest.approx(TRUTH["dw_L1_star"], rel=1e-12)
    assert report.identifiability() == "rank 2 of 3 free scalars: no peak moves dw_LE3_star"


def test_transition_model_rejects_unnormalized_potential():
    # unnormalized, the potential would shift omega_LA silently (10.974 for
    # 10.993 cm^-1 at B 5.5 and beta 1); diagonalize rejects it the same way
    with pytest.raises(rotor.PotentialError, match="not normalized.*RotorModel.create"):
        TransitionModel(potential=((3, -1.0),), jmax=JMAX)


def test_fit_models_keep_the_normalized_potential():
    # a copy into a plain tuple would lose the type and be rejected
    pot = rotor.normalize_potential(((3, -1.0), (4, 0.3)))
    assert TransitionModel(pot, jmax=4)._gaps.potential is pot
    emodel = EnvelopeModel(pot, jmax=4)
    assert emodel.potential is pot
    assert emodel.lines(dict(TRUTH, beta=1.0))


def test_transition_model_matches_line_generator(tmodel):
    """The fit-side frequency table and the spectrum-side line generator are
    two encodings of the same transitions; they must agree, both with fixed
    band offsets and with model-derived ones."""
    from rotorspec import rotor

    for params in (
        dict(TRUTH),
        dict(TRUTH, excited_scale=1.2),
        dict(TRUTH, dw_L1_star=None, dw_LE3_star=None),
    ):
        model = rotor.RotorModel.create(B=params["B"], beta=params["beta"], Jmax=JMAX)
        levels = rotor.classify_levels(rotor.diagonalize(model), max_energy=60.0)
        band = spectrum.VibrationBandModel(nu0=params["nu0"],
                                           excited_scale=params["excited_scale"],
                                           dw_L1_star=params["dw_L1_star"],
                                           dw_LE3_star=params["dw_LE3_star"])
        pop = spectrum.PopulationModel(mode="spin_frozen", T=7.0)
        lines = spectrum.vibration_orientation_lines(levels, band, pop)
        generated = {f"{l.lower}->{l.upper}": l.frequency for l in lines}
        for name, predicted in zip(tmodel.NAMES, tmodel.frequencies(tmodel.NAMES, params)):
            if name not in generated:
                continue
            assert generated[name] == pytest.approx(predicted, abs=5e-7), (name, params)


@functools.lru_cache(maxsize=None)
def _tmodel_for(potential):
    return TransitionModel(rotor.normalize_potential(potential), jmax=JMAX)


@pytest.mark.parametrize("potential", [((3, -1.0),), ((3, -1.0), (4, 0.3)), ((4, -1.0),)],
                         ids=["3:-1", "3:-1,4:0.3", "4:-1"])
@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.3, 1.0, 3.0, 6.0])
def test_transition_model_matches_classified_levels(potential, beta):
    """Every modeled transition, with model-derived band offsets, is the
    same line of the generator on the classified level table, over the beta
    range of PARAM_BOUNDS and the potentials the config accepts; low beta
    and a rank-4 term reorder the (L1)2, I1I2, E4 and E3 levels."""
    params = dict(TRUTH, beta=beta, B=5.9, dw_L1_star=None, dw_LE3_star=None)
    model = rotor.RotorModel.create(B=5.9, beta=beta, potential=potential, Jmax=JMAX)
    levels = rotor.classify_levels(rotor.diagonalize(model), max_energy=80.0)
    band = spectrum.VibrationBandModel(nu0=params["nu0"])
    lines = spectrum.vibration_orientation_lines(levels, band, spectrum.PopulationModel())
    generated = {f"{l.lower}->{l.upper}": l.frequency for l in lines}
    tmodel = _tmodel_for(potential)
    assert set(tmodel.NAMES) <= set(generated)
    for name, modeled in zip(tmodel.NAMES, tmodel.frequencies(tmodel.NAMES, params)):
        assert modeled == pytest.approx(generated[name], abs=1e-3), name


# ---------------------------------------------------------------- envelope

@pytest.fixture(scope="module")
def emodel():
    return EnvelopeModel(jmax=JMAX)


def test_envelope_round_trip(emodel):
    # the envelope three times the model's, whose scale the fit solves
    truth = dict(TRUTH, nu0=3206.5, fwhm=2.0, beta=1.0)
    freqs = np.arange(3150.0, 3300.0, 0.25)
    amps = 3.0 * emodel.amplitude(truth, freqs)
    spec = FitSpec(free_params=("nu0", "fwhm"),
                   bounds={"nu0": (3195.0, 3215.0), "fwhm": (0.5, 6.0)},
                   initial=dict(truth, nu0=3204.0, fwhm=1.2),
                   n_starts=3, tolerance=1e-16)
    report = fit_envelope(freqs, amps, spec, emodel, seed=0)
    assert report.converged
    assert report.values["nu0"] == pytest.approx(3206.5, rel=1e-3)
    assert report.values["fwhm"] == pytest.approx(2.0, rel=1e-3)
    assert report.values["scale"] == pytest.approx(3.0, rel=1e-3)


def test_envelope_fit_reports_omega_la_of_its_levels(emodel):
    # read from the classified levels it fitted with, at the solution's B
    # and beta; the label blocks give the same gap
    truth = dict(TRUTH, beta=1.0)
    freqs = np.arange(3180.0, 3260.0, 0.25)
    spec = FitSpec(free_params=("B", "nu0"), initial=dict(truth, B=5.4), n_starts=1)
    report = fit_envelope(freqs, emodel.amplitude(truth, freqs), spec, emodel)
    B, beta = report.values["B"], report.values["beta"]
    assert report.converged and B == pytest.approx(TRUTH["B"], rel=1e-6)
    gap = rotor.LevelGapCache(emodel.potential, JMAX).gap(beta)
    assert abs(report.omega_la - B * gap) <= 1e-9 * B


def test_envelope_model_caps_jmax():
    assert EnvelopeModel().jmax == EnvelopeModel(jmax=14).jmax == 8
    assert EnvelopeModel(jmax=JMAX).jmax == JMAX


def test_envelope_flat_zero_drives_scale_to_zero(emodel):
    freqs = np.arange(3150.0, 3300.0, 0.5)
    amps = np.zeros_like(freqs)
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH, beta=1.0),
                   n_starts=2)
    report = fit_envelope(freqs, amps, spec, emodel, seed=0)
    assert report.converged
    assert report.values["scale"] == 0.0


def test_envelope_grid_without_lines_flags_nonconvergence(emodel):
    freqs = np.arange(500.0, 600.0, 1.0)
    amps = np.ones_like(freqs)
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH, beta=1.0), n_starts=2)
    report = fit_envelope(freqs, amps, spec, emodel, seed=0)
    assert not report.converged
    assert "no model line overlaps" in report.message


@pytest.mark.parametrize("mode", ["positions", "envelope"])
def test_fit_rejects_an_infinite_objective_at_the_start(tmodel, emodel, mode):
    # a residual whose square overflows would run the whole solver on an
    # infinite objective, warning as it goes; it is rejected before start 0
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH, beta=1.0), n_starts=2)
    freqs = np.arange(3190.0, 3250.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FitError, match="objective at the initial values is inf"):
            if mode == "positions":
                fit_line_positions(peak_list([3217.0, 1e200]), spec, tmodel)
            else:
                fit_envelope(freqs, np.where(freqs == 3217.0, 1e200, 0.0), spec, emodel)


def test_envelope_rejects_bad_grid(emodel):
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH))
    with pytest.raises(FitError, match="increasing"):
        fit_envelope(np.array([2.0, 1.0, 3.0]), np.zeros(3), spec, emodel)
    with pytest.raises(FitError, match="equal-length"):
        fit_envelope(np.array([1.0, 2.0]), np.zeros(3), spec, emodel)


def test_envelope_fwhm_box_below_observed_spacing_rejected(emodel):
    # a trial width below the sample spacing falls between the samples; the
    # default box starts at the default grid step, 0.05
    freqs = np.arange(3190.0, 3250.0, 0.5)
    amps = emodel.amplitude(dict(TRUTH, beta=1.0), freqs)
    spec = FitSpec(free_params=("nu0", "fwhm"), initial=dict(TRUTH, beta=1.0),
                   n_starts=1, max_iterations=2)
    for bounds in ({}, {"fwhm": (0.499, 5.0)}):
        with pytest.raises(FitError, match=r"^--bound fwhm: the low end .* below the observed "
                                           r"grid's largest spacing 0\.5 cm\^-1$"):
            fit_envelope(freqs, amps, replace(spec, bounds=bounds), emodel)
    fit_envelope(freqs, amps, replace(spec, bounds={"fwhm": (0.5, 5.0)}), emodel)
    # a grid read back from a `spectrum` CSV at step 0.05 keeps the default box
    written = np.array([float(f"{3190.0 + 0.05 * i:.2f}") for i in range(1200)])
    assert np.diff(written).max() > 0.05
    fit_envelope(written, emodel.amplitude(dict(TRUTH, beta=1.0), written), spec, emodel)


def test_envelope_fixed_fwhm_below_observed_spacing_rejected(emodel):
    # a fixed width is the narrowest the fit tries, so it takes the check
    # that the box's low end takes when fwhm is free
    freqs = np.arange(3190.0, 3250.0, 0.5)
    amps = emodel.amplitude(dict(TRUTH, beta=1.0, fwhm=0.1), freqs)
    spec = FitSpec(free_params=("nu0",), initial=dict(TRUTH, beta=1.0, fwhm=0.1),
                   n_starts=1, max_iterations=2)
    with pytest.raises(FitError, match=r"^fwhm: the fixed width 0\.1 is below the observed "
                                       r"grid's largest spacing 0\.5 cm\^-1$"):
        fit_envelope(freqs, amps, spec, emodel)
    fit_envelope(freqs, amps, replace(spec, initial=dict(TRUTH, beta=1.0, fwhm=0.5)), emodel)


# ---------------------------------------------------------------- one band model

SHIPPED = (Path(__file__).resolve().parent.parent / "configs" / "atpb.cfg").read_text() \
    .replace("Jmax = 10", f"Jmax = {JMAX}")


def _spectrum_run(tmp_path, text):
    """Config, sticks and envelope CSV of a `spectrum` run on `text`."""
    (tmp_path / "run.cfg").write_text(text)
    sticks, envelope = tmp_path / "sticks.csv", tmp_path / "envelope.csv"
    assert cli.main(["spectrum", "--config", str(tmp_path / "run.cfg"),
                     "--sticks", str(sticks), "--out-spectrum", str(envelope)]) == 0
    lines = cli._read_lines_csv(str(sticks))
    return config.parse_config(text), lines, np.loadtxt(envelope, delimiter=",", skiprows=1)


def _fit_models(cfg):
    """Both fit models and the start values of `fit --free B,beta,nu0`, as
    cmd_fit builds them from a run config."""
    initial = {"B": cfg.model.B, "beta": cfg.model.beta, "nu0": cfg.band.nu0,
               "excited_scale": cfg.band.excited_scale, "fwhm": cfg.synthesis.fwhm,
               **{k: v for k in spectrum.OFFSET_NAMES
                  if (v := getattr(cfg.band, k)) is not None}}
    params = FitSpec(free_params=("B", "beta", "nu0"), initial=initial).resolved_initial()
    tmodel = TransitionModel(cfg.model.potential, jmax=cfg.model.Jmax)
    emodel = EnvelopeModel(cfg.model.potential, jmax=cfg.model.Jmax,
                           pop=cfg.population, shape=cfg.synthesis.shape, band=cfg.band)
    return params, tmodel, emodel


def test_envelope_model_matches_spectrum_envelope(tmp_path):
    """At the config's own values the envelope fit models the envelope that
    `spectrum` writes, lattice sum bands included."""
    cfg, _, envelope = _spectrum_run(tmp_path, SHIPPED)
    assert cfg.band.lattice_freq == 66.0
    params, _, emodel = _fit_models(cfg)
    modeled = emodel.amplitude(params, envelope[:, 0])
    peak = envelope[:, 1].max()
    assert np.max(np.abs(modeled - envelope[:, 1])) <= 1e-6 * peak


def test_fit_models_derive_unset_offsets_as_spectrum_does(tmp_path):
    """With dw_* unset and fixed, both fit models put every line where
    `spectrum` does instead of at the PARAM_DEFAULTS offsets."""
    text = "\n".join(l for l in SHIPPED.splitlines() if not l.startswith("dw_"))
    cfg, lines, _ = _spectrum_run(tmp_path, text)
    assert cfg.band.dw_L1_star is None and cfg.band.dw_LE3_star is None
    params, tmodel, emodel = _fit_models(cfg)
    drawn = {(l.lower, l.upper): l.frequency for l in lines if l.activity == "IR"}
    for name, modeled in zip(tmodel.NAMES, tmodel.frequencies(tmodel.NAMES, params)):
        lower, upper = name.split("->")
        assert modeled == pytest.approx(drawn[lower, upper], abs=1e-6)
    modeled = {(l.lower, l.upper): l.frequency for l in emodel.lines(params)}
    assert modeled.keys() == drawn.keys()
    for key, freq in modeled.items():
        assert freq == pytest.approx(drawn[key], abs=1e-6), key


# ---------------------------------------------------------------- solver objectives

#: the objectives the Nelder-Mead simplex reached on these fits, recorded
#: before the Levenberg-Marquardt solver replaced it; none may be higher now
SIMPLEX_OBJECTIVES = {"exact": 0.0, "one peak off": 0.04166666666666667,
                      "3270": 8.0, "3217.5": 0.18263180024633208}


@pytest.mark.parametrize("case", ["exact", "one peak off"])
def test_six_band_fits_reach_the_simplex_objectives(tmodel, case):
    # B, beta, nu0 and the dw pair from (5.6, 1.0, 3204); one peak 0.5 cm-1
    # off leaves a sum of squares of 0.25/6
    freqs = [p.frequency for p in _synthetic_peaks(tmodel).peaks]
    freqs[2] += 0.5 if case == "one peak off" else 0.0
    spec = FitSpec(free_params=("B", "beta", "nu0", "extra_offsets"),
                   bounds={"B": (4.0, 7.0), "beta": (0.3, 2.5)},
                   initial={"B": 5.6, "beta": 1.0, "nu0": 3204.0}, n_starts=8)
    report = fit_line_positions(peak_list(freqs, labels=list(NAMES)), spec, tmodel)
    assert report.converged
    assert report.objective <= SIMPLEX_OBJECTIVES[case] * (1 + 1e-9)


@pytest.mark.parametrize("case, label, extra", [
    ("3270", "(L1)1->(L1)2*", []),  # dw_L1_star would leave its box
    ("3217.5", "(A1)1->(L1)1*", ["--free", "beta,nu0", "--starts", "3"]),
])
def test_four_band_fits_reach_the_simplex_objectives(tmp_path, capsys, case, label, extra):
    peaks = (ROOT / "configs/atpb_peaks.csv").read_text()
    (tmp_path / "peaks.csv").write_text(re.sub(rf"(?m)^[\d.]+(?=,,{re.escape(label)}$)",
                                               case, peaks))
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--config", str(ROOT / "configs/atpb.cfg"), "--peaks",
                     str(tmp_path / "peaks.csv"), "--out", str(out), *extra]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["converged"] and report["iterations"] > 0
    assert report["objective"] <= SIMPLEX_OBJECTIVES[case] * (1 + 1e-9)


def test_five_parameter_envelope_fit(tmp_path, capsys, monkeypatch):
    # the shipped config's envelope at Jmax 6, fitted from B 5.6, beta 1.3,
    # nu0 3207 and fwhm 1.8 with scale free too: the simplex took 442
    # iterations and 729 diagonalizations to reach 2.9925444349070805e-16;
    # the solver took 29 while the fit kept one beta's levels, and 23 with
    # two; with the scale solved at each point, not searched, it takes 17
    (tmp_path / "truth.cfg").write_text(SHIPPED)
    start = SHIPPED
    for key, value in (("B", 5.6), ("beta", 1.3), ("nu0", 3207.0), ("fwhm", 1.8)):
        start = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", start)
    (tmp_path / "start.cfg").write_text(start)
    envelope, out = tmp_path / "envelope.csv", tmp_path / "fit.json"
    assert cli.main(["spectrum", "--config", str(tmp_path / "truth.cfg"), "--sticks",
                     str(tmp_path / "sticks.csv"), "--out-spectrum", str(envelope)]) == 0
    solves = _counting(monkeypatch, rotor, "diagonalize")
    assert cli.main(["fit", "--config", str(tmp_path / "start.cfg"), "--envelope",
                     str(envelope), "--free", "B,beta,nu0,fwhm",
                     "--starts", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert len(solves) <= 20
    assert report["objective"] <= 2.9925444349070805e-16 * (1 + 1e-9)
    truth = {"B": 5.503275, "beta": 1.0, "nu0": 3206.0, "fwhm": 1.5, "scale": 1.0}
    for name, value in truth.items():
        assert report["values"][name] == pytest.approx(value, rel=1e-6), name


def test_envelope_fit_solves_the_intensity_scale(tmp_path, capsys):
    # the shipped config's envelope at Jmax 6 in other units, 2.5 times its
    # own, fitted with the default --free from one start: the scale is no
    # fit parameter but solved at each point, so the envelope's units do
    # not move the fitted B, beta and nu0
    (tmp_path / "truth.cfg").write_text(SHIPPED)
    envelope, out = tmp_path / "envelope.csv", tmp_path / "fit.json"
    assert cli.main(["spectrum", "--config", str(tmp_path / "truth.cfg"), "--sticks",
                     str(tmp_path / "sticks.csv"), "--out-spectrum", str(envelope)]) == 0
    header, *rows = envelope.read_text().splitlines()
    envelope.write_text("\n".join([header, *(f"{f},{2.5 * float(a)!r}" for f, a in
                                              (row.split(",") for row in rows))]) + "\n")
    capsys.readouterr()
    start = re.sub(r"(?m)^B = .*$", "B = 5.6", SHIPPED)
    (tmp_path / "start.cfg").write_text(start)
    assert cli.main(["fit", "--config", str(tmp_path / "start.cfg"), "--envelope",
                     str(envelope), "--starts", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["converged"] and report["starts_run"] == 1
    truth = {"B": 5.503275, "beta": 1.0, "nu0": 3206.0, "scale": 2.5}
    for name, value in truth.items():
        assert report["values"][name] == pytest.approx(value, rel=1e-6), name


# ---------------------------------------------------------------- fixed-beta traffic

def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the count."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_fixed_beta_position_fit_solves_each_label_once(tmp_path, monkeypatch):
    # the four-band fit reads the A1 and L1 blocks; with beta fixed the fit
    # keeps their energies for its whole run
    repo = Path(__file__).resolve().parent.parent
    solves = _counting(monkeypatch, rotor.LevelGapCache, "eigenvalues")
    rc = cli.main(["fit", "--config", str(repo / "configs" / "atpb.cfg"),
                   "--peaks", str(repo / "configs" / "atpb_peaks.csv"),
                   "--free", "B,nu0,extra_offsets", "--out", str(tmp_path / "fit.json")])
    assert rc == 0
    assert sorted(label for _, _, label in solves) == ["A1", "L1"]


def test_fixed_beta_envelope_fit_diagonalizes_once(monkeypatch):
    solves = _counting(monkeypatch, rotor, "diagonalize")
    model = EnvelopeModel(jmax=4)
    freqs = np.arange(3150.0, 3300.0, 0.5)
    amps = model.amplitude(dict(TRUTH, beta=1.0, nu0=3206.5, fwhm=2.0), freqs)
    spec = FitSpec(free_params=("nu0", "fwhm"), bounds={"fwhm": (0.5, 20.0)},
                   initial=dict(TRUTH, beta=1.0), n_starts=2)
    fit_envelope(freqs, amps, spec, model, seed=0)
    assert len(solves) == 1


def test_two_alternating_betas_are_each_solved_once(monkeypatch):
    # a solver iteration asks for its iterate's beta and its beta
    # difference's in turn, so both models keep two betas
    betas = (1.0, 1.0 + 1e-7)
    solves = _counting(monkeypatch, rotor.LevelGapCache, "eigenvalues")
    gaps = rotor.LevelGapCache(jmax=4)
    for beta in betas * 2:
        for label in rotor.LEVEL_LABELS:
            gaps.energies(beta, label)
    blocks = {rotor.LevelGapCache._EXCHANGED.get(n, n) for n in rotor.LEVEL_LABELS}
    assert len(blocks) == 7
    assert sorted((beta, label) for _, beta, label in solves) == sorted(
        (beta, label) for beta in betas for label in blocks)
    diagonalized = _counting(monkeypatch, rotor, "diagonalize")
    model = EnvelopeModel(jmax=4)
    for beta in betas * 2:
        model.amplitude(dict(TRUTH, beta=beta), np.arange(3150.0, 3300.0, 0.5))
    assert [args[0].beta for args in diagonalized] == list(betas)


def test_four_band_fit_bits(tmp_path, capsys, monkeypatch):
    # the four bands fix only B*gap(beta): at the start beta the linear solve
    # fits them exactly, so no solver runs and A1 and L1 are solved once
    # each, and once more for their beta slopes in the rank's Jacobian
    solves = {"eigenvalues": [], "slopes": []}
    for method, labels in solves.items():
        inner = getattr(rotor.LevelGapCache, method)
        monkeypatch.setattr(rotor.LevelGapCache, method,
                            lambda self, beta, label, inner=inner, labels=labels:
                            labels.append(label) or inner(self, beta, label))
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--config", str(ROOT / "configs/atpb.cfg"),
                     "--peaks", str(ROOT / "configs/atpb_peaks.csv"), "--out", str(out)]) == 0
    assert ("rank 4 of 5 free scalars: the peaks fix only a combination of B, beta\n"
            in capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert {k: sorted(v) for k, v in solves.items()} == {"eigenvalues": ["A1", "L1"],
                                                          "slopes": ["A1", "L1"]}
    assert report["iterations"] == 0 and report["starts_run"] == 1
    assert report["values"]["beta"] == 1.0
    gap = rotor.LevelGapCache(rotor.normalize_potential(((3, -1.0),)), 10).gap(1.0)
    assert report["values"]["B"] == pytest.approx(11.0 / gap, rel=1e-12)
    assert report["identifiability"] == {"rank": 4, "free_scalars": 5, "unfixed": ["B", "beta"]}
