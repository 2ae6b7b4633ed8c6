"""Addressability arithmetic: separations, channels, distances, couplings."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from rotorspec import qubitplan, units
from rotorspec.qubitplan import (POISSON_MEAN_FACTOR, CrystalSpec, PlanError,
                                 addressable_channels, build_plan_report,
                                 coupling_estimate, delta_omega_table,
                                 nn_distance, nn_distance_mc)
from rotorspec.spectrum import Line


def _lines(freqs):
    return [Line(f, 1.0, f"lo{i}", f"up{i}", "IR") for i, f in enumerate(freqs)]


# ---------------------------------------------------------------- separations

def test_delta_omega_paper_values():
    table = delta_omega_table(_lines([3206.0, 3217.0]))
    assert table[0][2] == pytest.approx(11.0, abs=1e-12)
    assert table[0][3] == pytest.approx(329.77, abs=0.01)
    table = delta_omega_table(_lines([3230.0, 3235.0]))
    assert table[0][2] == pytest.approx(5.0, abs=1e-12)


def test_delta_omega_identical_frequencies():
    lines = [Line(3206.0, 1.0, "a", "b", "IR"), Line(3206.0, 1.0, "c", "d", "IR")]
    assert delta_omega_table(lines)[0][2] == 0.0


def test_delta_omega_requires_two_lines():
    with pytest.raises(PlanError, match="two lines"):
        delta_omega_table(_lines([3206.0]))


def test_delta_omega_sorted_descending():
    table = delta_omega_table(_lines([3206.0, 3217.0, 3230.0, 3235.0]))
    deltas = [row[2] for row in table]
    assert deltas == sorted(deltas, reverse=True)
    assert len(table) == 6


@given(st.lists(st.floats(min_value=1.0, max_value=4000.0), min_size=2,
                max_size=7, unique=True), st.randoms())
def test_delta_omega_permutation_invariant(freqs, rnd):
    base = delta_omega_table(_lines(freqs))
    shuffled = _lines(freqs)
    rnd.shuffle(shuffled)
    assert delta_omega_table(shuffled) == base


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                          st.integers(min_value=0, max_value=3)), min_size=2, max_size=12))
def test_max_pairs_keeps_the_first_rows_of_the_full_table(drawn):
    # few distinct frequencies a tenth apart, so separations tie exactly or
    # differ by their rounding, and few names, so lines share a name and
    # the names decide among ties; k runs from 0 to past the pair count
    lines = [Line(3200.0 + 0.1 * f, 1.0, f"lo{n}", f"up{n % 2}", "IR") for f, n in drawn]
    table = delta_omega_table(lines)
    for k in range(len(table) + 3):
        assert delta_omega_table(lines, max_pairs=k) == table[:k] == reference.widest_pairs(lines, k)


@given(st.integers(min_value=2, max_value=447),
       st.sampled_from(["one", "grid", "distinct", "free"]), st.randoms())
def test_full_table_is_every_pair_sorted_widest_first(count, kind, rnd):
    # the full table against making every pair.  Frequencies: all equal
    # (every pair tied at d = 0); on a 0.5 cm^-1 grid with repeats (exact
    # ties, equal frequencies) or without (the narrowest separation, 0.5,
    # tied by many pairs); or drawn freely with repeats.  Lower names repeat
    # and fall as the list goes on, against its order
    if kind == "one":
        freqs = [3206.0] * count
    elif kind == "grid":
        freqs = [3000.0 + 0.5 * rnd.randrange(count) for _ in range(count)]
    elif kind == "distinct":
        freqs = [3000.0 + 0.5 * i for i in rnd.sample(range(3 * count), count)]
    else:
        freqs = []
        for _ in range(count):
            freqs.append(rnd.choice(freqs) if freqs and rnd.random() < 0.2
                         else rnd.uniform(3000.0, 3300.0))
    lines = [Line(f, 1.0, f"(L1){(count - i) // 2}", f"(E3){rnd.randrange(3)}*", "IR")
             for i, f in enumerate(freqs)]
    table = sorted(reference.all_pairs(lines), key=qubitplan._widest_first)
    assert delta_omega_table(lines) == table


@pytest.mark.parametrize("count,spacing", [(1500, 0.1), (300, 0.0)])
def test_max_pairs_matches_making_every_pair(count, spacing):
    # frequencies rounded to `spacing` (all equal at 0), so the k-th
    # separation has many ties; too many lines for a full table
    rnd = random.Random(count)
    lines = [Line(3000.0 + round(rnd.uniform(0, 300) / spacing) * spacing if spacing else 3000.0,
                  1.0, f"(L1){rnd.randrange(count // 3)}", f"(E3){rnd.randrange(4)}*", "IR")
             for _ in range(count)]
    widest = reference.widest_pairs(lines, 1000)
    for k in (1, 10, 1000):
        assert delta_omega_table(lines, max_pairs=k) == widest[:k]


def test_full_table_bounded_before_any_pair_is_made(monkeypatch):
    count = next(n for n in range(2, 10**4) if n * (n - 1) // 2 > qubitplan.MAX_PAIRS)
    lines = _lines([3000.0 + i for i in range(count)])
    monkeypatch.setattr(qubitplan, "_widest", lambda lines, k: pytest.fail("a pair was made"))
    with pytest.raises(PlanError, match=f"{count} lines make .* more than the {qubitplan.MAX_PAIRS}"):
        delta_omega_table(lines)
    assert qubitplan.MAX_PAIRS >= 5 * 186 * 185 // 2  # the shipped config's stick list


def test_ghz_conversion_single_constant():
    assert units.GHZ_PER_INV_CM == 29.9792458
    table = delta_omega_table(_lines([100.0, 101.0]))
    assert table[0][3] == table[0][2] * 29.9792458


# ---------------------------------------------------------------- channels

def test_channel_counts():
    assert addressable_channels(1.5, 1.0) == 44
    assert addressable_channels(3.0, 10.0) == 8
    assert addressable_channels(1.0, 1000.0) == 1


def test_channel_validation():
    with pytest.raises(PlanError):
        addressable_channels(0.0, 1.0)
    with pytest.raises(PlanError):
        addressable_channels(1.0, -2.0)


# ---------------------------------------------------------------- distances

def test_nn_distance_characteristic():
    assert nn_distance(CrystalSpec(1.0, 1.0)) == pytest.approx(1.0)
    assert nn_distance(CrystalSpec(1.0, 0.01)) == pytest.approx(4.6416, abs=1e-4)
    assert nn_distance(CrystalSpec(0.8, 0.01)) == pytest.approx(0.8 * 4.6416, abs=1e-3)


def test_nn_distance_poisson_mean():
    assert POISSON_MEAN_FACTOR == pytest.approx(0.55396, abs=1e-5)
    assert nn_distance(CrystalSpec(1.0, 0.01), "poisson_mean") == pytest.approx(2.5713, abs=1e-3)


def test_nn_distance_unknown_mode():
    with pytest.raises(PlanError, match="mode"):
        nn_distance(CrystalSpec(1.0, 0.1), "median")


@given(st.floats(min_value=0.001, max_value=1.0),
       st.floats(min_value=0.001, max_value=1.0))
def test_nn_distance_strictly_decreasing_in_c(c1, c2):
    lo, hi = sorted((c1, c2))
    if hi - lo < 1e-9:
        return
    for mode in ("characteristic", "poisson_mean"):
        assert nn_distance(CrystalSpec(1.0, hi), mode) < nn_distance(CrystalSpec(1.0, lo), mode)


def test_crystal_spec_validation():
    def plan(spec):
        return build_plan_report(_lines([3206.0, 3217.0]), spec, band_fwhm_cm1=1.5,
                                 source_linewidth_ghz=1.0)

    for spec in (CrystalSpec(a_nm=-1.0, c=0.5), CrystalSpec(a_nm=1.0, c=0.0),
                 CrystalSpec(a_nm=1.0, c=1.5)):
        for use in (nn_distance, nn_distance_mc, plan):
            with pytest.raises(PlanError, match="invalid crystal"):
                use(spec)


def test_monte_carlo_matches_poisson_mean():
    spec = CrystalSpec(a_nm=1.0, c=0.01)
    mc = nn_distance_mc(spec, n_samples=100_000, seed=0)
    closed = nn_distance(spec, "poisson_mean")
    assert abs(mc - closed) / closed < 0.05


@pytest.mark.parametrize("c", [0.005, 0.02, 0.05])
def test_monte_carlo_across_dilutions(c):
    spec = CrystalSpec(a_nm=1.3, c=c)
    mc = nn_distance_mc(spec, n_samples=50_000, seed=2)
    closed = nn_distance(spec, "poisson_mean")
    assert abs(mc - closed) / closed < 0.05


def test_monte_carlo_deterministic():
    spec = CrystalSpec(a_nm=1.0, c=0.02)
    assert nn_distance_mc(spec, 20_000, seed=7) == nn_distance_mc(spec, 20_000, seed=7)


# ---------------------------------------------------------------- couplings

def test_coupling_reference_value():
    # 1 debye at 5 nm is about 1.2 GHz
    assert coupling_estimate(1.0, 5.0) == pytest.approx(1.207e9, rel=1e-3)


def test_coupling_inverse_cube():
    assert coupling_estimate(1.0, 10.0) * 8 == pytest.approx(coupling_estimate(1.0, 5.0))


def test_coupling_zero_dipole():
    assert coupling_estimate(0.0, 5.0) == 0.0
    with pytest.raises(PlanError):
        coupling_estimate(1.0, 0.0)
    with pytest.raises(PlanError):
        coupling_estimate(-1.0, 5.0)


@pytest.mark.parametrize("mu,r", [(1.0, 1e-120), (1.0, 1e300), (1.0, math.inf),
                                  (1e200, 5.0), (1e160, 5.0)])
def test_coupling_outside_float_range_rejected(mu, r):
    with pytest.raises(PlanError):
        coupling_estimate(mu, r)


# ---------------------------------------------------------------- report

def test_build_plan_report():
    report = build_plan_report(_lines([3206.0, 3217.0, 3230.0, 3235.0]),
                               CrystalSpec(1.0, 0.01, mu_debye=1.0), band_fwhm_cm1=1.5,
                               source_linewidth_ghz=1.0)
    assert report.channels == 44
    assert report.r12_characteristic_nm == pytest.approx(4.6416, abs=1e-4)
    assert report.delta_omega_pairs[0][2] == pytest.approx(29.0)
    assert all(hz > 0 for _, _, hz in report.couplings)
