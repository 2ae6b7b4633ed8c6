"""Populations, line generation, sum bands and envelope synthesis."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotorspec import rotor, spectrum, symmetry, units
from reference import tunneling_frequencies
from rotorspec.rotor import find_level
from rotorspec.spectrum import (DEFAULT_FROZEN_FRACTIONS, Line,
                                PopulationModel, SpectrumConfig,
                                SpectrumError, VibrationBandModel,
                                hosted_species, populations,
                                rotational_raman_lines, sum_band_lines,
                                synthesize, vibration_orientation_lines)

BAND = VibrationBandModel(nu0=3206.0, dw_L1_star=24.0, dw_LE3_star=29.0)


# ---------------------------------------------------------------- populations

def test_default_frozen_fractions():
    assert DEFAULT_FROZEN_FRACTIONS == {"A": 5 / 16, "E": 2 / 16, "F": 9 / 16}


@given(st.floats(min_value=0.5, max_value=400.0),
       st.sampled_from(["thermal", "spin_frozen"]))
def test_populations_sum_to_one(levels_beta1, T, mode):
    pops = populations(levels_beta1, PopulationModel(mode=mode, T=T))
    assert sum(pops.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0 for p in pops.values())


def test_thermal_high_temperature_limit(levels_beta1):
    pops = populations(levels_beta1, PopulationModel(mode="thermal", T=1e7))
    weights = {lev.name: spectrum._pauli_count(lev) for lev in levels_beta1}
    total = sum(weights.values())
    for name, p in pops.items():
        assert p == pytest.approx(weights[name] / total, rel=1e-4)


def test_thermal_low_temperature_limit(levels_beta1):
    pops = populations(levels_beta1, PopulationModel(mode="thermal", T=0.05))
    assert pops["(A1)1"] == pytest.approx(1.0, abs=1e-12)


def test_frozen_retains_species_share(levels_beta1):
    pops = populations(levels_beta1, PopulationModel(mode="spin_frozen", T=7.0))
    species = {lev.name: lev.spin_species for lev in levels_beta1}
    f_share = sum(p for name, p in pops.items() if species[name] == "F")
    assert f_share == pytest.approx(9 / 16, abs=1e-12)
    # the lowest F level keeps nearly the whole share at 7 K; the rest sits
    # in the J = 2 derived F levels some 22 cm^-1 up
    assert pops["(L1)1"] == pytest.approx(9 / 16, rel=2e-2)


def test_frozen_populations_at_sub_kelvin_temperature(levels_beta1):
    # at 0.05 K exp(-E/kT) underflows to 0 for every E and F level; each
    # species' factors are taken from its own lowest level, so its share
    # sits whole in that level
    pops = populations(levels_beta1, PopulationModel(mode="spin_frozen", T=0.05))
    assert (pops["(A1)1"], pops["(L1)1"]) == (5 / 16, 9 / 16)
    # (E4)1, 0.99 cm^-1 above (E2)1, keeps 1.8e-13 of the E share
    assert pops["(E2)1"] == pytest.approx(2 / 16, abs=1e-12)
    assert sum(pops.values()) == pytest.approx(1.0, abs=1e-15)


def test_thermal_share_suppressed_relative_to_frozen(levels_beta1):
    """The L1 population at 7 K: Boltzmann-suppressed in equilibrium, pinned
    at its species share when the spin species are frozen."""
    thermal = populations(levels_beta1, PopulationModel(mode="thermal", T=7.0))
    frozen = populations(levels_beta1, PopulationModel(mode="spin_frozen", T=7.0))
    assert thermal["(L1)1"] < 0.3 * frozen["(L1)1"]
    # double-entry check of the exact ratio (16/9) * W_F / Z
    kt = units.thermal_energy_cm1(7.0)
    boltz = {lev.name: spectrum._pauli_count(lev) * math.exp(-lev.energy / kt)
             for lev in levels_beta1}
    z_total = sum(boltz.values())
    w_f = sum(boltz[lev.name] for lev in levels_beta1 if lev.spin_species == "F")
    assert thermal["(L1)1"] / frozen["(L1)1"] == pytest.approx(
        (16 / 9) * w_f / z_total, rel=1e-9)


def test_populations_reject_bad_temperature(levels_beta1):
    with pytest.raises(SpectrumError, match="temperature"):
        populations(levels_beta1, PopulationModel(mode="thermal", T=0.0))
    with pytest.raises(SpectrumError, match="temperature"):
        populations(levels_beta1, PopulationModel(mode="thermal", T=-4.0))


def test_populations_reject_bad_fractions(levels_beta1):
    bad = PopulationModel(mode="spin_frozen", T=7.0,
                          fractions={"A": 0.5, "E": 0.2, "F": 0.2})
    with pytest.raises(SpectrumError, match="sum"):
        populations(levels_beta1, bad)


def test_custom_frozen_fractions(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0,
                          fractions={"A": 1.0, "E": 0.0, "F": 0.0})
    pops = populations(levels_beta1, pop)
    # the rest of the A share sits in the 66 cm^-1 A-type levels
    assert pops["(A1)1"] == pytest.approx(1.0, rel=1e-4)
    assert pops["(L1)1"] == 0.0
    assert sum(pops.values()) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.5, max_value=15.0), st.floats(min_value=0.5, max_value=15.0))
def test_monotone_temperature_response(levels_beta1, t1, t2):
    """Raising T never decreases the population of a level above ground
    while kT stays below the higher manifolds; at higher T intermediate
    levels legitimately lose population to the states above them."""
    lo, hi = sorted((t1, t2))
    p_lo = populations(levels_beta1, PopulationModel(mode="thermal", T=lo))
    p_hi = populations(levels_beta1, PopulationModel(mode="thermal", T=hi))
    for lev in levels_beta1:
        if lev.energy > 0:
            assert p_hi[lev.name] >= p_lo[lev.name] - 1e-12


# ---------------------------------------------------------------- IR lines

def test_fig5_line_positions(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    lines = vibration_orientation_lines(levels_beta1, BAND, pop)
    by_pair = {(l.lower, l.upper): l.frequency for l in lines}
    w_la = find_level(levels_beta1, "L1").energy
    assert by_pair[("(L1)1", "(L1)1*")] == pytest.approx(3206.0, abs=1e-9)
    assert by_pair[("(A1)1", "(L1)1*")] == pytest.approx(3206.0 + w_la, abs=1e-9)
    assert by_pair[("(L1)1", "(L1)2*")] == pytest.approx(3230.0, abs=1e-9)
    assert by_pair[("(L1)1", "(E3)1*")] == pytest.approx(3235.0, abs=1e-9)
    assert by_pair[("(L1)1", "(A1)1*")] == pytest.approx(3206.0 - w_la, abs=1e-9)


def test_tunneling_difference_matches_construction(levels_beta1):
    """With excited_scale = 1 the A1- and L1-origin lines to the same final
    differ by exactly omega_LA."""
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    lines = vibration_orientation_lines(levels_beta1, BAND, pop)
    by_pair = {(l.lower, l.upper): l.frequency for l in lines}
    w_la, _ = tunneling_frequencies(levels_beta1)
    diff = by_pair[("(A1)1", "(L1)1*")] - by_pair[("(L1)1", "(L1)1*")]
    assert diff == pytest.approx(w_la, abs=1e-12)


def test_excited_scale_rescales_gaps(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    band = VibrationBandModel(nu0=3206.0, excited_scale=1.25)
    lines = vibration_orientation_lines(levels_beta1, band, pop)
    by_pair = {(l.lower, l.upper): l.frequency for l in lines}
    w_la, _ = tunneling_frequencies(levels_beta1)
    # initial-side gap unscaled, excited-side gap scaled
    assert (by_pair[("(A1)1", "(L1)1*")]
            - by_pair[("(L1)1", "(L1)1*")]) == pytest.approx(w_la, abs=1e-12)
    assert (by_pair[("(L1)1", "(L1)1*")]
            - by_pair[("(L1)1", "(A1)1*")]) == pytest.approx(1.25 * w_la, abs=1e-10)


def test_frequency_consistency_invariant(levels_beta1):
    """Every line frequency minus nu0 reconstructs from the level table and
    the band offsets."""
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    lines = vibration_orientation_lines(levels_beta1, BAND, pop)
    e_l1 = find_level(levels_beta1, "L1").energy
    by_name = {lev.name: lev for lev in levels_beta1}
    for line in lines:
        ini = by_name[line.lower]
        fin = by_name[line.upper.rstrip("*")]
        key = (fin.rovib_label, fin.ordinal)
        if key in {("L1", 2), ("I1I2", 1), ("E4", 1)}:
            offset = BAND.dw_L1_star
        elif key == ("E3", 1):
            offset = BAND.dw_LE3_star
        else:
            offset = BAND.excited_scale * (fin.energy - e_l1)
        expect = BAND.nu0 + offset - (ini.energy - e_l1)
        assert line.frequency == pytest.approx(expect, abs=1e-9)


def test_spin_species_conserved_on_ir_lines(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    lines = vibration_orientation_lines(levels_beta1, BAND, pop)
    by_name = {lev.name: lev for lev in levels_beta1}
    for line in lines:
        lower = by_name[line.lower]
        upper_label = by_name[line.upper.rstrip("*")].rovib_label
        assert lower.spin_species in hosted_species(upper_label)


def test_hosted_species_reference_cases():
    # a molecular-F orientational level in the excited vibration hosts all
    # species; molecular-A or -E levels host only F
    assert hosted_species("L1") == {"A", "E", "F"}
    assert hosted_species("L2") == {"A", "E", "F"}
    assert hosted_species("A1") == {"F"}
    assert hosted_species("E2") == {"F"}


def test_hosted_species_decomposes_each_final_label_once(levels_beta1, monkeypatch):
    # the species depend on the label alone; an envelope fit asks for them
    # at every objective evaluation
    hosted_species.cache_clear()
    calls = []
    decompose = symmetry.decompose
    monkeypatch.setattr(symmetry, "decompose",
                        lambda chi, table: calls.append(chi) or decompose(chi, table))
    first = vibration_orientation_lines(levels_beta1, BAND, PopulationModel())
    assert vibration_orientation_lines(levels_beta1, BAND, PopulationModel()) == first
    assert 0 < len(calls) <= len({lev.rovib_label for lev in levels_beta1})


def test_missing_required_level_reported(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    subset = [lev for lev in levels_beta1 if lev.rovib_label != "E2"]
    with pytest.raises(SpectrumError, match=r"\(E2\)1"):
        vibration_orientation_lines(subset, BAND, pop)


def test_intensities_nonnegative_and_normalized_per_initial(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    pops = populations(levels_beta1, pop)
    lines = vibration_orientation_lines(levels_beta1, BAND, pop)
    assert all(l.intensity >= 0 for l in lines)
    for name in ("(A1)1", "(L1)1", "(E2)1"):
        total = sum(l.intensity for l in lines if l.lower == name)
        assert total == pytest.approx(pops[name], abs=1e-12)


def test_free_rotor_branch_strength_ratios(levels_beta1):
    """In the free-rotor regime the R(0) orientational strength per state is
    three times the Q(1) strength."""
    a1, l1 = find_level(levels_beta1, "A1", 1), find_level(levels_beta1, "L1", 1)
    [r0] = rotor.transition_strength(a1, [l1], rank=1)
    [q1] = rotor.transition_strength(l1, [l1], rank=1)
    assert r0 / a1.degeneracy == pytest.approx(3.0, rel=2e-3)
    assert q1 / l1.degeneracy == pytest.approx(1.0, rel=2e-3)


def test_lines_of_levels_without_vectors_raise_rotor_error(levels_beta1):
    bare = [replace(lev, vectors=None) for lev in levels_beta1]
    with pytest.raises(rotor.RotorError, match="eigenvectors"):
        vibration_orientation_lines(bare, BAND, PopulationModel())
    with pytest.raises(rotor.RotorError, match="eigenvectors"):
        rotational_raman_lines(bare, PopulationModel())


def test_strength_of_vectors_matching_no_basis_size_raises(levels_beta1):
    a1 = find_level(levels_beta1, "A1", 1)
    cut = replace(a1, vectors=a1.vectors[:-1])
    with pytest.raises(rotor.RotorError, match="no basis size"):
        rotor.transition_strength(cut, [cut], rank=1)


def test_free_rotor_limit_spectrum():
    """At beta = 0 the vibration-orientation lines collapse onto the
    free-rotor branch pattern: nu0 - 2B, nu0 and nu0 + 2B for the three main
    transitions, with the J' = 2 group at nu0 + 4B."""
    b = 5.9
    model = rotor.RotorModel.create(B=b, beta=0.0, Jmax=6)
    levels = rotor.classify_levels(rotor.diagonalize(model), max_energy=60.0)
    band = VibrationBandModel(nu0=3206.0)
    pop = PopulationModel(mode="spin_frozen", T=7.0)
    lines = vibration_orientation_lines(levels, band, pop)
    by_pair = {(l.lower, l.upper): l.frequency for l in lines}
    assert by_pair[("(L1)1", "(A1)1*")] == pytest.approx(3206.0 - 2 * b, abs=1e-8)
    assert by_pair[("(L1)1", "(L1)1*")] == pytest.approx(3206.0, abs=1e-8)
    assert by_pair[("(A1)1", "(L1)1*")] == pytest.approx(3206.0 + 2 * b, abs=1e-8)
    assert by_pair[("(L1)1", "(L1)2*")] == pytest.approx(3206.0 + 4 * b, abs=1e-8)


# ---------------------------------------------------------------- Raman lines

def test_raman_frequencies_are_level_differences(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=5.0)
    lines = rotational_raman_lines(levels_beta1, pop)
    energies = {lev.name: lev.energy for lev in levels_beta1}
    for line in lines:
        assert line.frequency == pytest.approx(
            energies[line.upper] - energies[line.lower], abs=1e-9)
        assert line.frequency > 0
        assert line.activity == "Raman"


def test_raman_conserves_spin_species(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=5.0)
    lines = rotational_raman_lines(levels_beta1, pop)
    species = {lev.name: lev.spin_species for lev in levels_beta1}
    for line in lines:
        assert species[line.lower] == species[line.upper]


def test_raman_l1_lines_present_when_frozen(levels_beta1):
    pop = PopulationModel(mode="spin_frozen", T=5.0)
    lines = rotational_raman_lines(levels_beta1, pop)
    from_l1 = [l for l in lines if l.lower == "(L1)1"]
    assert from_l1 and all(l.intensity > 0 for l in from_l1)
    # the directly observable rotational window
    assert all(10.0 < l.frequency < 60.0 for l in from_l1)


def test_raman_thermal_vs_frozen_contrast(levels_beta1):
    """Thermal 5 K leaves the L1-origin Raman lines below 15% of their
    spin-frozen intensity."""
    frozen = rotational_raman_lines(levels_beta1, PopulationModel("spin_frozen", 5.0))
    thermal = rotational_raman_lines(levels_beta1, PopulationModel("thermal", 5.0))
    f = {(l.lower, l.upper): l.intensity for l in frozen if l.lower == "(L1)1"}
    t = {(l.lower, l.upper): l.intensity for l in thermal if l.lower == "(L1)1"}
    assert f
    for pair, fi in f.items():
        assert t.get(pair, 0.0) < 0.15 * fi


# ---------------------------------------------------------------- sum bands

def test_sum_band_shift():
    base = [Line(3217.0, 1.0, "(A1)1", "(L1)1*", "IR")]
    out = sum_band_lines(base, replace(BAND, lattice_freq=66.0))
    assert out[0].frequency == pytest.approx(3283.0, abs=1e-12)
    assert out[0].intensity == pytest.approx(0.1)
    assert out[0].upper.endswith("+lat")


def test_sum_band_zero_shift_and_zero_scale(levels_beta1):
    base = [Line(3217.0, 1.0, "(A1)1", "(L1)1*", "IR")]
    assert sum_band_lines(base, replace(BAND, lattice_freq=0.0))[0].frequency == 3217.0
    zero_scale = replace(BAND, lattice_freq=66.0, sum_band_scale=0.0)
    assert sum_band_lines(base, zero_scale)[0].intensity == 0.0
    with pytest.raises(SpectrumError, match="lattice"):
        spectrum.envelope_lines(levels_beta1, replace(BAND, lattice_freq=-1.0),
                                PopulationModel())


# ---------------------------------------------------------------- synthesis

def test_single_line_unit_area():
    for shape in ("gaussian", "lorentzian"):
        cfg = SpectrumConfig(start=2900.0, stop=3500.0, step=0.02, shape=shape, fwhm=2.0)
        freqs, amps = synthesize([Line(3200.0, 2.5, "a", "b", "IR")], cfg)
        area = np.trapezoid(amps, freqs)
        # lorentzian tails are slow; gaussian integrates to the intensity
        tol = 1e-3 if shape == "gaussian" else 2e-2
        assert area == pytest.approx(2.5, rel=tol)
        assert freqs[np.argmax(amps)] == pytest.approx(3200.0, abs=cfg.step)


def test_two_lines_resolved():
    cfg = SpectrumConfig(start=3180.0, stop=3240.0, step=0.02, fwhm=3.0)
    lines = [Line(3206.0, 1.0, "a", "b", "IR"), Line(3217.0, 1.0, "c", "d", "IR")]
    freqs, amps = synthesize(lines, cfg)
    interior = (amps[1:-1] > amps[:-2]) & (amps[1:-1] > amps[2:])
    peaks = freqs[1:-1][interior]
    assert len(peaks) == 2
    assert peaks[0] == pytest.approx(3206.0, abs=0.1)
    assert peaks[1] == pytest.approx(3217.0, abs=0.1)


@given(st.lists(st.tuples(st.floats(min_value=3150, max_value=3300),
                          st.floats(min_value=0, max_value=5)),
                min_size=1, max_size=6))
def test_synthesis_linearity(entries):
    cfg = SpectrumConfig(start=3150.0, stop=3300.0, step=0.5, fwhm=2.0)
    lines = [Line(f, i, "x", "y", "IR") for f, i in entries]
    _, together = synthesize(lines, cfg)
    separate = np.zeros_like(together)
    for line in lines:
        separate += synthesize([line], cfg)[1]
    assert np.abs(together - separate).max() < 1e-12 * max(1.0, separate.max())


def test_integral_matches_total_intensity():
    cfg = SpectrumConfig(start=3100.0, stop=3350.0, step=0.05, fwhm=1.5)
    lines = [Line(3206.0, 1.0, "a", "b", "IR"), Line(3217.0, 3.0, "c", "d", "IR")]
    freqs, amps = synthesize(lines, cfg)
    assert np.trapezoid(amps, freqs) == pytest.approx(4.0, rel=1e-3)


def test_clipped_lines_warn():
    cfg = SpectrumConfig(start=3200.0, stop=3220.0, step=0.1, fwhm=1.5)
    lines = [Line(3206.0, 1.0, "a", "b", "IR"), Line(3235.0, 1.0, "(L1)1", "(E3)1*", "IR")]
    with pytest.warns(UserWarning, match=r"\(E3\)1"):
        synthesize(lines, cfg)
    many = [Line(3300.0 + i, 1.0, f"(L1){i}", "(E3)1*", "IR") for i in range(200)]
    with pytest.warns(UserWarning) as caught:
        synthesize(many, cfg)
    message = str(caught[0].message)
    assert message.startswith("200 lines outside the synthesis grid")
    assert "(L1)4->" in message and "(L1)5->" not in message
    assert len(message) < 300


def test_narrow_gaussian_is_silent_and_finite():
    # a width far below the grid step (as an envelope fit's trial width may
    # be) overflows the square away from the line; exp(-inf) is 0 there
    freqs = 3150.0 + 0.05 * np.arange(3001)
    lines = [Line(3200.0, 2.0, "a", "b", "IR"), Line(3200.01, 1.0, "c", "d", "IR")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = spectrum.profile_sum(lines, freqs, "gaussian", 1e-160)
    sigma = 1e-160 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    assert np.flatnonzero(amps).tolist() == [1000]
    assert amps[1000] == 2.0 * (1.0 / (sigma * math.sqrt(2 * math.pi)))


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_profile_sum_holds_one_profile_and_keeps_its_bits(shape):
    # the sum and one scratch profile, each a grid-sized array, made in place
    # by the operations of the closed forms below in their order
    n, fwhm = 10**6, 1.5
    freqs = 3150.0 + 1.5e-4 * np.arange(n)
    lines = [Line(3151.0 + 3.5 * i, 0.5 + 0.25 * i, "a", "b", "IR") for i in range(40)]
    tracemalloc.start()
    try:
        amps = spectrum.profile_sum(lines, freqs, shape, fwhm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n
    sigma, gamma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0))), fwhm / 2.0
    expected = np.zeros(n)
    for line in lines:
        offsets = freqs - line.frequency
        if shape == "gaussian":
            profile = np.exp(-0.5 * (offsets / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        else:
            profile = (gamma / math.pi) / (offsets**2 + gamma**2)
        expected += line.intensity * profile
    assert np.array_equal(amps, expected)


def test_fwhm_reported_in_ghz():
    cfg = SpectrumConfig(start=0.0, stop=10.0, step=1.0, fwhm=1.5)
    assert cfg.fwhm_ghz == pytest.approx(44.97, abs=0.005)


def test_bad_grid_rejected():
    with pytest.raises(SpectrumError):
        synthesize([], SpectrumConfig(start=10.0, stop=5.0, step=0.1))
    with pytest.raises(SpectrumError):
        synthesize([], SpectrumConfig(start=0.0, stop=5.0, step=-0.1))
    with pytest.raises(SpectrumError):
        synthesize([], SpectrumConfig(start=0.0, stop=5.0, step=0.1, shape="voigt"))


def test_a_valid_grid_holds_at_most_max_grid_samples():
    # validate counts the samples as synthesize does, with its 1e-9 slack:
    # (stop - start) / step just below the bound rounds up to one more sample
    n = spectrum.MAX_GRID_SAMPLES
    assert SpectrumConfig(start=0.0, stop=math.nextafter(float(n), 0.0), step=1.0).validate()
    assert not SpectrumConfig(start=0.0, stop=n - 1.0, step=1.0).validate()


def test_grid_sample_count_bounded():
    with pytest.raises(SpectrumError, match="samples"):
        synthesize([], SpectrumConfig(start=3150.0, stop=3300.0, step=1e-9))
    n = spectrum.MAX_GRID_SAMPLES
    assert not SpectrumConfig(start=0.0, stop=(n - 1) * 1e-3, step=1e-3).validate()
    assert SpectrumConfig(start=0.0, stop=n * 1e-3, step=1e-3).validate()
