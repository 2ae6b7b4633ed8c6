"""Acceptance gate: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to stream them);
the assertions carry the same tolerances, so the suite fails if any line does.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from reference import max_abs_residual
from rotorspec import cli, fitting, qubitplan, rotor, spectrum, symmetry, units

JMAX = 10


def _report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def paper_fit():
    """Criterion 1 fit: the four observed band maxima with the documented
    free-parameter set, full Jmax = 10 basis."""
    peaks = fitting.PeakList(tuple(
        fitting.Peak(f, None, lab) for f, lab in [
            (3206.0, "(L1)1->(L1)1*"),
            (3217.0, "(A1)1->(L1)1*"),
            (3230.0, "(L1)1->(L1)2*"),
            (3235.0, "(L1)1->(E3)1*"),
        ]))
    spec = fitting.FitSpec(free_params=("B", "beta", "nu0", "extra_offsets"))
    start = time.perf_counter()
    report = fitting.fit_line_positions(peaks, spec, fitting.TransitionModel(jmax=JMAX), seed=0)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fitted_levels(paper_fit):
    report, _ = paper_fit
    model = rotor.RotorModel.create(B=report.values["B"], beta=report.values["beta"],
                                    Jmax=JMAX)
    system = rotor.diagonalize(model)
    return rotor.classify_levels(system, max_energy=60.0)


# ---------------------------------------------------------------- criteria

def test_criterion_1_band_positions(paper_fit, capsys):
    report, elapsed = paper_fit
    w_la = report.omega_la
    ok = (max_abs_residual(report) <= 2.0
          and abs(w_la - 11.0) <= 1.0
          and elapsed <= 60.0
          and report.converged)
    _report(capsys, 1, ok, (f"max residual {max_abs_residual(report):.2e} cm-1 <= 2, "
                    f"omega_LA {w_la:.4f} = 11 +- 1, fit time {elapsed:.1f} s <= 60"))


def test_criterion_2_free_rotor_oracle(capsys):
    start = time.perf_counter()
    b = 5.9
    model = rotor.RotorModel.create(B=b, beta=0.0, Jmax=JMAX)
    system = rotor.diagonalize(model)
    ok = True
    idx = 0
    worst = 0.0
    for J in range(JMAX - 1):  # all J <= Jmax - 2
        deg = (2 * J + 1) ** 2
        block = system.energies[idx:idx + deg]
        expect = b * J * (J + 1)
        dev = np.abs(block - expect).max() / max(expect, 1.0)
        worst = max(worst, dev)
        ok &= dev < 1e-9
        # the next eigenvalue must belong to the next J (degeneracy exact)
        if idx + deg < len(system.energies):
            ok &= system.energies[idx + deg] > expect + b
        idx += deg
    elapsed = time.perf_counter() - start
    _report(capsys, 2, ok, f"B*J(J+1) to {worst:.1e} relative with (2J+1)^2 degeneracies "
                   f"for J <= {JMAX - 2} ({elapsed:.1f} s)")


def test_criterion_3_orientation_gap(paper_fit, capsys):
    report, _ = paper_fit
    w_la = report.omega_la
    ok = abs(w_la - 12.0) <= 2.0
    _report(capsys, 3, ok, f"first orientation gap {w_la:.3f} cm-1 within 2 of the "
                   "directly observed 12 cm-1")


def test_criterion_4_intensity_dominance(fitted_levels, capsys):
    band = spectrum.VibrationBandModel(
        nu0=3206.0, dw_L1_star=24.0, dw_LE3_star=29.0)
    thermal = spectrum.vibration_orientation_lines(
        fitted_levels, band, spectrum.PopulationModel("thermal", 7.0))
    frozen = spectrum.vibration_orientation_lines(
        fitted_levels, band, spectrum.PopulationModel("spin_frozen", 7.0))

    def ref(lines):
        return next(l.intensity for l in lines
                    if l.lower == "(A1)1" and l.upper == "(L1)1*")

    t_ref = ref(thermal)
    t_max = max((l.intensity / t_ref for l in thermal
                 if not (l.lower == "(A1)1" and l.upper == "(L1)1*")), default=0.0)
    f_ref = ref(frozen)
    f_best = max((l.intensity / f_ref for l in frozen if l.lower == "(L1)1"),
                 default=0.0)
    ok = t_max < 0.05 and f_best > 0.05
    _report(capsys, 4, ok, (f"thermal 7 K: strongest secondary line {100*t_max:.2f}% < 5%; "
                    f"spin-frozen 7 K: strongest L1-origin line {100*f_best:.1f}% > 5%"))


def test_criterion_5_spin_decomposition(capsys):
    species = {s.label: s.total_count for s in symmetry.spin_decomposition()}
    ok = species == {"A": 5, "E": 2, "F": 9} and sum(species.values()) == 16
    _report(capsys, 5, ok, f"16-state projection gives A={species['A']}, E={species['E']}, "
                   f"F={species['F']} (sum 16)")


def test_criterion_6_descent_correlation(capsys):
    td = symmetry.character_table("Td")
    d2d = symmetry.character_table("D2d")
    pullback = [0, 3, 2, 2, 4]
    ok = True
    for label, dim, _ in td.irreps:
        image = symmetry.correlate(label)
        ok &= sum(d2d.irrep(l)[1] * n for l, n in image.items()) == dim
        chi = np.array([td.characters(label)[i] for i in pullback])
        oracle = np.linalg.solve(
            np.array([row[2] for row in d2d.irreps], dtype=complex).T, chi)
        oracle = {row[0]: int(round(n.real)) for row, n in zip(d2d.irreps, oracle)
                  if round(abs(n)) >= 1}
        ok &= image == oracle
    rng = random.Random(0)
    labels = [row[0] for row in td.irreps]
    for _ in range(200):
        content = [rng.choice(labels) for _ in range(rng.randint(1, 6))]
        expect = sum(1 for l in content if l in symmetry.RAMAN_ACTIVE["Td"])
        ok &= symmetry.raman_active_count(content, "Td") == expect
    _report(capsys, 6, ok, "descent preserves dimension for all five Td irreps, matches "
                   "the restriction oracle, and activity counting is consistent")


def test_criterion_7_unit_conversions(capsys):
    a = units.cm1_to_ghz(11.0)
    b = units.cm1_to_ghz(1.5)
    ok = abs(a - 329.77) <= 0.01 and abs(b - 44.97) <= 0.01
    _report(capsys, 7, ok, f"11 cm-1 -> {a:.4f} GHz (329.77), 1.5 cm-1 -> {b:.4f} GHz (44.97)")


def test_criterion_8_dilution_monte_carlo(capsys):
    spec = qubitplan.CrystalSpec(a_nm=1.0, c=0.01)
    start = time.perf_counter()
    mc = qubitplan.nn_distance_mc(spec, n_samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    closed = qubitplan.nn_distance(spec, "poisson_mean")
    dev = abs(mc - closed) / closed
    ok = dev < 0.05 and elapsed <= 10.0
    _report(capsys, 8, ok, f"MC mean {mc:.4f} vs 0.55396*a*c^(-1/3) = {closed:.4f} nm "
                   f"({100*dev:.2f}% < 5%, {elapsed:.2f} s <= 10)")


def test_criterion_9_convergence_and_determinism(tmp_path, monkeypatch, capsys):
    worst = 0.0
    for beta in (1.0, 5.0):
        levels = {}
        for jmax in (JMAX, JMAX + 2):
            model = rotor.RotorModel.create(B=5.9, beta=beta, Jmax=jmax)
            system = rotor.diagonalize(model)
            levels[jmax] = system.energies[system.energies < 100.0]
        n = min(len(levels[JMAX]), len(levels[JMAX + 2]))
        worst = max(worst, np.abs(levels[JMAX][:n] - levels[JMAX + 2][:n]).max())
    converged = worst < 0.01

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "[model]\nB = 5.9\nbeta = 1.0\nJmax = 6\n[band]\n[population]\n"
        "[synthesis]\nstep = 0.5\n[crystal]\n[source]\n")
    (tmp_path / "peaks.csv").write_text(
        "frequency_cm1,intensity,label\n3206.0,1.0,(L1)1->(L1)1*\n"
        "3217.0,9.0,(A1)1->(L1)1*\n")
    outputs = []
    for tag in ("a", "b"):
        assert cli.main(["spectrum", "--config", "run.cfg",
                         "--sticks", f"s{tag}.csv",
                         "--out-spectrum", f"p{tag}.csv", "--max-energy", "40"]) == 0
        assert cli.main(["fit", "--config", "run.cfg", "--peaks", "peaks.csv",
                         "--free", "B,nu0", "--starts", "2", "--seed", "7",
                         "--out", f"f{tag}.json"]) == 0
        outputs.append(tuple((tmp_path / f"{n}{tag}.{e}").read_bytes()
                             for n, e in (("s", "csv"), ("p", "csv"), ("f", "json"))))
    identical = outputs[0] == outputs[1]
    ok = converged and identical
    _report(capsys, 9, ok, (f"levels under 100 cm-1 move {worst:.2e} cm-1 < 0.01 for "
                    f"Jmax {JMAX} -> {JMAX + 2} at beta in (1, 5); repeated "
                    f"seeded runs byte-identical: {identical}"))


def test_criterion_10_librator_trend(capsys):
    gaps = rotor.LevelGapCache(jmax=JMAX)
    w1 = 5.9 * gaps.gap(1.0)
    w5 = 5.9 * gaps.gap(5.0)
    ok = w5 < w1
    _report(capsys, 10, ok, f"omega_LA at beta=5 ({w5:.4f} cm-1) < beta=1 ({w1:.4f} cm-1) "
                    "at fixed B")
