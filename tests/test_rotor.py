"""Eigenproblem layer: basis, 3j symbols, invariant potential, diagonalization,
classification and tunneling frequencies."""

import dataclasses
import functools
import importlib
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import tunneling_frequencies
from rotorspec import fitting, rotor, spectrum, symmetry
from rotorspec.rotor import (BasisState, LevelGapCache, PotentialError,
                             RotorError, RotorModel, build_basis,
                             classify_levels, diagonalize,
                             hamiltonian_matrix, invariant_coefficients,
                             potential_range, wigner3j, wigner_d_matrix)

B0 = 5.9


# ---------------------------------------------------------------- basis

def test_basis_counts():
    assert len(build_basis(0)) == 1
    assert len(build_basis(1)) == 10
    assert len(build_basis(10)) == 1771


@given(st.integers(min_value=0, max_value=14))
def test_basis_count_closed_form(jmax):
    assert len(build_basis(jmax)) == (jmax + 1) * (2 * jmax + 1) * (2 * jmax + 3) // 3


def test_basis_layout_bit_equal_to_build_basis_and_unread_by_solves(monkeypatch):
    # the layout arrays give the order of the nested loops, and the parity
    # blocks and kinetic diagonal built from them are those of the states
    for jmax in range(7):
        states = [(J, k, m) for J in range(jmax + 1)
                  for k in range(-J, J + 1) for m in range(-J, J + 1)]
        assert [(s.J, s.k, s.m) for s in build_basis(jmax)] == states
        assert list(zip(*(a.tolist() for a in rotor._basis_layout(jmax)))) == states
        assert rotor._basis_size(jmax) == len(states)
        blocks = rotor._parity_blocks(jmax)
        for (kp, mp), idx in zip([(0, 0), (0, 1), (1, 0), (1, 1)], blocks):
            want = np.array([i for i, (_, k, m) in enumerate(states)
                             if (k % 2, m % 2) == (kp, mp)], dtype=np.intp)
            assert idx.dtype == want.dtype and idx.tobytes() == want.tobytes()
        kin = np.array([J * (J + 1) for J, _, _ in states], dtype=float)
        assert rotor._kinetic_diagonal(jmax).tobytes() == kin.tobytes()

    def no_state(self):
        raise AssertionError("a solve built a BasisState")

    for cached in (rotor._potential_blocks, rotor.rank_operator_blocks):
        cached.cache_clear()
    monkeypatch.setattr(BasisState, "__post_init__", no_state)
    levels = classify_levels(diagonalize(RotorModel.create(B=B0, beta=1.0, Jmax=4)))
    for rank in (1, 2):
        rotor.transition_strength(levels[0], levels, rank)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        BasisState(1, 2, 0)
    with pytest.raises(ValueError):
        BasisState(-1, 0, 0)


# ---------------------------------------------------------------- wigner 3j

def test_wigner3j_hand_values():
    assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0
    assert wigner3j(2, 1, 1, 0, 0, 0) == pytest.approx(math.sqrt(2 / 15), abs=1e-15)
    assert wigner3j(2, 2, 2, 0, 0, 0) == pytest.approx(-math.sqrt(2 / 35), abs=1e-15)


def test_wigner3j_out_of_domain_is_zero():
    assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0      # triangle violated
    assert wigner3j(1, 1, 1, 1, 1, 1) == 0.0      # m-sum nonzero
    assert wigner3j(1, 1, 2, 2, 0, -2) == 0.0     # |m| > j


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 8),
       st.integers(-4, 4), st.integers(-4, 4))
def test_wigner3j_even_permutation_symmetry(j1, j2, j3, m1, m2):
    m3 = -m1 - m2
    a = wigner3j(j1, j2, j3, m1, m2, m3)
    b = wigner3j(j2, j3, j1, m2, m3, m1)
    c = wigner3j(j3, j1, j2, m3, m1, m2)
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(c, abs=1e-12)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_wigner3j_orthogonality(j1, j2, m1, m2):
    # sum over j3 of (2 j3 + 1) | 3j |^2 = 1 when the m's are in range
    if abs(m1) > j1 or abs(m2) > j2:
        return
    total = sum((2 * j3 + 1) * wigner3j(j1, j2, j3, m1, m2, -m1 - m2) ** 2
                for j3 in range(abs(j1 - j2), j1 + j2 + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_wigner3j_large_arguments_finite():
    val = wigner3j(12, 4, 12, 3, 1, -4)
    assert np.isfinite(val) and abs(val) < 1.0


# ---------------------------------------------------------------- potential

def test_rank3_coefficients_match_xyz_invariant():
    c = invariant_coefficients(3)
    expect = np.zeros((7, 7))
    expect[5, 5] = expect[1, 1] = 0.5    # mu, nu = +2/-2
    expect[5, 1] = expect[1, 5] = -0.5
    assert np.allclose(c, expect, atol=1e-12)


def test_rank4_coefficients_match_cubic_invariant():
    c = invariant_coefficients(4)
    t = np.zeros(9)
    t[4] = math.sqrt(7 / 12)             # m = 0
    t[0] = t[8] = math.sqrt(5 / 24)      # m = -4, +4
    assert np.allclose(c, np.outer(t, t), atol=1e-12)


def _group_average(rank, rotation=wigner_d_matrix):
    """The two-sided invariant's coefficients: the conjugated group average
    of D^rank = rotation(rank, axis, angle) over T_ROTATIONS, its noise
    below 1e-14 chopped."""
    P = sum(rotation(rank, axis, angle) for axis, angle, _ in symmetry.T_ROTATIONS)
    P = P / len(symmetry.T_ROTATIONS)
    assert abs(np.trace(P).real - 1.0) < 1e-10  # one invariant
    c = P.conj()
    assert np.abs(c.imag).max() < 1e-12
    c = np.ascontiguousarray(c.real)
    c[np.abs(c) < 1e-14] = 0.0
    return c


def test_invariant_coefficients_bits():
    # every output on the shipped potential rests on rank 3's bits, expm's
    # group average; rank 4's are outer(t, t), symmetric to the bit, and both
    # group averages agree with them to roundoff
    c = invariant_coefficients(3)
    assert np.count_nonzero(c) == 4
    assert c.tobytes() == _group_average(3, reference.rotation_d_expm).tobytes()
    t = np.zeros(9)
    t[[0, 4, 8]] = math.sqrt(5 / 24), math.sqrt(7 / 12), math.sqrt(5 / 24)
    c = invariant_coefficients(4)
    assert c.tobytes() == np.outer(t, t).tobytes()
    for rotation in (reference.rotation_d_expm, wigner_d_matrix):
        assert np.abs(c - _group_average(4, rotation)).max() <= 1e-14


def test_spectral_wigner_d_matches_expm():
    # exp(-i angle n.J) from the eigenvectors of n.J against scipy's expm
    for j in range(21):
        for axis, angle, _ in symmetry.T_ROTATIONS:
            D = rotor._rotation_d(j, axis, angle)
            assert np.abs(D.conj().T @ D - np.eye(2 * j + 1)).max() <= 1e-13
            assert np.abs(D - reference.rotation_d_expm(j, axis, angle)).max() <= 1e-13


def test_unsupported_rank_rejected():
    with pytest.raises(PotentialError):
        invariant_coefficients(2)


def test_default_potential_has_unit_range():
    vmin, vmax = potential_range(rotor.DEFAULT_POTENTIAL)
    assert vmax - vmin == pytest.approx(1.0, abs=1e-9)
    # minima at the aligned orientation: V(identity) is the global minimum
    assert vmin == pytest.approx(-0.5, abs=1e-9)


def test_create_normalizes_the_field_defaults():
    """create() fills unset parameters from the field defaults; the default
    potential normalizes to the same bits as the unscaled rank-3 invariant
    3:-1.0 that configs write."""
    normalized = rotor.normalize_potential(((3, -1.0),))
    assert normalized == ((3, -0.49999999999999967),)
    # the default has those bits, and the old default 3:-0.5 normalizes to them too
    assert rotor.DEFAULT_POTENTIAL == normalized == rotor.normalize_potential(((3, -0.5),))
    assert rotor.normalize_potential(rotor.DEFAULT_POTENTIAL) is rotor.DEFAULT_POTENTIAL
    assert RotorModel.create() == RotorModel() == RotorModel(potential=normalized)
    assert RotorModel.create(beta=2, Jmax=4.0) == RotorModel(beta=2.0, potential=normalized, Jmax=4)


def test_normalize_potential_mixed_ranks():
    pot = rotor.normalize_potential(((3, -1.0), (4, 0.3)))
    vmin, vmax = potential_range(pot)
    assert vmax - vmin == pytest.approx(1.0, abs=1e-8)


def _no_scan(monkeypatch):
    def scan(potential):
        raise AssertionError(f"scanned {potential}")
    monkeypatch.setattr(rotor, "_potential_on_grid", scan)


def test_one_term_normalization_span_bits(monkeypatch):
    """w * V_r spans |w| times V_r's range, so a one-term potential takes the
    recorded span of its rank and no scan: its weight is sign(w) / span_r."""
    for rank, exact in ((3, 2.0), (4, 40 / 27)):
        vmin, vmax = potential_range(((rank, 1.0),))
        for span in (rotor._UNIT_SPAN[rank], vmax - vmin):
            assert abs(span - exact) <= 4 * math.ulp(exact)
    _no_scan(monkeypatch)
    for rank in (3, 4):
        for weight in (1.0, -1.0, 0.5, -0.5, -0.7, 0.3, 1e-3, -1e3):
            (r, w), = rotor.normalize_potential(((rank, weight),))
            assert r == rank and w.hex() == (math.copysign(1.0, weight) / rotor._UNIT_SPAN[rank]).hex()
    for weight in (-1.0, -0.5, -0.7, -1e-3, -1e3):
        assert rotor.normalize_potential(((3, weight),)) == rotor.DEFAULT_POTENTIAL
    # the messages of the scan these replace
    constant = "potential is constant; cannot normalize to unit range"
    for weight, message in ((0.0, constant), (1e-13, constant),
                            (1e308, "potential range is inf; use smaller coefficients")):
        with pytest.raises(PotentialError) as err:
            rotor.normalize_potential(((3, weight),))
        assert str(err.value) == message


def test_potential_range_bits():
    # recorded with the Levenberg-Marquardt refinement of the range scan on
    # numpy's rotation matrices; each extreme lies within 16 ulp of the exact
    # one (3, 2 and 7 ulp at most)
    pinned = {
        ((3, -1.0),): ("-0x1.0000000000003p+0", "0x1.0000000000003p+0", -1.0, 1.0),
        ((4, -1.0),): ("-0x1.0000000000000p+0", "0x1.ed097b425ed07p-2", -1.0, 13 / 27),
        ((3, -1.0), (4, 0.3)): ("-0x1.666666666666dp-1", "0x1.4cccccccccccfp+0", -0.7, 1.3),
    }
    for potential, (*bits, vmin, vmax) in pinned.items():
        found = rotor.potential_range(potential)
        assert tuple(v.hex() for v in found) == tuple(bits)
        for v, exact in zip(found, (vmin, vmax)):
            assert abs(v - exact) <= 16 * math.ulp(exact)


def test_normalized_potential_is_returned_unscanned(monkeypatch):
    # a rescan of the normalized terms moves their last bits for this
    # potential; the type keeps the first normalization's bits
    once = rotor.normalize_potential(((3, -0.61), (4, 0.2)))
    assert isinstance(once, rotor.NormalizedPotential)
    # it equals, hashes (the cache keys of V) and prints as its plain terms
    plain = tuple(once)
    assert once == plain and hash(once) == hash(plain) and repr(once) == repr(plain)
    _no_scan(monkeypatch)
    assert rotor.normalize_potential(once) is once
    model = RotorModel.create(B=B0, beta=1.0, potential=once, Jmax=4)
    assert model.potential is once and model.validate() == []
    assert LevelGapCache(once, jmax=4).potential is once


def test_raw_unit_range_tuple_rejected(monkeypatch):
    # ((3, -0.5),) has range 1 to the last bits, but only the type vouches
    # for the range, so it is rejected as any raw tuple is
    raw = ((3, -0.5),)
    assert potential_range(raw)[1] - potential_range(raw)[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PotentialError, match="range is not known to be 1.*RotorModel.create"):
        diagonalize(RotorModel(B=B0, beta=1.0, potential=raw, Jmax=4))
    _no_scan(monkeypatch)
    with pytest.raises(PotentialError, match="range is not known to be 1.*RotorModel.create"):
        LevelGapCache(raw, jmax=4)


def test_invariant_vectors_fixed_by_all_rotations():
    for rank in (3, 4):
        c = invariant_coefficients(rank)
        for axis, angle, _ in symmetry.T_ROTATIONS:
            D = wigner_d_matrix(rank, axis, angle)
            # two-sided invariance of the coefficient matrix
            assert np.allclose(D.conj() @ c @ D.T, c, atol=1e-10)


def test_wigner_d_group_closure():
    """D^j represents the rotation group: D(R1) D(R2) = D(R1 R2) within T."""
    def key(R):
        return tuple((np.round(R, 9) + 0.0).ravel())

    mats3 = {}
    rots = {}
    for axis, angle, _ in symmetry.T_ROTATIONS:
        R = symmetry.rotation_matrix(axis, angle)
        mats3[key(R)] = wigner_d_matrix(2, axis, angle)
        rots[key(R)] = R
    for k1, D1 in list(mats3.items())[:6]:
        for k2, D2 in list(mats3.items())[:6]:
            prod = key(rots[k1] @ rots[k2])
            assert prod in mats3
            assert np.allclose(D1 @ D2, mats3[prod], atol=1e-10)


# ---------------------------------------------------------------- hamiltonian

def test_free_rotor_is_diagonal():
    model = RotorModel.create(B=B0, beta=0.0, Jmax=4)
    H = hamiltonian_matrix(model)
    expect = np.diag([B0 * s.J * (s.J + 1) for s in build_basis(4)])
    assert np.allclose(H, expect, atol=1e-12)


def test_hamiltonian_symmetric():
    model = RotorModel.create(B=B0, beta=1.0, Jmax=6)
    H = hamiltonian_matrix(model)
    assert np.abs(H - H.T).max() < 1e-12


def test_unnormalized_potential_rejected():
    bad = RotorModel(B=B0, beta=1.0, potential=((3, -1.0),), Jmax=4)
    with pytest.raises(PotentialError, match="range"):
        hamiltonian_matrix(bad)


def test_gap_cache_rejects_unnormalized_potential():
    # the fit's level source checks the unit range as diagonalize does
    with pytest.raises(PotentialError, match="range is not known to be 1"):
        LevelGapCache(((3, -1.0),), jmax=6)


def test_potential_range_caches_no_rotation_matrix():
    # the range scan's grid and solver visit a new angle on nearly every
    # evaluation: the rotation-matrix cache keeps the group's rotations only
    rotor.normalize_potential(((3, -1.0), (4, 0.3)))  # the coefficient tensors' rotations
    before = rotor._wigner_d_cached.cache_info().currsize
    for weight in (0.17, 0.29, -0.41):
        rotor.normalize_potential(((3, -0.61), (4, weight)))
    assert rotor._wigner_d_cached.cache_info().currsize == before


def test_invalid_model_rejected():
    with pytest.raises(RotorError, match="beta"):
        hamiltonian_matrix(RotorModel(B=B0, beta=-1.0, Jmax=4))
    with pytest.raises(RotorError, match="Jmax"):
        hamiltonian_matrix(RotorModel(B=B0, Jmax=1))
    with pytest.raises(RotorError, match="B must"):
        hamiltonian_matrix(RotorModel(B=-2.0, Jmax=4))
    # non-finite values used to reach the solver and return NaN energies
    with pytest.raises(RotorError, match="beta must be finite"):
        diagonalize(RotorModel.create(beta=float("nan"), Jmax=4))
    with pytest.raises(RotorError, match="B must be positive and finite"):
        diagonalize(RotorModel.create(B=float("inf"), Jmax=4))


def test_hamiltonian_commutes_with_all_144_rotations():
    jmax = 3
    model = RotorModel.create(B=1.0, beta=1.0, Jmax=jmax)
    H = hamiltonian_matrix(model)
    rots = [(ax, ang) for ax, ang, _ in symmetry.T_ROTATIONS]
    scale = np.abs(H).max()
    for rs in rots:
        for rm in rots:
            U = reference.site_mol_operator(jmax, rs, rm)
            assert np.abs(U @ H - H @ U).max() < 1e-10 * scale


# ---------------------------------------------------------------- shared 3j factors

@pytest.mark.parametrize("rank", [1, 2])
def test_rank_operator_blocks_match_dense_elements(rank):
    jmax = 3
    basis = build_basis(jmax)
    n = len(basis)
    ops = rotor.rank_operator_blocks(jmax, rank)
    comps = range(-rank, rank + 1)
    assert list(ops) == list(comps)
    for (mu, nu), M in reference.operator_blocks(ops, n).items():
        dense = np.zeros((n, n))
        for i, bra in enumerate(basis):
            for j, ket in enumerate(basis):
                dense[i, j] = (math.sqrt((2 * bra.J + 1) * (2 * ket.J + 1))
                               * (-1) ** (ket.m - ket.k)
                               * wigner3j(bra.J, rank, ket.J, bra.m, mu, -ket.m)
                               * wigner3j(bra.J, rank, ket.J, bra.k, nu, -ket.k))
        np.testing.assert_allclose(M.toarray(), dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rank", [3, 4])
def test_potential_matrix_is_coefficient_sum_of_operators(rank):
    jmax = 4
    c = invariant_coefficients(rank)
    n = len(build_basis(jmax))
    blocks = reference.operator_blocks(rotor.rank_operator_blocks(jmax, rank), n)
    expected = sum(c[mu + rank, nu + rank] * M.toarray() for (mu, nu), M in blocks.items())
    V = reference.dense_potential(jmax, ((rank, 1.0),))
    np.testing.assert_allclose(V, expected, rtol=0, atol=1e-13)


# ---------------------------------------------------------------- bit-exact kernels
# Until perfbench/ref is re-recorded, the roundoff spin-A Raman sticks depend
# on the last bit of V, the operators and the projected level vectors, so the
# sparse kernels must reproduce the dense/kron definitions of reference.py
# exactly.

def test_three_j_factors_bit_equal_to_the_direct_formula():
    # _three_j_factors computes half its entries and fills the rest by the
    # sign of negated m: every entry, signed zeros included, is the formula's
    zeros = 0
    for rank in (1, 2, 3, 4):
        for J2 in range(17):
            for J in range(max(0, J2 - rank), min(16, J2 + rank) + 1):
                F = np.zeros((2 * rank + 1, 2 * J2 + 1, 2 * J + 1))
                for mu in range(-rank, rank + 1):
                    for m2 in range(-J2, J2 + 1):
                        if abs(m := m2 + mu) <= J:
                            F[mu + rank, m2 + J2, m + J] = (-1.0) ** m * rotor.wigner3j(
                                J2, rank, J, m2, mu, -m)
                assert rotor._three_j_factors(J2, J, rank).tobytes() == F.tobytes(), (J2, J, rank)
                zeros += np.count_nonzero(np.signbit(F[F == 0.0]))
    assert zeros > 0  # some 3j symbols inside the triangle are -0.0


# ((3, -1.0), (3, 0.5)) is the one potential whose terms add into the same
# entries (ranks 3 and 4 fill disjoint (mu, nu) offsets): each entry is the
# sum of both, from 0.0 in term order
@pytest.mark.parametrize("potential", [((3, -1.0),), ((4, -1.0),), ((3, -1.0), (4, 0.3)),
                                       ((3, -1.0), (3, 0.5))])
def test_potential_matrix_bit_equal_to_dense_assembly(potential):
    pot = rotor.normalize_potential(potential)
    V = reference.dense_potential(6, pot)
    assert V.tobytes() == reference.potential_matrix(6, pot).tobytes()


@pytest.mark.parametrize("rank", [1, 2])
def test_rank_operator_blocks_bit_equal_to_kron_bmat(rank):
    jmax = 6
    ops = rotor.rank_operator_blocks(jmax, rank)
    for (mu, nu), M in reference.operator_blocks(ops, len(build_basis(jmax))).items():
        grid = [[None] * (jmax + 1) for _ in range(jmax + 1)]
        for J2 in range(jmax + 1):
            for J in range(jmax + 1):
                if abs(J - J2) <= rank:
                    F = rotor._three_j_factors(J2, J, rank)
                    pref = math.sqrt((2 * J2 + 1) * (2 * J + 1))
                    grid[J2][J] = scipy.sparse.kron(F[nu + rank], pref * F[mu + rank],
                                                    format="coo")
        ref = scipy.sparse.bmat(grid, format="csr")
        for name in ("indptr", "indices", "data"):
            got, want = getattr(M, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (mu, nu, name)


@functools.lru_cache(maxsize=None)
def _strength_levels(jmax, beta):
    """Levels up to 25.4 B: at Jmax 8 and beta 0.05 they reach 18-fold, and
    some energy clusters hold several labels."""
    model = RotorModel.create(B=1.0, beta=beta, Jmax=jmax)
    return classify_levels(diagonalize(model), max_energy=25.4)


@pytest.mark.parametrize("jmax,beta", [(6, 0.1), (6, 1.0), (8, 0.05)],
                         ids=["0.1", "1.0", "jmax8-0.05"])
@pytest.mark.parametrize("rank", [1, 2])
def test_batched_strength_equals_per_pair_products(jmax, beta, rank):
    # the per-mu row products and the batched product per final make the
    # BLAS calls of one (d_up x n) @ (n x d_low) product per component
    levels = _strength_levels(jmax, beta)
    ops = rotor.rank_operator_blocks(jmax, rank)
    mats = reference.operator_blocks(ops, rotor._basis_size(jmax))

    assert len(levels) > 10
    if jmax == 8:
        assert max(lev.degeneracy for lev in levels) == 18
        assert len({lev.energy for lev in levels}) < len(levels)  # split clusters
    for lower in levels:
        expected = [reference.strength(lower, upper, mats) for upper in levels]
        assert rotor.transition_strength(lower, levels, rank) == expected
    assert rotor.transition_strength(levels[0], [], rank) == []


def test_strength_peak_memory():
    # one mu's images at a time: 2l+1 n x d_low arrays, and scipy's
    # contiguous copy of the lower vectors; all 25 rank-2 images at once
    # took 26 such arrays (3.63 MB for this 18-fold level)
    levels = _strength_levels(8, 0.05)
    lower = max(levels, key=lambda lev: lev.degeneracy)
    image_bytes = lower.vectors.nbytes
    for rank, bound in ((1, 6), (2, 10)):
        rotor.transition_strength(lower, levels, rank)  # fills the operator cache
        tracemalloc.start()
        try:
            rotor.transition_strength(lower, levels, rank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * image_bytes, (rank, peak)


@given(beta=st.floats(*fitting.PARAM_BOUNDS["beta"]),
       potential=st.sampled_from([((3, -1.0),), ((3, 0.7),), ((4, -1.0),),
                                  ((3, -1.0), (4, 0.3))]),
       jmax=st.integers(4, 8), pick=st.integers(0, 10 ** 6))
@example(beta=0.05, potential=((3, -1.0),), jmax=8, pick=0)
def test_strengths_sum_to_the_rank_dimension(beta, potential, jmax, pick):
    # sum_{mu nu} |D^l_{mu nu}|^2 = 2l + 1 on the sphere, so a level's
    # strengths to every level of the full table, plus the weight D v puts
    # above Jmax (D^l couples J to J + l at most), make (2l + 1) d: the
    # stacks spectrum uses, checked without the dense oracle
    model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=jmax)
    levels = classify_levels(diagonalize(model))
    n = rotor._basis_size(jmax)
    assert sum(lev.degeneracy for lev in levels) == n
    lower = levels[pick % len(levels)]
    for rank in (1, 2):
        wide = rotor._basis_size(jmax + rank)
        padded = np.zeros((wide, lower.degeneracy))
        padded[:n] = lower.vectors
        leak = 0.0
        for stack in rotor.rank_operator_blocks(jmax + rank, rank).values():
            images = (stack @ padded).reshape(2 * rank + 1, wide, lower.degeneracy)
            leak += float(np.sum(images[:, n:] ** 2))
        total = sum(rotor.transition_strength(lower, levels, rank)) + leak
        expected = (2 * rank + 1) * lower.degeneracy
        assert total == pytest.approx(expected, rel=1e-12, abs=0), (rank, lower.name)


def test_benchmark_tracer_times_each_operator_build_once(monkeypatch):
    # perfbench's tracer wraps rotor.rank_operator_blocks by name and times
    # only the calls that miss its cache
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracing = importlib.import_module("tracing")
    levels = classify_levels(diagonalize(RotorModel.create(B=1.0, beta=1.0, Jmax=4)))
    rotor.rank_operator_blocks.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for rank in (1, 2):
            for _ in range(2):
                rotor.transition_strength(levels[0], levels, rank)
            spans = [span for span in tracer.spans if span[0] == "rotor.rank_operator_blocks"]
            assert len(spans) == rank
            nnz = sum(M.nnz for r in range(1, rank + 1)
                      for M in rotor.rank_operator_blocks(4, r).values())
            assert tracer.counts["rotor.rank_operator_blocks.nnz"] == nnz
    finally:
        tracer.uninstall()
    assert tracer.counts["rotor.transition_strength.calls"] == 4


def test_split_levels_span_the_reference_projection():
    # every level of a cluster holding several labels spans that label's
    # isotypic projection of the cluster, summed over the group element by
    # element; the projectors agree to roundoff
    split = 0
    for potential in GAP_POTENTIALS:
        for beta in (0.05, 0.3, 1.0):
            model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6)
            system = diagonalize(model)
            levels = classify_levels(system, max_energy=12.0)
            tol = 1e-6 * (system.energies[-1] - system.energies[0])
            for a, b in rotor._cluster_slices(system.energies, tol):
                cluster = [lev for lev in levels if abs(lev.energy - system.energies[a:b].mean()) < tol]
                if len(cluster) < 2:
                    continue
                split += 1
                for lev in cluster:
                    ref = reference.project_label(system.columns(b)[:, a:], 6,
                                                   symmetry.LEVEL_LABELS[lev.rovib_label])
                    assert ref.shape == lev.vectors.shape
                    diff = lev.vectors @ lev.vectors.T - ref @ ref.T
                    assert np.abs(diff).max() <= 1e-12
    assert split >= 9


def test_split_levels_bit_equal_to_all_irrep_split():
    # the split pass projects a cluster onto its own labels' irreps only;
    # the tensordots it keeps, and so the split vectors, are the same bits
    split = 0
    for potential in CLUSTER_POTENTIALS:
        for beta in CLUSTER_BETAS:
            system = diagonalize(RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6))
            levels = classify_levels(system)
            columns = system.columns()
            span = system.energies[-1] - system.energies[0] or 1.0
            for a, b in rotor._cluster_slices(system.energies, 1e-6 * span):
                energy = float(system.energies[a:b].mean())
                cluster = [lev for lev in levels if lev.energy == energy]
                if len(cluster) < 2:
                    continue
                split += 1
                ref = reference.split(columns, a, b, {lev.rovib_label for lev in cluster}, 6)
                assert sum(lev.degeneracy for lev in cluster) == ref.shape[1]
                start = 0
                for lev in cluster:  # name order, as the split
                    want = ref[:, start:start + lev.degeneracy]
                    assert lev.vectors.tobytes() == want.tobytes()
                    start += lev.degeneracy
    assert split > 1000, split


def test_warm_classification_makes_no_rotation_matrix(monkeypatch):
    # the isotypic bases are cached per (J, irrep), so a second
    # classification sums over no group elements
    system = diagonalize(RotorModel.create(B=1.0, beta=1.0, Jmax=8))
    classify_levels(system)
    calls = []
    original = rotor.wigner_d_matrix
    monkeypatch.setattr(rotor, "wigner_d_matrix",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    levels = classify_levels(system)
    assert calls == []
    assert len({lev.energy for lev in levels}) < len(levels)  # some clusters were split


def test_classification_calls_no_expm(monkeypatch):
    # the isotypic bases are built from numpy's D, so classification loads
    # no scipy.linalg
    def expm(*args):
        raise AssertionError("expm was called")

    monkeypatch.setattr(scipy.linalg, "expm", expm)
    rotor._row_basis.cache_clear()
    rotor._wigner_d_cached.cache_clear()
    levels = classify_levels(diagonalize(RotorModel.create(B=1.0, beta=1.0, Jmax=6)))
    assert [lev.rovib_label for lev in levels[:2]] == ["A1", "L1"]


def test_classification_peak_memory():
    # diagonalize and classify_levels: the eigenvectors stay in their parity
    # blocks (n^2 / 4 entries), dense columns are written only for the
    # clusters kept, and the content count holds a chunk of columns'
    # coefficients on one J block at a time.  With a zero-filled n x n
    # vector matrix (8 n^2 bytes) the peaks were 1.32 and 1.80 x 8 n^2
    model = RotorModel.create(B=5.503275, beta=1.0, Jmax=10)
    classify_levels(diagonalize(model))  # fills the per-Jmax and basis caches
    n = len(build_basis(10))
    for max_energy, columns, bound in ((150.0, 165, 0.6), (None, n, 1.8)):
        tracemalloc.start()
        try:
            levels = classify_levels(diagonalize(model), max_energy=max_energy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(lev.degeneracy for lev in levels) == columns
        assert peak < bound * 8 * n * n


# ---------------------------------------------------------------- diagonalize

def test_free_rotor_levels_and_degeneracies():
    jmax = 8
    model = RotorModel.create(B=B0, beta=0.0, Jmax=jmax)
    system = diagonalize(model)
    idx = 0
    for J in range(jmax - 1):  # levels below the truncation boundary
        deg = (2 * J + 1) ** 2
        block = system.energies[idx:idx + deg]
        expect = B0 * J * (J + 1)
        if J == 0:
            assert np.all(np.abs(block) < 1e-9)
        else:
            assert np.all(np.abs(block - expect) < 1e-9 * expect)
        idx += deg


def test_eigensystem_invariants(system_beta1):
    ortho, resid = system_beta1.residual_checks()
    assert ortho < 1e-10
    assert resid < 1e-8
    assert system_beta1.energies[0] == 0.0
    assert np.all(np.diff(system_beta1.energies) >= 0)


# Until perfbench/ref is re-recorded, levels and strengths depend on the last
# bit of the eigenvectors, so the per-block assembly and solve must reproduce
# the dense-H definition of reference.py exactly.  Block 2, which mirrors
# block 1 under the site-molecule exchange, is not solved: its exact
# reference is block 1's solve, rows permuted.

#: the potentials of the bit-equality and trim tests
BLOCK_POTENTIALS = [((3, -1.0),), ((3, -1.0), (4, 0.3)), ((4, -1.0),)]


# beta 0 is the one value where (beta * B) * V_ij is a signed zero, so the
# only one where the order of the scatter into diag(B * kin) could show
@pytest.mark.parametrize("potential", BLOCK_POTENTIALS)
@pytest.mark.parametrize("beta", [0.0, 0.05, 1.0, 6.0])
@pytest.mark.parametrize("jmax", [6, 8])
def test_diagonalize_bit_equal_to_dense_hamiltonian(jmax, beta, potential):
    model = RotorModel.create(B=B0, beta=beta, potential=potential, Jmax=jmax)
    H = hamiltonian_matrix(model)
    assert H.tobytes() == reference.hamiltonian(model).tobytes()
    system = diagonalize(model)
    solves = reference.block_solves(model)
    ground = min(w[0] for b, (_, w, _) in enumerate(solves) if b != 2)
    span = system.energies[-1]
    for b, ((rows, cols, v), (idx, w, v_ref)) in enumerate(zip(system.blocks, solves)):
        assert rows.tobytes() == idx.tobytes()
        if b != 2:
            assert v.tobytes() == v_ref.tobytes()
            assert system.energies[cols].tobytes() == (w - ground).tobytes()
        else:
            _, cols_a, v_a = system.blocks[1]
            assert v.tobytes() == v_a[rotor._exchange_mirror(jmax)].tobytes()
            assert system.energies[cols].tobytes() == system.energies[cols_a].tobytes()
            residual = H[np.ix_(rows, rows)] @ v - v * (system.energies[cols] + ground)
            assert np.abs(residual).max() <= 1e-12 * span
    assert system.energies[0] == 0.0 and np.all(np.diff(system.energies) >= 0)
    columns = system.columns()
    lead = len(columns) // 3
    assert system.columns(lead).tobytes() == columns[:, :lead].tobytes()


#: the potentials of the exchange tests, each with its highest rank
EXCHANGE_POTENTIALS = [(((3, -1.0),), 3), (((3, 0.7),), 3), (((4, -1.0),), 4),
                       (((3, -1.0), (4, 0.3)), 4)]


@pytest.mark.parametrize("potential, rank", EXCHANGE_POTENTIALS)
@pytest.mark.parametrize("jmax", [4, 7, 10])
def test_diagonalize_solves_one_block_of_each_exchange_pair(monkeypatch, jmax, potential, rank):
    # c of the highest rank is symmetric to the bit, as every c is, so
    # block 2 mirrors block 1 and blocks 0, 1 and 3 are solved
    c = invariant_coefficients(rank)
    assert c.tobytes() == np.ascontiguousarray(c.T).tobytes()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    model = RotorModel.create(B=B0, beta=1.0, potential=potential, Jmax=jmax)
    system = diagonalize(model)
    assert calls == [len(system.blocks[b][0]) for b in (0, 1, 3)]
    assert sum(len(cols) for _, cols, _ in system.blocks) == len(system.energies)


def _level_bits(levels):
    return [(lev.energy, lev.degeneracy, lev.rovib_label, lev.ordinal, lev.flagged,
             lev.vectors.tobytes()) for lev in levels]


@pytest.mark.parametrize("potential", BLOCK_POTENTIALS)
@pytest.mark.parametrize("beta", [0.05, 1.0, 6.0])
@pytest.mark.parametrize("jmax", [6, 8])
def test_diagonalize_trim_is_exact(jmax, beta, potential):
    # the columns diagonalize drops at a cut are those classify_levels would
    # not label at that cut: at 0 (the ground cluster alone), in the middle
    # of a cluster whose ends differ, and above the top level (all kept)
    model = RotorModel.create(B=B0, beta=beta, potential=potential, Jmax=jmax)
    full = diagonalize(model)
    energies = full.energies
    span = energies[-1] - energies[0]
    clusters = rotor._cluster_slices(energies, 1e-6 * span)
    middle = next(mid for a, b in clusters if energies[a] > 20.0
                  and (mid := (energies[a] + energies[b - 1]) / 2) < energies[b - 1])
    for max_energy in (0.0, middle, energies[-1] + 1.0):
        trimmed = diagonalize(model, max_energy=max_energy)
        assert trimmed.energies.tobytes() == energies.tobytes()
        levels = classify_levels(trimmed, max_energy)
        assert _level_bits(levels) == _level_bits(classify_levels(full, max_energy))
        kept = sum(lev.degeneracy for lev in levels)
        assert trimmed.columns().shape[1] == kept
        with pytest.raises(RotorError, match="were kept"):
            trimmed.columns(kept + 1)
    assert kept == len(energies)


def test_diagonalize_peak_memory_at_a_cut():
    # V is built and kept as its nonzeros, and each block keeps only the
    # columns up to the cut once it is solved, so at most one block's H and
    # full eigenvectors (n^2 / 16 entries each) are alive at a time: about
    # 0.17 x 8 n^2 with V's build; V's dense blocks would add 0.25 and one
    # more block's eigenvectors 0.065
    model = RotorModel.create(B=5.503275, beta=1.0, Jmax=10)
    diagonalize(model)  # fills the 3j caches
    n = len(build_basis(10))
    rotor._potential_blocks.cache_clear()
    tracemalloc.start()
    try:
        system = diagonalize(model, max_energy=150.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.columns().shape[1] == 165
    assert peak < 0.2 * 8 * n * n


@pytest.mark.parametrize("jmax, potential", [(14, ((3, -1.0),)), (12, ((3, -1.0), (4, 0.3)))],
                         ids=["3:-1", "3:-1,4:0.3"])
def test_potential_blocks_peak_memory(jmax, potential):
    # each parity block is merged and checked in its own keys, so V's build
    # holds its output and one block's temporaries, about 1.6 times the bytes
    # it returns; one key space over all four blocks took 5.4 times
    pot = rotor.normalize_potential(potential)
    rotor._potential_blocks(jmax, pot)  # fills the 3j caches
    rotor._potential_blocks.cache_clear()
    tracemalloc.start()
    try:
        blocks = rotor._potential_blocks(jmax, pot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(part.nbytes for block in blocks for part in block), peak


def test_residual_checks_match_dense_formulas():
    model = RotorModel.create(B=B0, beta=1.0, potential=((3, -1.0), (4, 0.3)), Jmax=6)
    system = diagonalize(model)
    H, V, E = hamiltonian_matrix(model), system.columns(), system.energies
    ortho = np.abs(V.T @ V - np.eye(len(E))).max()
    resid = np.abs(H @ V - V * (E + V[:, 0] @ H @ V[:, 0])).max() / (E[-1] - E[0])
    got = system.residual_checks()
    assert got[0] == pytest.approx(ortho, rel=0, abs=1e-14)
    assert got[1] == pytest.approx(resid, rel=0, abs=1e-14)


def test_diagonalize_allocates_no_dense_matrix_but_the_vectors():
    # the eigenvectors stay in their parity blocks (n^2 / 4 entries, 0.25 x
    # 8 n^2 bytes) and per-block assembly and solves add about 0.12 x; a
    # zero-filled n x n vector matrix alone would take 1 x
    model = RotorModel.create(B=B0, beta=1.0, Jmax=10)
    diagonalize(model)  # fills the per-Jmax caches
    n = len(build_basis(10))
    tracemalloc.start()
    try:
        diagonalize(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


# ---------------------------------------------------------------- classify

def test_classify_free_rotor_ground_and_first_excited():
    model = RotorModel.create(B=B0, beta=0.0, Jmax=4)
    levels = classify_levels(diagonalize(model))
    ground = levels[0]
    assert (ground.rovib_label, ground.spin_species, ground.degeneracy) == ("A1", "A", 1)
    j1 = [lev for lev in levels if abs(lev.energy - 2 * B0) < 1e-6]
    assert len(j1) == 1 and j1[0].rovib_label == "L1" and j1[0].spin_species == "F"


def test_classify_first_e_level_in_j2_manifold():
    model = RotorModel.create(B=B0, beta=0.0, Jmax=4)
    levels = classify_levels(diagonalize(model))
    j2 = [lev for lev in levels if abs(lev.energy - 6 * B0) < 1e-6]
    labels = {lev.rovib_label for lev in j2}
    assert "E2" in labels and "E3" in labels
    assert sum(lev.degeneracy for lev in j2) == 25


def test_classify_label_completeness_full_basis():
    model = RotorModel.create(B=B0, beta=1.0, Jmax=4)
    levels = classify_levels(diagonalize(model))
    assert sum(lev.degeneracy for lev in levels) == len(build_basis(4))
    for lev in levels:
        if not lev.flagged:
            assert lev.degeneracy == symmetry.LEVEL_LABELS[lev.rovib_label].dimension


def test_classify_beta1_low_level_sequence(levels_beta1):
    names = [lev.name for lev in levels_beta1[:7]]
    assert names == ["(A1)1", "(L1)1", "(E2)1", "(L1)2", "(E4)1", "(I1I2)1", "(E3)1"]
    spins = {lev.name: lev.spin_species for lev in levels_beta1[:7]}
    assert spins["(E2)1"] == "E" and spins["(I1I2)1"] == "F" and spins["(E4)1"] == "E"


def test_classify_flags_partial_clusters():
    # energies spread apart split symmetry-degenerate clusters into fragments
    # that cannot carry an integral label: classification raises instead of
    # labelling them
    model = RotorModel.create(B=B0, beta=1.0, Jmax=3)
    system = diagonalize(model)
    spread = dataclasses.replace(system, energies=np.arange(float(len(system.energies))))
    with pytest.raises(RotorError, match="non-integral irrep content"):
        classify_levels(spread)


def test_classify_requires_content_to_fill_the_cluster():
    # a 2-state fragment of an A3 triplet, holding the triplet's F.A
    # first-row state, counts 2/3 of a copy of F.A and the remaining state
    # 1/3: neither count is integral, and the error names the first
    # fragment's energy and deviation
    model = RotorModel.create(B=B0, beta=1.0, Jmax=4)
    system = diagonalize(model)
    a3 = rotor.find_level(classify_levels(system), "A3")
    u, s, _ = np.linalg.svd(a3.vectors.T @ reference.dense_label_basis(4, "A3"))
    assert s[0] == pytest.approx(1.0) and s[1] < 1e-10
    rows = np.arange(len(system.basis))
    fragments = rotor.Eigensystem(energies=np.array([0.0, 0.0, 1.0]),
                                  blocks=((rows, np.arange(3), a3.vectors @ u),),
                                  model=model)
    with pytest.raises(RotorError, match=r"2-state cluster at 0 cm\^-1 .* deviation 0\.333"):
        classify_levels(fragments)


#: potentials and betas on which classify_levels' assumptions are checked
CLUSTER_POTENTIALS = (((3, -1.0),), ((3, 0.7),), ((4, -1.0),), ((4, 1.0),), ((3, -1.0), (4, 0.3)))
CLUSTER_BETAS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0)


@pytest.mark.parametrize("jmax", [4, 6, 8, 10])
def test_cluster_content_always_fills_the_cluster(jmax):
    # why classify_levels needs no rule for an unlabeled cluster, on every
    # cluster of every eigensystem of the grid: the isotypic blocks of the 16
    # product irreps partition each J manifold, so the weights of
    # orthonormal columns times the irrep dimensions sum to the cluster size;
    # a cluster is a union of eigenspaces, so its counts are whole numbers;
    # real columns weigh each irrep and its conjugate alike, so every
    # constituent of a label carries one multiplicity; and each label's Gram
    # matrix in a cluster is a projector of rank mult * dimension, so the
    # split levels fill the cluster
    dims = np.array([dim for _, dim in rotor._CONSTITUENTS])
    labels = [symmetry.CONSTITUENT_TO_LABEL[c] for c, _ in rotor._CONSTITUENTS]
    conjugate = [rotor._CONSTITUENT_INDEX[".".join(rotor._CONJUGATE[part] for part in c.split("."))]
                 for c, _ in rotor._CONSTITUENTS]
    for potential in CLUSTER_POTENTIALS:
        for beta in CLUSTER_BETAS:
            model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=jmax)
            system = diagonalize(model)
            columns = system.columns()
            by_label = {name: [] for name in symmetry.LEVEL_LABELS}
            weights = np.zeros((len(dims), columns.shape[1]))
            for J in range(jmax + 1):
                for c, coeff in rotor._isotypic_coefficients(columns, J):
                    by_label[labels[c]].append(coeff)
                    weights[c] += np.sum(np.abs(coeff) ** 2, axis=0) / dims[c]
            assert np.abs(weights - weights[conjugate]).max() < 1e-12
            by_label = {name: np.vstack(parts) for name, parts in by_label.items() if parts}
            span = system.energies[-1] - system.energies[0]
            for a, b in rotor._cluster_slices(system.energies, 1e-6 * span):
                copies = weights[:, a:b].sum(axis=1)
                assert abs(dims @ copies - (b - a)) < 1e-9
                assert np.abs(copies - np.rint(copies)).max() < 1e-9
                mults = {labels[c]: round(n) for c, n in enumerate(copies) if round(n)}
                if len(mults) == 1:
                    continue
                for name, mult in mults.items():
                    coeff = by_label[name][:, a:b]
                    w = np.linalg.eigvalsh((coeff.conj().T @ coeff).real)
                    assert np.minimum(np.abs(w), np.abs(w - 1.0)).max() < 1e-9
                    assert np.sum(w > 0.5) == mult * symmetry.LEVEL_LABELS[name].dimension


def test_ordinals_count_per_label(levels_beta1):
    seen = {}
    for lev in levels_beta1:
        seen[lev.rovib_label] = seen.get(lev.rovib_label, 0) + 1
        assert lev.ordinal == seen[lev.rovib_label]


def test_level_vectors_orthonormal(levels_beta1):
    for lev in levels_beta1[:7]:
        gram = lev.vectors.T @ lev.vectors
        assert np.allclose(gram, np.eye(lev.degeneracy), atol=1e-8)


# ---------------------------------------------------------------- tunneling

def test_free_rotor_tunneling_gap():
    model = RotorModel.create(B=B0, beta=0.0, Jmax=4)
    levels = classify_levels(diagonalize(model))
    w_la, w_le2 = tunneling_frequencies(levels)
    assert w_la == pytest.approx(2 * B0, rel=1e-9)
    assert w_le2 == pytest.approx(4 * B0, rel=1e-9)


def test_tunneling_requires_labeled_levels(levels_beta1):
    with pytest.raises(RotorError, match="E2"):
        tunneling_frequencies([lev for lev in levels_beta1 if lev.rovib_label != "E2"])


def test_splittings_shrink_with_field_strength():
    gaps = LevelGapCache(jmax=8)
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    values = [gaps.gap(b) for b in grid]
    assert all(b - a <= 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_gap_cache_matches_dense_eigenvalues():
    # the cached two-label gap is the uncached block solves and the first
    # excited level of the full H
    gaps = LevelGapCache(jmax=6)
    for beta in (0.3, 1.7, 4.2):
        w = np.linalg.eigvalsh(hamiltonian_matrix(RotorModel.create(B=1.0, beta=beta, Jmax=6)))
        assert gaps.gap(beta) == pytest.approx(w[1] - w[0], abs=1e-9)
        uncached = gaps.eigenvalues(beta, "L1")[0] - gaps.eigenvalues(beta, "A1")[0]
        assert gaps.gap(beta) == pytest.approx(uncached, abs=1e-12)


def test_level_slopes_are_the_derivative_in_beta():
    # Hellmann-Feynman slopes against a central difference of the energies,
    # whose error is about h**2 times the third derivative, plus roundoff / h
    gaps, h = LevelGapCache(jmax=8), 1e-4
    for beta in (0.3, 1.0, 4.2):
        for label in ("A1", "L1", "E2", "E3"):
            diff = (gaps.eigenvalues(beta + h, label) - gaps.eigenvalues(beta - h, label)) / (2 * h)
            np.testing.assert_allclose(gaps.slopes(beta, label), diff, rtol=0, atol=1e-6)


# the label blocks against references that share none of their code, over
# the beta range of fitting.PARAM_BOUNDS and the potentials the config accepts
GAP_BETAS = (0.05, 0.1, 0.3, 1.0, 2.5, 6.0)
GAP_POTENTIALS = (((3, -1.0),), ((3, -1.0), (4, 0.3)), ((4, -1.0),))


@functools.lru_cache(maxsize=None)
def _gaps_j6(potential):
    return LevelGapCache(rotor.normalize_potential(potential), jmax=6)


@pytest.mark.parametrize("potential", GAP_POTENTIALS)
@pytest.mark.parametrize("beta", GAP_BETAS)
def test_gap_matches_classified_levels(potential, beta):
    # the gap is the classified (L1)1 - (A1)1 and the first excited level
    # over all label blocks
    gaps = _gaps_j6(potential)
    model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6)
    levels = classify_levels(diagonalize(model), max_energy=5.0)
    expected = rotor.find_level(levels, "L1").energy - rotor.find_level(levels, "A1").energy
    assert gaps.gap(beta) == pytest.approx(expected, abs=1e-9)
    lowest = np.sort(np.concatenate([gaps.energies(beta, name) for name in symmetry.LEVEL_LABELS]))
    assert gaps.gap(beta) == pytest.approx(lowest[1] - lowest[0], abs=1e-9)


@pytest.mark.parametrize("potential", GAP_POTENTIALS)
@pytest.mark.parametrize("beta", (0.05, 0.3, 1.0, 3.0))
def test_classified_content_matches_characters(potential, beta):
    # every labelled level spans its label's constituents, each as often as
    # the label's multiplicity, by characters that share no code with the
    # isotypic blocks classify_levels reads
    model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6)
    levels = classify_levels(diagonalize(model), max_energy=15.0)
    for lev in levels:
        label = symmetry.LEVEL_LABELS[lev.rovib_label]
        mult = lev.degeneracy // label.dimension
        assert lev.flagged == (mult > 1)
        assert reference.character_content(lev.vectors, 6) == {c: mult for c in label.constituents}


@pytest.mark.parametrize("potential", GAP_POTENTIALS)
@pytest.mark.parametrize("beta", GAP_BETAS)
def test_block_eigenvalues_match_full_hamiltonian(potential, beta):
    # every label's energies, each repeated by the label's dimension, are
    # the whole spectrum of H
    model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6)
    w = np.linalg.eigvalsh(hamiltonian_matrix(model))
    gaps = _gaps_j6(potential)
    got = np.sort(np.concatenate([np.repeat(gaps.eigenvalues(beta, name), label.dimension)
                                  for name, label in symmetry.LEVEL_LABELS.items()]))
    assert np.abs(got - w).max() < 1e-9


@pytest.mark.parametrize("potential", GAP_POTENTIALS + (((3, 0.7),),))
@pytest.mark.parametrize("jmax", [4, 6, 8])
def test_site_molecule_exchange_pairs_share_energies(potential, jmax):
    # the exchange pairs A2/E1, A3/L2 and E4/I1I2 share one block
    # (test_exchange_commutes_with_h_and_pairs_the_label_blocks); E2 and E3
    # have one spectrum only for a potential of rank 4 alone
    gaps = LevelGapCache(rotor.normalize_potential(potential), jmax=jmax)
    for beta in (0.05, 1.0, 6.0):
        diff = np.abs(gaps.eigenvalues(beta, "E2") - gaps.eigenvalues(beta, "E3")).max()
        assert (diff < 1e-12) == (potential == ((4, -1.0),))


EXCHANGE_PAIRS = (("A2", "E1"), ("A3", "L2"), ("E4", "I1I2"))


def _exchange_permutation(jmax):
    """Basis index of |J m k> for each basis state |J k m>: the swap of the
    site and molecular frames, an involution, so X v = v[perm]."""
    J, k, m = rotor._basis_layout(jmax)
    return rotor._basis_size(J - 1) + (m + J) * (2 * J + 1) + (k + J)


@pytest.mark.parametrize("potential", [((3, -1.0),), ((3, 0.7),), ((4, -1.0),),
                                       ((3, -1.0), (4, 0.3))],
                         ids=["3:-1", "3:0.7", "4:-1", "3:-1,4:0.3"])
def test_exchange_commutes_with_h_and_pairs_the_label_blocks(potential):
    # c_{mu nu} is symmetric, so the swap |J k m> -> |J m k> commutes with H
    # and maps each pair's label space onto its partner's: the pairs have one
    # spectrum, and LevelGapCache solves each pair once
    jmax, pot = 6, rotor.normalize_potential(potential)
    perm = _exchange_permutation(jmax)
    H = reference.hamiltonian(RotorModel.create(B=1.0, beta=1.0, potential=pot, Jmax=jmax))
    assert np.abs(H[np.ix_(perm, perm)] - H).max() <= 1e-15
    for a, b in EXCHANGE_PAIRS:
        Qa, Qb = reference.dense_label_basis(jmax, a), reference.dense_label_basis(jmax, b)
        assert Qa.shape == Qb.shape
        XQa = Qa[perm]
        assert np.abs(XQa - Qb @ (Qb.conj().T @ XQa)).max() <= 1e-14
    gaps = LevelGapCache(pot, jmax=jmax)
    for beta in (0.05, 1.0, 6.0):
        for a, b in EXCHANGE_PAIRS:
            assert np.array_equal(gaps.eigenvalues(beta, a), gaps.eigenvalues(beta, b))
            assert np.array_equal(gaps.energies(beta, a), gaps.energies(beta, b))


@pytest.mark.parametrize("potential", [potential for potential, _ in EXCHANGE_POTENTIALS]
                         + [((3, -1.0), (3, 0.5))],
                         ids=["3:-1", "3:0.7", "4:-1", "3:-1,4:0.3", "3:-1,3:0.5"])
def test_potential_blocks_bit_equal_to_their_exchange_images(potential):
    # c^T = c to the bit and each entry of V holds one (mu, nu) component per
    # term, so the exchange |J k m> -> |J m k> maps block 2's V onto block
    # 1's entry for entry, bit for bit: the premise of diagonalize's mirror
    for r in rotor.SUPPORTED_RANKS:
        c = invariant_coefficients(r)
        assert c.tobytes() == np.ascontiguousarray(c.T).tobytes()
    pot = rotor.normalize_potential(potential)
    for jmax in range(2, 17):
        (idx1, rows1, cols1, values1), (idx2, rows2, cols2, values2) = \
            rotor._potential_blocks(jmax, pot)[1:3]
        images = _exchange_permutation(jmax)[idx2]  # basis indices, all in block 1
        perm = np.searchsorted(idx1, images)
        assert idx1[perm].tobytes() == images.tobytes()
        assert perm.tobytes() == rotor._exchange_mirror(jmax).tobytes()
        keys = perm[rows2] * len(perm) + perm[cols2]
        order = np.argsort(keys)
        assert keys[order].tobytes() == (rows1 * len(perm) + cols1).tobytes()
        assert values2[order].tobytes() == values1.tobytes()


_SIGN = st.sampled_from([-1.0, 1.0])
#: rank 3, rank 4 and mixed potentials of either sign
_POTENTIALS = st.one_of(
    st.tuples(st.sampled_from(rotor.SUPPORTED_RANKS), _SIGN).map(lambda term: (term,)),
    st.tuples(_SIGN, _SIGN, st.floats(0.05, 2.0)).map(
        lambda t: ((3, t[0]), (4, t[1] * t[2]))),
)


@given(beta=st.floats(*fitting.PARAM_BOUNDS["beta"]), potential=_POTENTIALS,
       jmax=st.integers(4, 8), B=st.floats(*fitting.PARAM_BOUNDS["B"]))
@example(beta=0.05, potential=((3, -1.0),), jmax=6, B=5.9)
@example(beta=0.05, potential=((3, 1.0), (4, -0.3)), jmax=8, B=3.0)
def test_level_table_is_the_dense_spectrum_and_the_fit_model(beta, potential, jmax, B):
    # the level table from the label blocks is the dense oracle's spectrum
    # below the cut, each level repeated by its degeneracy, and the
    # transition model's positions are those its rows give
    pot = rotor.normalize_potential(potential)
    cut = 20.0 * B
    gaps = LevelGapCache(pot, jmax)
    levels = gaps.levels(B, beta, cut)
    got = np.repeat([lev.energy for lev in levels], [lev.degeneracy for lev in levels])
    w, _ = reference.diagonalize(RotorModel.create(B=B, beta=beta, potential=pot, Jmax=jmax))
    np.testing.assert_allclose(got, w[:len(got)], rtol=0, atol=1e-9 * B)
    assert len(got) == len(w) or w[len(got)] > cut - 1e-9 * B
    energy = {lev.name: lev.energy for lev in gaps.levels(B, beta)}
    tmodel = fitting.TransitionModel(pot, jmax)
    params = dict(B=B, beta=beta, nu0=3206.0, excited_scale=1.0,
                  dw_L1_star=None, dw_LE3_star=None)
    band = spectrum.VibrationBandModel(nu0=params["nu0"])
    for name, modeled in zip(tmodel.NAMES, tmodel.frequencies(tmodel.NAMES, params)):
        (low, i), (up, j) = re.findall(r"\((\w+)\)(\d+)", name)
        offset = band.excited_offset(up, int(j), lambda: energy[f"({up}){j}"] - energy["(L1)1"])
        position = band.nu0 + offset - (energy[f"({low}){i}"] - energy["(L1)1"])
        assert modeled == pytest.approx(position, abs=1e-9), name


@pytest.mark.parametrize("jmax", [2, 6, 10])
def test_label_blocks_partition_the_basis(jmax):
    blocks = {name: reference.dense_label_basis(jmax, name) for name in symmetry.LEVEL_LABELS}
    assert sum(symmetry.LEVEL_LABELS[name].dimension * Q.shape[1]
               for name, Q in blocks.items()) == len(build_basis(jmax))
    for name, Q in blocks.items():  # A2 is empty at Jmax 2
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-13)
        assert np.iscomplexobj(Q) == (name not in ("A1", "A3", "L2", "L1"))
    if jmax == 10:
        assert {name: Q.shape[1] for name, Q in blocks.items()} == {
            "A1": 17, "L1": 110, "A3": 38, "L2": 38, "E4": 36, "I1I2": 36,
            "E2": 14, "E3": 14, "A2": 12, "E1": 12}


@pytest.mark.parametrize("potential", GAP_POTENTIALS)
def test_label_block_is_the_dense_projection(potential):
    # the block written from the 3j factors per J is Q^H K Q and Q^H V Q of
    # the dense V and the dense label basis Q
    pot = rotor.normalize_potential(potential)
    V = reference.dense_potential(6, pot)
    kin = rotor._kinetic_diagonal(6)
    for name in symmetry.LEVEL_LABELS:
        Q = reference.dense_label_basis(6, name)
        kdiag, vblock = rotor._label_block(6, pot, name)
        np.testing.assert_allclose(np.diag(kdiag), Q.conj().T @ (kin[:, None] * Q),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(vblock, Q.conj().T @ V @ Q, rtol=0, atol=1e-12)


def test_label_projection_allocates_no_dense_matrix():
    # a first projection of the four-band fit's labels and of a complex label
    # holds per-J factors and the blocks; a dense V alone takes 8 n^2 bytes.
    # The potential is one no other test uses, so no cache is warm for it.
    potential = rotor.normalize_potential(((3, -1.0), (4, 0.2)))
    gaps = LevelGapCache(potential, jmax=10)
    n = len(build_basis(10))
    tracemalloc.start()
    try:
        for name in ("A1", "L1", "E3"):
            gaps.eigenvalues(1.0, name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n * n


def test_rank4_potential_full_pipeline():
    """The optional rank-4 term runs through assembly, diagonalization and
    classification; weak-field level labels match the rank-3 ones."""
    model = RotorModel.create(B=B0, beta=0.5, potential=((4, -1.0),), Jmax=4)
    levels = classify_levels(diagonalize(model))
    assert [lev.name for lev in levels[:2]] == ["(A1)1", "(L1)1"]
    assert sum(lev.degeneracy for lev in levels) == len(build_basis(4))
    w_la, _ = tunneling_frequencies(levels)
    # rank 4 perturbs the free-rotor gap only weakly at this field strength
    assert w_la == pytest.approx(2 * B0, rel=0.05)


def test_mixed_rank_potential_breaks_rank3_degeneracies():
    # with rank 3 alone the two J=2-derived E pairs straddle the L1(2) group;
    # the rank-4 admixture moves them without breaking the labeling
    model = RotorModel.create(B=B0, beta=1.0, potential=((3, -1.0), (4, 0.4)), Jmax=5)
    levels = classify_levels(diagonalize(model))
    labels = {lev.name for lev in levels[:7]}
    assert {"(A1)1", "(L1)1", "(E2)1", "(L1)2", "(I1I2)1", "(E4)1", "(E3)1"} == labels
