"""Eigenproblem layer: basis, 3j symbols, invariant potential, diagonalization,
classification and tunneling frequencies."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspec import rotor, symmetry
from rotorspec.rotor import (BasisState, LevelGapCache, PotentialError,
                             RotorError, RotorModel, barrier_height,
                             build_basis, classify_levels, diagonalize,
                             hamiltonian_matrix, invariant_coefficients,
                             potential_range, tunneling_frequencies,
                             wigner3j, wigner_d_matrix)

B0 = 5.9


# ---------------------------------------------------------------- basis

def test_basis_counts():
    assert len(build_basis(0)) == 1
    assert len(build_basis(1)) == 10
    assert len(build_basis(10)) == 1771


@given(st.integers(min_value=0, max_value=14))
def test_basis_count_closed_form(jmax):
    assert len(build_basis(jmax)) == (jmax + 1) * (2 * jmax + 1) * (2 * jmax + 3) // 3


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
    assert rotor.normalize_potential(rotor.DEFAULT_POTENTIAL) == normalized
    assert RotorModel.create() == RotorModel(potential=normalized)
    assert RotorModel.create(beta=2, Jmax=4.0) == RotorModel(beta=2.0, potential=normalized, Jmax=4)


def test_normalize_potential_mixed_ranks():
    pot = rotor.normalize_potential(((3, -1.0), (4, 0.3)))
    vmin, vmax = potential_range(pot)
    assert vmax - vmin == pytest.approx(1.0, abs=1e-8)


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


def test_invalid_model_rejected():
    with pytest.raises(RotorError, match="beta"):
        hamiltonian_matrix(RotorModel(B=B0, beta=-1.0, Jmax=4))
    with pytest.raises(RotorError, match="Jmax"):
        hamiltonian_matrix(RotorModel(B=B0, Jmax=1))
    with pytest.raises(RotorError, match="B must"):
        hamiltonian_matrix(RotorModel(B=-2.0, Jmax=4))


def _site_mol_operator(jmax, rs, rm):
    """Independent product-group representation built from dense Kronecker
    blocks (k-major within each J block)."""
    blocks = []
    for J in range(jmax + 1):
        Ds = wigner_d_matrix(J, *rs)
        Dm = wigner_d_matrix(J, *rm).conj()
        blocks.append(np.kron(Dm, Ds))
    n = sum(b.shape[0] for b in blocks)
    U = np.zeros((n, n), dtype=complex)
    ofs = 0
    for b in blocks:
        U[ofs:ofs + b.shape[0], ofs:ofs + b.shape[0]] = b
        ofs += b.shape[0]
    return U


def test_hamiltonian_commutes_with_all_144_rotations():
    jmax = 3
    model = RotorModel.create(B=1.0, beta=1.0, Jmax=jmax)
    H = hamiltonian_matrix(model)
    rots = [(ax, ang) for ax, ang, _ in symmetry.T_ROTATIONS]
    scale = np.abs(H).max()
    for rs in rots:
        for rm in rots:
            U = _site_mol_operator(jmax, rs, rm)
            assert np.abs(U @ H - H @ U).max() < 1e-10 * scale


# ---------------------------------------------------------------- shared 3j factors

@pytest.mark.parametrize("rank", [1, 2])
def test_rank_operator_blocks_match_dense_elements(rank):
    jmax = 3
    basis = build_basis(jmax)
    mats = rotor.rank_operator_blocks(jmax, rank)
    comps = range(-rank, rank + 1)
    assert set(mats) == {(mu, nu) for mu in comps for nu in comps}
    for (mu, nu), M in mats.items():
        dense = np.zeros((len(basis), len(basis)))
        for i, bra in enumerate(basis):
            for j, ket in enumerate(basis):
                dense[i, j] = (math.sqrt((2 * bra.J + 1) * (2 * ket.J + 1))
                               * (-1) ** (ket.m - ket.k)
                               * wigner3j(bra.J, rank, ket.J, bra.m, mu, -ket.m)
                               * wigner3j(bra.J, rank, ket.J, bra.k, nu, -ket.k))
        np.testing.assert_allclose(M.toarray(), dense, rtol=0, atol=1e-15)


def _dense_potential(jmax, potential):
    """Dense V scattered from its parity blocks; 0 between blocks."""
    n = len(build_basis(jmax))
    V = np.zeros((n, n))
    for idx, block in rotor._potential_blocks(jmax, potential):
        V[np.ix_(idx, idx)] = block
    return V


def _dense_label_basis(jmax, name):
    """Orthonormal columns of a level symbol's block over the whole basis:
    kron(*_first_row_bases(J, first constituent)) on each J's rows."""
    constituent = symmetry.LEVEL_LABELS[name].constituents[0]
    return scipy.linalg.block_diag(*(np.kron(*rotor._first_row_bases(J, constituent))
                                     for J in range(jmax + 1)))


@pytest.mark.parametrize("rank", [3, 4])
def test_potential_matrix_is_coefficient_sum_of_operators(rank):
    jmax = 4
    c = invariant_coefficients(rank)
    expected = sum(c[mu + rank, nu + rank] * M.toarray()
                   for (mu, nu), M in rotor.rank_operator_blocks(jmax, rank).items())
    V = _dense_potential(jmax, ((rank, 1.0),))
    np.testing.assert_allclose(V, expected, rtol=0, atol=1e-13)


# ---------------------------------------------------------------- bit-exact kernels
# Until perfbench/ref is re-recorded, the roundoff spin-A Raman sticks depend
# on the last bit of V, the operators and the projected level vectors, so the
# sparse kernels must reproduce these dense/kron definitions exactly.

def _reference_potential_matrix(jmax, potential):
    """Dense assembly: each (J2, J) block is the c-weighted sum of
    kron(F[nu], F[mu]), scaled by sqrt((2J2+1)(2J+1)) and the term weight."""
    offsets = rotor._j_offsets(jmax)
    n = len(build_basis(jmax))
    V = np.zeros((n, n))
    for rank, weight in potential:
        cmat = invariant_coefficients(rank)
        for J2 in range(jmax + 1):
            for J in range(jmax + 1):
                if abs(J - J2) > rank:
                    continue
                F = rotor._three_j_factors(J2, J, rank)
                block = np.zeros(((2 * J2 + 1) ** 2, (2 * J + 1) ** 2))
                for mu in range(-rank, rank + 1):
                    for nu in range(-rank, rank + 1):
                        cc = cmat[mu + rank, nu + rank]
                        if cc != 0.0:
                            block += cc * np.kron(F[nu + rank], F[mu + rank])
                block = math.sqrt((2 * J2 + 1) * (2 * J + 1)) * block
                r0, c0 = offsets[J2], offsets[J]
                V[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] += weight * block
    return V


@pytest.mark.parametrize("potential", [((3, -1.0),), ((4, -1.0),), ((3, -1.0), (4, 0.3))])
def test_potential_matrix_bit_equal_to_dense_assembly(potential):
    pot = rotor.normalize_potential(potential)
    V = _dense_potential(6, pot)
    assert V.tobytes() == _reference_potential_matrix(6, pot).tobytes()


@pytest.mark.parametrize("rank", [1, 2])
def test_rank_operator_blocks_bit_equal_to_kron_bmat(rank):
    jmax = 6
    mats = rotor.rank_operator_blocks(jmax, rank)
    for (mu, nu), M in mats.items():
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
def _levels_j6(beta):
    model = RotorModel.create(B=1.0, beta=beta, Jmax=6)
    system = diagonalize(model)
    return system, classify_levels(system, max_energy=12.0)


@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("rank", [1, 2])
def test_batched_strength_equals_per_pair_products(beta, rank):
    _, levels = _levels_j6(beta)
    mats = rotor.rank_operator_blocks(6, rank)

    def per_pair(lower, upper):
        total = 0.0
        for M in mats.values():
            X = upper.vectors.T @ (M @ lower.vectors)
            total += float(np.sum(X * X))
        return total

    assert len(levels) > 10
    for lower in levels:
        expected = [per_pair(lower, upper) for upper in levels]
        assert rotor.transition_strength(lower, levels, 6, rank) == expected
    assert rotor.transition_strength(levels[0], [], 6, rank) == []


def _reference_project_label(vectors, jmax, label):
    """Isotypic projection applying the full U(site, mol) per group element:
    the sum over all 144 (site, mol) rotation pairs of the label's
    characters times U, then a real orthonormal basis of the image."""
    chars = {row[0]: np.asarray(row[2]) for row in symmetry.character_table("T").irreps}
    vb, ofs = [], 0
    for J in range(jmax + 1):
        d = 2 * J + 1
        vb.append(vectors[ofs:ofs + d * d].astype(complex).reshape(d, d, -1))
        ofs += d * d
    acc = [np.zeros_like(b) for b in vb]
    for rs_axis, rs_angle, cs in symmetry.T_ROTATIONS:
        for rm_axis, rm_angle, cm in symmetry.T_ROTATIONS:
            coef = 0.0
            for cst in label.constituents:
                s, m = cst.split(".")
                coef += np.conj(chars[s][cs] * chars[m][cm])
            if coef == 0.0:
                continue
            for J, Vj in enumerate(vb):
                Ds = wigner_d_matrix(J, rs_axis, rs_angle)
                Dm = wigner_d_matrix(J, rm_axis, rm_angle).conj()
                acc[J] += coef * np.matmul(Ds, np.tensordot(Dm, Vj, axes=(1, 0)))
    flat = np.vstack([b.reshape(-1, vectors.shape[1]) for b in acc]) / 144.0
    coeff = vectors.T @ flat
    u, s, _ = np.linalg.svd(np.hstack([coeff.real, coeff.imag]), full_matrices=False)
    return vectors @ u[:, :int(np.sum(s > 1e-8))]


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
                    ref = _reference_project_label(system.columns(a, b), 6,
                                                   symmetry.LEVEL_LABELS[lev.rovib_label])
                    assert ref.shape == lev.vectors.shape
                    diff = lev.vectors @ lev.vectors.T - ref @ ref.T
                    assert np.abs(diff).max() <= 1e-12
    assert split >= 9


def test_warm_classification_makes_no_rotation_matrix(monkeypatch):
    # the isotypic bases are cached per (J, irrep), so a second
    # classification sums over no group elements
    system = diagonalize(RotorModel.create(B=1.0, beta=1.0, Jmax=8))
    classify_levels(system)
    calls = []
    original = rotor.wigner_d_matrix
    monkeypatch.setattr(rotor, "wigner_d_matrix", lambda *a: calls.append(a) or original(*a))
    levels = classify_levels(system)
    assert calls == []
    assert len({lev.energy for lev in levels}) < len(levels)  # some clusters were split


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
# the dense-H definition exactly.

def _reference_hamiltonian(model):
    H = np.diag(model.B * rotor._kinetic_diagonal(model.Jmax))
    H += (model.beta * model.B) * _dense_potential(model.Jmax, model.potential)
    return H


def _reference_diagonalize(model):
    """Dense H, eigh per parity block, eigenvectors zero-filled in block order
    and then permuted to energy order."""
    H = _reference_hamiltonian(model)
    basis = build_basis(model.Jmax)
    n = len(basis)
    energies = np.empty(n)
    vectors = np.zeros((n, n))
    filled = 0
    for kp in (0, 1):
        for mp in (0, 1):
            idx = np.array([i for i, s in enumerate(basis) if (s.k % 2, s.m % 2) == (kp, mp)])
            w, v = np.linalg.eigh(H[np.ix_(idx, idx)])
            energies[filled:filled + len(idx)] = w
            vectors[np.ix_(idx, np.arange(filled, filled + len(idx)))] = v
            filled += len(idx)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    vectors = vectors[:, order]
    energies -= energies[0]
    return energies, vectors


@pytest.mark.parametrize("potential", [((3, -1.0),), ((3, -1.0), (4, 0.3)), ((4, -1.0),)])
@pytest.mark.parametrize("beta", [0.05, 1.0, 6.0])
@pytest.mark.parametrize("jmax", [6, 8])
def test_diagonalize_bit_equal_to_dense_hamiltonian(jmax, beta, potential):
    model = RotorModel.create(B=B0, beta=beta, potential=potential, Jmax=jmax)
    assert hamiltonian_matrix(model).tobytes() == _reference_hamiltonian(model).tobytes()
    system = diagonalize(model)
    energies, vectors = _reference_diagonalize(model)
    assert system.energies.tobytes() == energies.tobytes()
    assert system.columns().tobytes() == vectors.tobytes()
    lead = len(energies) // 3
    assert system.columns(0, lead).tobytes() == vectors[:, :lead].tobytes()


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
    assert all(lev.rovib_label != "?" for lev in levels)
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
    # that cannot carry an integral label
    model = RotorModel.create(B=B0, beta=1.0, Jmax=3)
    system = diagonalize(model)
    spread = dataclasses.replace(system, energies=np.arange(float(len(system.energies))))
    levels = classify_levels(spread)
    assert any(lev.flagged for lev in levels)


def test_classify_requires_content_to_fill_the_cluster():
    # a 2-state fragment of an A3 triplet, holding the triplet's F.A
    # first-row state, counts 2/3 of a copy of F.A and the remaining state
    # 1/3: neither count is integral
    model = RotorModel.create(B=B0, beta=1.0, Jmax=4)
    system = diagonalize(model)
    a3 = rotor.find_level(classify_levels(system), "A3")
    u, s, _ = np.linalg.svd(a3.vectors.T @ _dense_label_basis(4, "A3"))
    assert s[0] == pytest.approx(1.0) and s[1] < 1e-10
    rows = np.arange(len(system.basis))
    fragments = rotor.Eigensystem(energies=np.array([0.0, 0.0, 1.0]),
                                  blocks=((rows, np.arange(3), a3.vectors @ u),),
                                  basis=system.basis, model=model)
    levels = classify_levels(fragments)
    assert [(lev.rovib_label, lev.degeneracy, lev.flagged) for lev in levels] == [
        ("?", 2, True), ("?", 1, True)]


@pytest.mark.parametrize("jmax", [4, 6, 8])
def test_cluster_content_always_fills_the_cluster(jmax):
    # the isotypic blocks of the 16 product irreps partition each J
    # manifold, so the weights of orthonormal columns times the irrep
    # dimensions sum to the cluster size: content that counts integral
    # copies fills its cluster, and classify_levels needs no rule for the rest
    dims = np.array([dim for _, dim in rotor._CONSTITUENTS])
    for potential in GAP_POTENTIALS:
        for beta in (0.05, 1.0, 6.0):
            model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=jmax)
            system = diagonalize(model)
            columns = system.columns()
            weights = np.zeros((len(dims), columns.shape[1]))
            for J in range(jmax + 1):
                for c, coeff in rotor._isotypic_coefficients(columns, J):
                    weights[c] += np.sum(np.abs(coeff) ** 2, axis=0) / dims[c]
            span = system.energies[-1] - system.energies[0]
            for a, b in rotor._cluster_slices(system.energies, 1e-6 * span):
                assert abs(dims @ weights[:, a:b].sum(axis=1) - (b - a)) < 1e-9


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


def _character_content(vectors, jmax):
    """Product-irrep content of the span of `vectors` by character projection:
    characters over the 16 (site, molecule) class pairs, reduced over TxT.
    Site rotations act on m through D^J, molecular rotations on k through
    conj(D^J)."""
    reps = {}
    for axis, angle, cls in symmetry.T_ROTATIONS:
        reps.setdefault(cls, (axis, angle))
    chi = np.zeros((4, 4), dtype=complex)
    ofs = 0
    for J in range(jmax + 1):
        d = 2 * J + 1
        Vj = vectors[ofs:ofs + d * d].reshape(d, d, -1)
        ofs += d * d
        for a in range(4):
            for b in range(4):
                rotated = np.einsum("kK,mM,KMn->kmn", wigner_d_matrix(J, *reps[b]).conj(),
                                    wigner_d_matrix(J, *reps[a]), Vj, optimize=True)
                chi[a, b] += np.vdot(Vj, rotated)
    return symmetry.decompose(chi.ravel(), symmetry.character_table("TxT"), tol=1e-6)


@pytest.mark.parametrize("potential", GAP_POTENTIALS)
@pytest.mark.parametrize("beta", (0.05, 0.3, 1.0, 3.0))
def test_classified_content_matches_characters(potential, beta):
    # every labelled level spans its label's constituents, each as often as
    # the label's multiplicity, by characters that share no code with the
    # isotypic blocks classify_levels reads
    model = RotorModel.create(B=1.0, beta=beta, potential=potential, Jmax=6)
    levels = classify_levels(diagonalize(model), max_energy=15.0)
    assert all(lev.rovib_label != "?" for lev in levels)
    for lev in levels:
        label = symmetry.LEVEL_LABELS[lev.rovib_label]
        mult = lev.degeneracy // label.dimension
        assert lev.flagged == (mult > 1)
        assert _character_content(lev.vectors, 6) == {c: mult for c in label.constituents}


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


@pytest.mark.parametrize("jmax", [2, 6, 10])
def test_label_blocks_partition_the_basis(jmax):
    blocks = {name: _dense_label_basis(jmax, name) for name in symmetry.LEVEL_LABELS}
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
    V = _dense_potential(6, pot)
    kin = rotor._kinetic_diagonal(6)
    for name in symmetry.LEVEL_LABELS:
        Q = _dense_label_basis(6, name)
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


def test_barrier_height():
    assert barrier_height(RotorModel.create(B=B0, beta=0.0, Jmax=4)) == 0.0
    assert barrier_height(RotorModel.create(B=B0, beta=1.0, Jmax=4)) == pytest.approx(B0, abs=1e-8)
    beta280 = 280.0 / B0
    assert barrier_height(RotorModel.create(B=B0, beta=beta280, Jmax=4)) == pytest.approx(280.0, abs=1e-6)


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
