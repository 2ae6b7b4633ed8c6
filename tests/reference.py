"""References the tests check rotorspec against, and helpers only tests use.

The dense and Kronecker definitions below build what the kernels of
rotorspec.rotor build (V, H, the rank operators, the eigenvectors, the
classification's projections) the slow, direct way.  Until perfbench/ref is
re-recorded, the roundoff spin-A Raman sticks depend on the last bit of V,
the operators and the level vectors, so several tests require the kernels to
reproduce these definitions bit for bit.  No command needs any of this.
"""

import heapq
import math

import numpy as np
import scipy.linalg

from rotorspec import qubitplan, rotor, symmetry, units
from rotorspec.fitting import Peak, PeakList

#: a config of six empty sections: every key at its field's default
DEFAULT_CONFIG_TEXT = """\
[model]
[band]
[population]
[synthesis]
[crystal]
[source]
"""


# ---------------------------------------------------------------- small helpers

def rotation_d_expm(j, axis, angle):
    """exp(-i angle n.J) by scipy's expm, the oracle of rotor._rotation_d."""
    return scipy.linalg.expm(-1j * angle * rotor._generator(j, axis))


def tunneling_frequencies(levels) -> tuple[float, float]:
    """(omega_LA, omega_LE2): the A1(1)-L1(1) and L1(1)-E2(1) gaps in cm^-1."""
    a1 = rotor.find_level(levels, "A1", 1)
    l1 = rotor.find_level(levels, "L1", 1)
    e2 = rotor.find_level(levels, "E2", 1)
    return l1.energy - a1.energy, e2.energy - l1.energy


def compose(content: dict[str, int], table: symmetry.GroupTable) -> np.ndarray:
    """Characters of a direct sum of irreps (inverse of symmetry.decompose)."""
    chi = np.zeros(len(table.classes), dtype=complex)
    for label, mult in content.items():
        chi += mult * table.characters(label)
    return chi


def trivial_label(table: symmetry.GroupTable) -> str:
    """The totally symmetric irrep of `table`."""
    for label, dim, ch in table.irreps:
        if dim == 1 and all(abs(c - 1) < 1e-12 for c in ch):
            return label
    raise AssertionError(f"{table.name}: no totally symmetric irrep found")


def selection_allowed(group: str, initial: str, final: str, operator: str) -> bool:
    """True iff conj(final) x operator x initial contains the totally
    symmetric irrep of `group`, the three being irrep labels of it: the
    selection-rule oracle of the line gate."""
    table = symmetry.character_table(group)
    chi = (np.conj(table.characters(final))
           * table.characters(operator)
           * table.characters(initial))
    n = np.sum(table.class_sizes * chi) / table.order
    ni = round(n.real)
    if abs(n - ni) > 1e-9:
        raise symmetry.GroupError(f"selection-rule projection is not integral: {n}")
    return ni >= 1


def site_characters(label: symmetry.LevelLabel) -> np.ndarray:
    """Characters over T classes of a level label's site factor (molecular
    factor traced), the counterpart of LevelLabel.mol_characters."""
    t = symmetry.character_table("T")
    chi = np.zeros(4, dtype=complex)
    for c in label.constituents:
        s, m = c.split(".")
        chi += t.characters(s) * t.irrep(m)[1]
    return chi


def peak_list(freqs, labels=None) -> PeakList:
    """A PeakList of `freqs` without intensities, labelled by `labels`."""
    labels = labels or [None] * len(freqs)
    return PeakList(tuple(Peak(float(f), None, l) for f, l in zip(freqs, labels)))


def max_abs_residual(report) -> float:
    """Largest |observed - modeled| over a FitReport's residual rows."""
    return max((abs(r[3]) for r in report.residuals), default=0.0)


def all_pairs(lines):
    """Every unordered line pair as (upper line, lower line, cm^-1, GHz), in
    list order: sorted widest first, the oracle of
    qubitplan.delta_omega_table(lines)."""
    names = [f"{l.lower}->{l.upper}" for l in lines]
    for i, li in enumerate(lines):
        for j in range(i + 1, len(lines)):
            lj = lines[j]
            d = abs(li.frequency - lj.frequency)
            a, b = (names[j], names[i]) if lj.frequency > li.frequency else (names[i], names[j])
            yield a, b, d, units.cm1_to_ghz(d)


def widest_pairs(lines, k):
    """The k widest line pairs by making every pair: the oracle of
    qubitplan.delta_omega_table(lines, k)."""
    return heapq.nsmallest(k, all_pairs(lines), key=qubitplan._widest_first)


# ---------------------------------------------------------------- dense operators

def site_mol_operator(jmax, rs, rm):
    """Independent product-group representation built from dense Kronecker
    blocks (k-major within each J block)."""
    blocks = []
    for J in range(jmax + 1):
        Ds = rotor.wigner_d_matrix(J, *rs)
        Dm = rotor.wigner_d_matrix(J, *rm).conj()
        blocks.append(np.kron(Dm, Ds))
    n = sum(b.shape[0] for b in blocks)
    U = np.zeros((n, n), dtype=complex)
    ofs = 0
    for b in blocks:
        U[ofs:ofs + b.shape[0], ofs:ofs + b.shape[0]] = b
        ofs += b.shape[0]
    return U


def operator_blocks(ops, n):
    """{(mu, nu): D_{mu nu}}: the row slices of rank_operator_blocks' stacks."""
    rank = len(ops) // 2
    return {(mu, nu): M[i * n:(i + 1) * n] for mu, M in ops.items()
            for i, nu in enumerate(range(-rank, rank + 1))}


def strength(lower, upper, mats) -> float:
    """Squared transition moment from `lower` to `upper` with one
    (d_up x n) @ (n x d_low) product per component of `mats`, in order."""
    total = 0.0
    for M in mats.values():
        X = upper.vectors.T @ (M @ lower.vectors)
        total += float(np.sum(X * X))
    return total


def dense_potential(jmax, potential):
    """Dense V scattered from the nonzero entries of its parity blocks; 0
    everywhere else."""
    n = rotor._basis_size(jmax)
    V = np.zeros((n, n))
    for idx, rows, cols, values in rotor._potential_blocks(jmax, potential):
        V[idx[rows], idx[cols]] = values
    return V


def dense_label_basis(jmax, name):
    """Orthonormal columns of a level symbol's block over the whole basis:
    kron(*_first_row_bases(J, first constituent)) on each J's rows."""
    constituent = symmetry.LEVEL_LABELS[name].constituents[0]
    return scipy.linalg.block_diag(*(np.kron(*rotor._first_row_bases(J, constituent))
                                     for J in range(jmax + 1)))


# ---------------------------------------------------------------- bit-exact kernels

def potential_matrix(jmax, potential):
    """Dense assembly: each (J2, J) block is the c-weighted sum of
    kron(F[nu], F[mu]), scaled by sqrt((2J2+1)(2J+1)) and the term weight."""
    offsets = np.cumsum([0] + [(2 * J + 1) ** 2 for J in range(jmax + 1)])
    V = np.zeros((offsets[-1], offsets[-1]))
    for rank, weight in potential:
        cmat = rotor.invariant_coefficients(rank)
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


def hamiltonian(model):
    """Dense H = B * P^2 + beta * B * V over the basis."""
    H = np.diag(model.B * rotor._kinetic_diagonal(model.Jmax))
    H += (model.beta * model.B) * dense_potential(model.Jmax, model.potential)
    return H


def block_solves(model):
    """(basis indices, eigenvalues, eigenvectors) of eigh on each parity
    block of the dense H, blocks in (k, m) parity order (even, even), (even,
    odd), (odd, even), (odd, odd)."""
    H = hamiltonian(model)
    basis = rotor.build_basis(model.Jmax)
    solves = []
    for kp in (0, 1):
        for mp in (0, 1):
            idx = np.array([i for i, s in enumerate(basis) if (s.k % 2, s.m % 2) == (kp, mp)])
            solves.append((idx, *np.linalg.eigh(H[np.ix_(idx, idx)])))
    return solves


def diagonalize(model):
    """Dense H, eigh per parity block, eigenvectors zero-filled in block order
    and then permuted to energy order."""
    n = rotor._basis_size(model.Jmax)
    energies = np.empty(n)
    vectors = np.zeros((n, n))
    filled = 0
    for idx, w, v in block_solves(model):
        energies[filled:filled + len(idx)] = w
        vectors[np.ix_(idx, np.arange(filled, filled + len(idx)))] = v
        filled += len(idx)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    vectors = vectors[:, order]
    energies -= energies[0]
    return energies, vectors


# ---------------------------------------------------------------- classification

def project_label(vectors, jmax, label):
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
                Ds = rotor.wigner_d_matrix(J, rs_axis, rs_angle)
                Dm = rotor.wigner_d_matrix(J, rm_axis, rm_angle).conj()
                acc[J] += coef * np.matmul(Ds, np.tensordot(Dm, Vj, axes=(1, 0)))
    flat = np.vstack([b.reshape(-1, vectors.shape[1]) for b in acc]) / 144.0
    coeff = vectors.T @ flat
    u, s, _ = np.linalg.svd(np.hstack([coeff.real, coeff.imag]), full_matrices=False)
    return vectors @ u[:, :int(np.sum(s > 1e-8))]


def split(columns, a, b, names, jmax):
    """The split pass of classify_levels over the Gram matrices of all 16
    product irreps, kept for `names`: columns a..b-1 onto the eigenvalue-1
    eigenvectors of each label's real Gram matrix, labels in name order,
    written over those columns as classify_levels writes them."""
    vecs = columns[:, a:b]
    grams = dict.fromkeys(names, 0.0)
    for J in range(jmax + 1):
        for c, coeff in rotor._isotypic_coefficients(vecs, J):
            name = symmetry.CONSTITUENT_TO_LABEL[rotor._CONSTITUENTS[c][0]]
            if name in grams:
                grams[name] += coeff.conj().T @ coeff
    splits = [np.linalg.eigh(grams[name].real) for name in sorted(names)]
    vecs[:] = np.hstack([vecs @ u[:, w > 0.5] for w, u in splits])
    return vecs


def character_content(vectors, jmax):
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
                rotated = np.einsum("kK,mM,KMn->kmn", rotor.wigner_d_matrix(J, *reps[b]).conj(),
                                    rotor.wigner_d_matrix(J, *reps[a]), Vj, optimize=True)
                chi[a, b] += np.vdot(Vj, rotated)
    return symmetry.decompose(chi.ravel(), symmetry.character_table("TxT"), tol=1e-6)
