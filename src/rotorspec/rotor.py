"""Hindered-rotor eigenproblem for a tetrahedral molecule at a tetrahedral
crystal site.

The Hamiltonian is H = B*P^2 + beta*B*V(omega) in a symmetric-top basis
|J k m>, k the molecule-frame and m the lattice-frame projection.  V(omega)
is built from rotation-matrix invariants of the proper tetrahedral rotation
group acting simultaneously on both frames; rank 3 is the leading term when
neither group contains inversion, with an optional rank-4 admixture.  The
coefficient tensor of each rank is the (unique) two-sided group average of
D^l, so invariance under all 144 site x molecule rotations holds by
construction and the matrix is real symmetric.

Potential normalization fixes max V - min V = 1 over orientation space, so
the barrier height is exactly beta*B.  With the default negative rank-3
coefficient the potential minima sit at the aligned orientations (molecular
tetrahedron coincident with the site tetrahedron); the aligned-frame value is
then the global minimum and the quarter-turn about a coordinate axis gives
the global maximum.

The potential and the rank-1/rank-2 transition operators share one table
of 3j factors per (J', J, rank); it alone fixes the index and phase
convention of <J'k'm'|D^l_{mu nu}|J k m> and is the only caller of wigner3j.
V and the operators are assembled from the nonzero 3j products only, and
transition_strength applies a lower level's operators once for all finals.
V conserves the parity of k and of m, so it is assembled straight into its
four parity blocks, and diagonalize builds and solves H one block at a time
and keeps each block's eigenvectors; dense n-row columns are written only for
the levels classify_levels keeps, so a cut in energy leaves no n x n array on
the level or spectrum path.  Until perfbench/ref is
re-recorded these kernels must stay bit-identical to the dense/Kronecker
definitions (a dense H cut into parity blocks included) that
tests/test_rotor.py keeps as references.  The fit's label blocks are written
from the same 3j factors per J, with no n-sized array.

Both label mechanisms rest on one projector per (J, T irrep), _row_basis,
cached with its first-row or its whole isotypic image (site rotations act on
m, molecular rotations on k).  classify_levels takes each eigencluster's
coefficients on the isotypic blocks of the 16 product irreps in one pass:
their squared norms count the cluster's content, and for a cluster holding
several labels their Gram matrix per label splits it.  The levels get the
cluster labels of symmetry.LEVEL_LABELS together with their nuclear-spin
species.  The fitting path needs energies only: LevelGapCache solves one
first-row block per level symbol (_first_row_bases), whose eigenvalues are
the energies of that symbol's levels in order.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from . import symmetry
from .symmetry import LEVEL_LABELS, T_ROTATIONS

__all__ = [
    "BasisState",
    "RotorModel",
    "EnergyLevel",
    "Eigensystem",
    "RotorError",
    "PotentialError",
    "build_basis",
    "wigner3j",
    "wigner_d_matrix",
    "invariant_coefficients",
    "potential_range",
    "estimated_peak_bytes",
    "hamiltonian_matrix",
    "diagonalize",
    "classify_levels",
    "tunneling_frequencies",
    "barrier_height",
    "rank_operator_blocks",
    "LevelGapCache",
    "DEFAULT_POTENTIAL",
    "DEFAULT_B_CM1",
    "DEFAULT_JMAX",
]


class RotorError(RuntimeError):
    """Eigenproblem failure or invalid model."""


class PotentialError(ValueError):
    """Potential specification violates the unit-range normalization."""


DEFAULT_B_CM1 = 5.9
DEFAULT_JMAX = 10
SUPPORTED_RANKS = (3, 4)
#: bytes of physical memory; RotorModel.validate rejects a Jmax needing more
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True, order=True)
class BasisState:
    J: int
    k: int
    m: int

    def __post_init__(self):
        if self.J < 0 or abs(self.k) > self.J or abs(self.m) > self.J:
            raise ValueError(f"invalid |J k m> = |{self.J} {self.k} {self.m}>")


def build_basis(jmax: int) -> list[BasisState]:
    """All |J k m> with J <= jmax; J ascending, then k, then m.
    Count is sum_J (2J+1)^2 = (jmax+1)(2jmax+1)(2jmax+3)/3."""
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    return [
        BasisState(J, k, m)
        for J in range(jmax + 1)
        for k in range(-J, J + 1)
        for m in range(-J, J + 1)
    ]


# ----------------------------------------------------------------------------
# Wigner 3j (Racah formula, exact integer factorials)
# ----------------------------------------------------------------------------

def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """3j symbol for integer arguments.  Out-of-domain inputs return 0."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    num = (f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
           * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
           * f(j3 - m3) * f(j3 + m3))
    den = f(j1 + j2 + j3 + 1)
    ssum = 0
    scale = f(j1 + j2 + j3)  # multinomial factor keeps every k-term integral
    for k in range(max(0, j2 - j3 - m1, j1 - j3 + m2),
                   min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1):
        term = scale // (f(k) * f(j1 + j2 - j3 - k) * f(j1 - m1 - k)
                         * f(j2 + m2 - k) * f(j3 - j2 + m1 + k)
                         * f(j3 - j1 - m2 + k))
        ssum += -term if k % 2 else term
    sign = -1 if (j1 - j2 - m3) % 2 else 1
    # int / int is correctly rounded, so each quotient is the nearest float
    return sign * math.sqrt(num / den) * (ssum / scale)


@lru_cache(maxsize=None)
def _three_j_factors(J2: int, J: int, rank: int) -> np.ndarray:
    """F[mu + rank, m2 + J2, m + J] = (-1)^m (J2 rank J; m2 mu -m).

    The one place that fixes the index and phase convention of the
    symmetric-top elements: since the two 3j symbols of
    <J2 k2 m2|D^rank_{mu nu}|J k m> share it, each element is
    sqrt((2J2+1)(2J+1)) * F[nu + rank][k2 + J2, k + J] * F[mu + rank][m2 + J2, m + J].
    """
    F = np.zeros((2 * rank + 1, 2 * J2 + 1, 2 * J + 1))
    for mu in range(-rank, rank + 1):
        for m2 in range(-J2, J2 + 1):
            m = m2 + mu
            if abs(m) <= J:
                F[mu + rank, m2 + J2, m + J] = (-1.0) ** m * wigner3j(J2, rank, J, m2, mu, -m)
    F.setflags(write=False)
    return F


# ----------------------------------------------------------------------------
# Wigner D matrices for finite rotations
# ----------------------------------------------------------------------------

def _angular_momentum(j: int):
    dim = 2 * j + 1
    m = np.arange(-j, j + 1, dtype=float)
    jz = np.diag(m)
    jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        jp[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jx = (jp + jp.T) / 2
    jy = (jp - jp.T) / 2j
    return jx, jy, jz


@lru_cache(maxsize=None)
def _wigner_d_cached(j: int, axis: tuple, angle: float) -> np.ndarray:
    jx, jy, jz = _angular_momentum(j)
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm > 0:
        n = n / norm
    D = scipy.linalg.expm(-1j * angle * (n[0] * jx + n[1] * jy + n[2] * jz))
    D.setflags(write=False)
    return D


def wigner_d_matrix(j: int, axis, angle: float) -> np.ndarray:
    """D^j for the active rotation by `angle` about `axis`, rows/cols ordered
    m = -j..j."""
    return _wigner_d_cached(j, tuple(axis), float(angle))


# ----------------------------------------------------------------------------
# invariant potential coefficients
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def invariant_coefficients(rank: int) -> np.ndarray:
    """Real symmetric coefficient matrix c of the unique two-sided tetrahedral
    invariant at the given rank: V(omega) = sum_{mu nu} c_{mu nu} D^rank_{mu nu}.

    c is the complex conjugate of the group-average projector onto the
    invariant vector, normalized to V(identity) = 1.
    """
    if rank not in SUPPORTED_RANKS:
        raise PotentialError(f"unsupported potential rank {rank}; use {SUPPORTED_RANKS}")
    dim = 2 * rank + 1
    P = np.zeros((dim, dim), dtype=complex)
    for axis, angle, _ in T_ROTATIONS:
        P += wigner_d_matrix(rank, axis, angle)
    P /= len(T_ROTATIONS)
    if abs(np.trace(P).real - 1.0) > 1e-10:
        raise RuntimeError(f"rank-{rank} invariant subspace is not one-dimensional")
    c = P.conj()
    if np.abs(c.imag).max() > 1e-12:
        raise RuntimeError(f"rank-{rank} coefficient matrix is not real")
    c = np.ascontiguousarray(c.real)
    c[np.abs(c) < 1e-14] = 0.0  # chop group-average noise; exact zeros by symmetry
    c.setflags(write=False)
    return c


def _little_d(rank: int, beta_angles: np.ndarray) -> np.ndarray:
    """Stack of real d^rank(beta) matrices for an array of angles."""
    return np.array([wigner_d_matrix(rank, (0.0, 1.0, 0.0), b).real for b in beta_angles])


def _potential_on_grid(potential):
    """Evaluate V on an Euler grid; returns (values, angle triples)."""
    n = 32  # points per Euler angle
    alphas = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    gammas = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    betas = np.arccos(np.linspace(-1.0, 1.0, n + 1))
    A, G = np.meshgrid(alphas, gammas, indexing="ij")
    values = np.zeros((len(betas), n, n))
    for rank, weight in potential:
        c = invariant_coefficients(rank)
        dstack = _little_d(rank, betas)
        ms = np.arange(-rank, rank + 1)
        for i, mu in enumerate(ms):
            for j_, nu in enumerate(ms):
                if c[i, j_] == 0.0:
                    continue
                phase = np.cos(A * mu + G * nu)  # V real: sine parts cancel
                values += weight * c[i, j_] * dstack[:, i, j_][:, None, None] * phase
    return values, (alphas, betas, gammas)


def _potential_value(potential, angles: np.ndarray) -> float:
    a, b, g = angles
    v = 0.0
    for rank, weight in potential:
        c = invariant_coefficients(rank)
        d = wigner_d_matrix(rank, (0.0, 1.0, 0.0), b).real
        ms = np.arange(-rank, rank + 1)
        phase = np.cos(np.add.outer(ms * a, ms * g))
        v += weight * float(np.sum(c * d * phase))
    return v


def potential_range(potential) -> tuple[float, float]:
    """(min, max) of V over orientations: dense grid scan plus local
    refinement from the best grid points."""
    return _potential_range_cached(tuple((int(r), float(w)) for r, w in potential))


@lru_cache(maxsize=64)
def _potential_range_cached(potential: tuple) -> tuple[float, float]:
    values, (alphas, betas, gammas) = _potential_on_grid(potential)
    lo_idx = np.unravel_index(np.argmin(values), values.shape)
    hi_idx = np.unravel_index(np.argmax(values), values.shape)

    def refine(idx, sign):
        x0 = np.array([alphas[idx[1]], betas[idx[0]], gammas[idx[2]]])
        res = scipy.optimize.minimize(
            lambda x: sign * _potential_value(potential, x), x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400},
        )
        return sign * res.fun

    vmin = min(values.min(), refine(lo_idx, +1.0))
    vmax = max(values.max(), refine(hi_idx, -1.0))
    return float(vmin), float(vmax)


def normalize_potential(potential) -> tuple[tuple[int, float], ...]:
    """Rescale coefficients so that max V - min V = 1."""
    pot = tuple((int(r), float(w)) for r, w in potential)
    vmin, vmax = potential_range(pot)
    span = vmax - vmin
    if not math.isfinite(span):
        raise PotentialError(f"potential range is {span}; use smaller coefficients")
    if span <= 1e-12:
        raise PotentialError("potential is constant; cannot normalize to unit range")
    return tuple((r, w / span) for r, w in pot)


DEFAULT_POTENTIAL = ((3, -0.5),)  # normalized rank-3 invariant, minima aligned


def estimated_peak_bytes(jmax: int) -> float:
    """Estimated peak RSS of a `spectrum` run at `jmax`, in bytes, for the
    basis size n: 100 MB + 0.8 x 8n^2 (the eigenvectors' and V's parity
    blocks and one block's solve), fitted and rounded up to the peaks
    measured at Jmax 10, 14 and 16 (n = 1771, 4495 and 6545): 109.2, 214.9
    and 350.8 MB.  `levels` with no energy cut writes all n columns densely
    and peaks higher (379 MB at Jmax 14); `fit --starts 1 --max-iter 20`
    holds no n x n array and peaks lower, at 88.9, 91.5 and 95.1 MB."""
    n = (jmax + 1) * (2 * jmax + 1) * (2 * jmax + 3) // 3
    return 100e6 + 0.8 * 8 * float(n) ** 2 if n < 1e150 else math.inf


# ----------------------------------------------------------------------------
# model
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RotorModel:
    """Physical parameters of H = B*P^2 + beta*B*V(omega).

    `potential` holds normalized (rank, coefficient) pairs; use
    RotorModel.create to normalize arbitrary coefficients.
    """

    B: float = field(default=DEFAULT_B_CM1, metadata={"fit_bound": (3.0, 9.0)})
    beta: float = field(default=1.0, metadata={"fit_bound": (0.05, 6.0)})
    potential: tuple[tuple[int, float], ...] = DEFAULT_POTENTIAL
    Jmax: int = DEFAULT_JMAX

    @classmethod
    def create(cls, **params) -> "RotorModel":
        """The model of `params`, the field defaults for the rest, with its
        potential normalized."""
        model = cls(**params)
        return cls(B=float(model.B), beta=float(model.beta),
                   potential=normalize_potential(model.potential), Jmax=int(model.Jmax))

    def validate(self) -> list[tuple[str, str]]:
        problems = []
        if not self.B > 0:
            problems.append(("B", f"B must be positive, got {self.B}"))
        if self.beta < 0:
            problems.append(("beta", f"beta must be non-negative, got {self.beta}; "
                                     "flip the potential sign instead"))
        need = estimated_peak_bytes(self.Jmax)
        if self.Jmax < 2:
            problems.append(("Jmax", f"Jmax must be >= 2, got {self.Jmax}"))
        elif need > _PHYSICAL_MEMORY:
            problems.append(("Jmax", f"Jmax {self.Jmax} needs about {need / 1e9:.3g} GB, more than "
                                     f"the {_PHYSICAL_MEMORY / 1e9:.3g} GB of physical memory"))
        ranks = [rank for rank, _ in self.potential if rank not in SUPPORTED_RANKS]
        if not self.potential:
            problems.append(("potential", "potential must contain at least one term"))
        elif ranks:
            problems += [("potential", f"unsupported potential rank {rank}") for rank in ranks]
        else:
            try:
                normalize_potential(self.potential)
            except PotentialError as exc:
                problems.append(("potential", str(exc)))
        return problems

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise RotorError("invalid rotor model: " + "; ".join(m for _, m in problems))


# ----------------------------------------------------------------------------
# Hamiltonian assembly
# ----------------------------------------------------------------------------

def _j_offsets(jmax: int) -> list[int]:
    out, ofs = [], 0
    for J in range(jmax + 1):
        out.append(ofs)
        ofs += (2 * J + 1) ** 2
    return out


def _nonzero_elements(jmax: int, rank: int, mu: int, nu: int):
    """Nonzero <J2 k2 m2|D^rank_{mu nu}|J k m> = s * F[nu][k2, k] * F[mu][m2, m]
    per coupled (J2, J) block: (rows, cols, F[nu] factors, F[mu] factors, s).
    By the 3j rule m = m2 + mu each row has at most one; states are ordered
    k-major within a J block, so rows and cols index kron(F[nu], F[mu])."""
    offsets = _j_offsets(jmax)
    for J2 in range(jmax + 1):
        for J in range(max(0, J2 - rank), min(jmax, J2 + rank) + 1):
            F = _three_j_factors(J2, J, rank)
            Fnu, Fmu = F[nu + rank], F[mu + rank]
            ra, ca = np.nonzero(Fnu)
            rb, cb = np.nonzero(Fmu)
            yield ((offsets[J2] + ra[:, None] * (2 * J2 + 1) + rb).ravel(),
                   (offsets[J] + ca[:, None] * (2 * J + 1) + cb).ravel(),
                   np.repeat(Fnu[ra, ca], len(rb)), np.tile(Fmu[rb, cb], len(ra)),
                   math.sqrt((2 * J2 + 1) * (2 * J + 1)))


def _parity_blocks(jmax: int) -> list[np.ndarray]:
    """Ascending basis indices of the four (k, m) parity blocks."""
    basis = build_basis(jmax)
    kpar = np.array([s.k % 2 for s in basis])
    mpar = np.array([s.m % 2 for s in basis])
    return [np.where((kpar == kp) & (mpar == mp))[0]
            for kp in (0, 1) for mp in (0, 1)]


@lru_cache(maxsize=8)
def _potential_blocks(jmax: int, potential: tuple) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(basis indices, V block) for each parity block of V, the sum of weight *
    c_{mu nu} D^rank_{mu nu} over terms and components.  By the 3j rules
    k = k2 + nu and m = m2 + mu, and every nonzero c has even mu and nu, so V
    couples no two blocks.  An entry gets one component per rank,
    weight * (s * (cc * (Fnu * Fmu))), the value the dense sum of scaled
    kron(F[nu], F[mu]) blocks rounds to."""
    blocks = _parity_blocks(jmax)
    ends = np.cumsum([len(idx) ** 2 for idx in blocks])
    # the blocks lie one after another in `flat`, each row-major: basis state i
    # has block-local index local[i] and its block row starts at row_start[i]
    local = np.empty(sum(len(idx) for idx in blocks), dtype=np.intp)
    row_start = np.empty_like(local)
    for idx, end in zip(blocks, ends):
        local[idx] = np.arange(len(idx))
        row_start[idx] = end - len(idx) ** 2 + local[idx] * len(idx)
    flat = np.zeros(ends[-1])
    written = []
    for rank, weight in potential:
        cmat = invariant_coefficients(rank)
        for i, j in zip(*np.nonzero(cmat)):
            if (i - rank) % 2 or (j - rank) % 2:
                raise RotorError(f"the rank-{rank} potential couples parity blocks")
            for rows, cols, fnu, fmu, s in _nonzero_elements(jmax, rank, i - rank, j - rank):
                at = row_start[rows] + local[cols]
                flat[at] += weight * (s * (cmat[i, j] * (fnu * fmu)))
                written.append((at, row_start[cols] + local[rows]))
    # entries never written are 0 on both sides of the diagonal
    at, mirror = (np.concatenate(ix) for ix in zip(*written))
    asym = np.abs(flat[at] - flat[mirror]).max()
    if asym > 1e-12:
        raise RotorError(f"potential matrix asymmetry {asym:.2e} exceeds 1e-12")
    flat.setflags(write=False)
    parts = np.split(flat, ends[:-1])
    return tuple((idx, part.reshape(len(idx), len(idx))) for idx, part in zip(blocks, parts))


@lru_cache(maxsize=8)
def _kinetic_diagonal(jmax: int) -> np.ndarray:
    diag = np.array([s.J * (s.J + 1) for s in build_basis(jmax)], dtype=float)
    diag.setflags(write=False)
    return diag


def _hamiltonian_blocks(model: RotorModel):
    """(basis indices, H block) per parity block, in cm^-1, after checking
    the model; each block is np.diag(B * kin) + (beta * B) * V_b, so it holds
    the bits of the same entries of the dense H."""
    model.require_valid()
    vmin, vmax = potential_range(model.potential)
    if abs((vmax - vmin) - 1.0) > 1e-6:
        raise PotentialError(
            f"potential range is {vmax - vmin:.8f}, not 1 (use RotorModel.create)"
        )
    kin = model.B * _kinetic_diagonal(model.Jmax)
    scale = model.beta * model.B
    return ((idx, np.diag(kin[idx]) + scale * vb)
            for idx, vb in _potential_blocks(model.Jmax, model.potential))


def hamiltonian_matrix(model: RotorModel) -> np.ndarray:
    """Dense real symmetric Hamiltonian over build_basis(model.Jmax), cm^-1."""
    blocks = _hamiltonian_blocks(model)  # checks the model first
    H = np.zeros((len(_kinetic_diagonal(model.Jmax)),) * 2)
    for idx, hb in blocks:
        H[np.ix_(idx, idx)] = hb
    return H


# ----------------------------------------------------------------------------
# diagonalization (parity blocks)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues (shifted so the ground level is 0, ascending) and the
    orthonormal eigenvectors, kept per parity block as eigh returned them:
    `blocks` holds (basis rows, column numbers in `energies` order, v) with
    each block's column numbers ascending.  columns() writes dense n-row
    columns for the range a caller needs."""

    energies: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    basis: tuple[BasisState, ...]
    model: RotorModel

    def columns(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Eigenvector columns start..stop-1 over the basis, zero outside
        their block."""
        stop = len(self.energies) if stop is None else stop
        out = np.zeros((len(self.basis), stop - start))
        for rows, cols, v in self.blocks:
            lo, hi = np.searchsorted(cols, (start, stop))
            out[np.ix_(rows, cols[lo:hi] - start)] = v[:, lo:hi]
        return out

    def residual_checks(self) -> tuple[float, float]:
        """(orthonormality defect, relative eigen-residual) for validation,
        per parity block, `blocks` being diagonalize's.  H and the Gram
        matrix couple no two blocks, so the dense formulas' cross-block terms
        are exact zeros."""
        span = self.energies[-1] - self.energies[0] or 1.0
        parts = [(hb, v, cols) for (_, hb), (_, cols, v)
                 in zip(_hamiltonian_blocks(self.model), self.blocks)]
        hb, x, _ = next(part for part in parts if 0 in part[2][:1])  # the ground's block
        ground = x[:, 0] @ hb @ x[:, 0]
        ortho = resid = 0.0
        for hb, x, cols in parts:
            ortho = max(ortho, np.abs(x.T @ x - np.eye(len(cols))).max(initial=0.0))
            resid = max(resid, np.abs(hb @ x - x * (self.energies[cols] + ground)).max(initial=0.0))
        return float(ortho), float(resid / span)


def diagonalize(model: RotorModel) -> Eigensystem:
    """Solve the eigenproblem per parity block; the potential conserves the
    parity of k and of m for every supported rank.  Each block keeps its
    eigenvectors with their energy-ordered column numbers."""
    solved = []
    for idx, sub in _hamiltonian_blocks(model):
        try:
            w, v = np.linalg.eigh(sub)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(sub)
            raise RotorError(
                f"eigen-solver failed on a {len(idx)}-state block "
                f"(condition number {cond:.3e}): {exc}"
            ) from exc
        solved.append((idx, w, v))
    energies = np.concatenate([w for _, w, _ in solved])
    order = np.argsort(energies, kind="stable")
    column = np.empty(len(energies), dtype=np.intp)
    column[order] = np.arange(len(energies))
    ends = np.cumsum([len(w) for _, w, _ in solved])
    blocks = tuple((idx, column[end - len(w):end], v) for (idx, w, v), end in zip(solved, ends))
    energies = energies[order]
    energies -= energies[0]
    return Eigensystem(energies=energies, blocks=blocks,
                       basis=tuple(build_basis(model.Jmax)), model=model)


# ----------------------------------------------------------------------------
# symmetry-adapted bases (classification and the fit's label blocks)
# ----------------------------------------------------------------------------

_CONJUGATE = {"A": "A", "1E": "2E", "2E": "1E", "F": "F"}  # of each T irrep


@lru_cache(maxsize=None)
def _row_basis(J: int, irrep: str, isotypic: bool = False) -> np.ndarray:
    """Orthonormal columns spanning the first-row functions of a T irrep in
    D^J, or with `isotypic` its whole isotypic component: the image of
    (d/12) sum_r conj(G(r)) D^J(r).  G is the character, except for the first
    row of F, where it is the (x, x) element of the rotation matrix; for A,
    1E and 2E both bases are the same.  The A and F projectors are real, so
    their bases are too."""
    _, dim, chars = symmetry.character_table("T").irrep(irrep)
    first_row_of_f = irrep == "F" and not isotypic
    P = sum(np.conj(symmetry.rotation_matrix(axis, angle)[0, 0] if first_row_of_f else chars[cls])
            * wigner_d_matrix(J, axis, angle) for axis, angle, cls in T_ROTATIONS)
    P = P * dim / len(T_ROTATIONS)
    if irrep in ("A", "F"):
        P = P.real
    w, v = np.linalg.eigh(P)  # a projector: eigenvalues 0 or 1
    basis = v[:, w > 0.5]
    basis.setflags(write=False)
    return basis


def _first_row_bases(J: int, constituent: str) -> tuple[np.ndarray, np.ndarray]:
    """(k-side, m-side) orthonormal columns of the first-row block of the
    product irrep `constituent` = s.m in the J manifold: conj(row basis of
    conj(m)) on k, since molecular rotations act on k through conj(D^J), and
    the row basis of s on m.  The block is kron(k-side, m-side) in the k-major
    order of build_basis; it holds one state per copy of s.m."""
    site, mol = constituent.split(".")
    return _row_basis(J, _CONJUGATE[mol]).conj(), _row_basis(J, site)


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyLevel:
    """Labeled eigenlevel; `vectors` spans the cluster in basis order."""

    energy: float
    degeneracy: int
    rovib_label: str
    spin_species: str | None
    ordinal: int
    flagged: bool = False
    vectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"({self.rovib_label}){self.ordinal}"


def _cluster_slices(energies: np.ndarray, tol: float) -> list[tuple[int, int]]:
    out, start = [], 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > tol:
            out.append((start, i))
            start = i
    return out


#: the 16 product irreps "site.mol" with their dimensions, in TxT table order
_CONSTITUENTS = tuple((label, dim) for label, dim, _ in symmetry.character_table("TxT").irreps)
_CONSTITUENT_INDEX = {label: c for c, (label, _) in enumerate(_CONSTITUENTS)}


def _isotypic_coefficients(vectors: np.ndarray, J: int):
    """(c, A) for each product irrep c of _CONSTITUENTS: A[:, i] holds the
    coefficients of the J part of column i on the isotypic block of c,
    kron(conj(K), M) with K = _row_basis(J, conj(mol), True) and M =
    _row_basis(J, site, True).  |A[:, i]|^2 is the weight of column i on c,
    and A^H A the Gram matrix of the columns' projections onto c.  The k side
    is applied once per molecular irrep."""
    d = 2 * J + 1
    start = J * (2 * J - 1) * (2 * J + 1) // 3  # sum of (2J'+1)^2 over J' < J
    Vj = vectors[start:start + d * d].reshape(d, d, -1)
    for mol, conj_mol in _CONJUGATE.items():
        kpart = np.tensordot(_row_basis(J, conj_mol, True), Vj, axes=(0, 0))
        for site in _CONJUGATE:
            coeff = np.tensordot(_row_basis(J, site, True).conj(), kpart, axes=(0, 1))
            yield _CONSTITUENT_INDEX[f"{site}.{mol}"], coeff.reshape(-1, Vj.shape[2])


#: columns whose content is counted at a time; bounds the coefficient arrays
_COUNT_CHUNK = 256


def classify_levels(system: Eigensystem, max_energy: float | None = None) -> list[EnergyLevel]:
    """Assign product-group labels and spin species to degenerate clusters.

    One pass over the isotypic blocks of the 16 product irreps
    (_isotypic_coefficients) labels and splits every cluster.  A cluster's
    content of irrep c is its columns' weight on c over the dimension of c;
    it is unresolved (`?`) unless every count is integral.  The isotypic
    blocks partition each J manifold, so the counts times the irrep
    dimensions always sum to the cluster size.  Only the clusters up to
    `max_energy` get dense eigenvector columns.  Energy clusters holding
    several labels (the model's site/molecule exchange symmetry makes some
    pairs exactly degenerate) are split into one level per label: the
    eigenvectors of eigenvalue 1 of the real part of the label's Gram matrix
    in the cluster basis.  A level is flagged when its label occurs more than
    once within one cluster (basis choice then arbitrary) or when its content
    is unresolved.
    """
    jmax = system.model.Jmax
    span = system.energies[-1] - system.energies[0] or 1.0
    slices = [(a, b) for a, b in _cluster_slices(system.energies, 1e-6 * span)
              if max_energy is None or system.energies[a] <= max_energy]
    dims = np.array([dim for _, dim in _CONSTITUENTS])
    columns = system.columns(0, slices[-1][1] if slices else 0)
    weights = np.zeros((len(_CONSTITUENTS), columns.shape[1]))
    for lo in range(0, columns.shape[1], _COUNT_CHUNK):
        chunk = slice(lo, lo + _COUNT_CHUNK)
        for J in range(jmax + 1):
            for c, coeff in _isotypic_coefficients(columns[:, chunk], J):
                weights[c, chunk] += np.sum(np.abs(coeff) ** 2, axis=0) / dims[c]
    raw_levels = []
    for a, b in slices:
        vecs = columns[:, a:b]
        energy = float(system.energies[a:b].mean())
        copies = weights[:, a:b].sum(axis=1)
        mults = np.rint(copies)
        if np.abs(copies - mults).max() > 1e-6:
            raw_levels.append((energy, "?", None, b - a, True, vecs))
            continue
        by_label: dict[str, int] = {}
        consistent = True
        for (irrep, _), mult in zip(_CONSTITUENTS, mults.astype(int).tolist()):
            if not mult:
                continue
            name = symmetry.CONSTITUENT_TO_LABEL[irrep]
            prev = by_label.setdefault(name, mult)
            if prev != mult:
                consistent = False
        if not consistent:
            raw_levels.append((energy, "?", None, b - a, True, vecs))
            continue
        if len(by_label) == 1:
            name, mult = next(iter(by_label.items()))
            lab = LEVEL_LABELS[name]
            raw_levels.append((energy, name, lab.spin, b - a, mult > 1, vecs))
            continue
        grams = dict.fromkeys(by_label, 0.0)
        for J in range(jmax + 1):
            for c, coeff in _isotypic_coefficients(vecs, J):
                name = symmetry.CONSTITUENT_TO_LABEL[_CONSTITUENTS[c][0]]
                if name in grams:
                    grams[name] += coeff.conj().T @ coeff
        subs = []
        for name in sorted(by_label):
            w, u = np.linalg.eigh(grams[name].real)  # a projector: eigenvalues 0 or 1
            subs.append((name, vecs @ u[:, w > 0.5]))
        ends = np.cumsum([sub.shape[1] for _, sub in subs])
        if ends[-1] == b - a:  # the levels fill the cluster: write them over its columns
            for (_, sub), end in zip(subs, ends):
                vecs[:, end - sub.shape[1]:end] = sub
            subs = [(name, vecs[:, end - sub.shape[1]:end]) for (name, sub), end in zip(subs, ends)]
        for name, sub in subs:
            lab = LEVEL_LABELS[name]
            mult = by_label[name]
            if sub.shape[1] != mult * lab.dimension:
                raw_levels.append((energy, "?", None, sub.shape[1], True, sub))
                continue
            raw_levels.append((energy, name, lab.spin, sub.shape[1], mult > 1, sub))
    raw_levels.sort(key=lambda r: (r[0], r[1]))
    counts: dict[str, int] = {}
    levels = []
    for energy, name, spin, deg, flagged, vecs in raw_levels:
        counts[name] = counts.get(name, 0) + 1
        levels.append(EnergyLevel(
            energy=energy, degeneracy=deg, rovib_label=name, spin_species=spin,
            ordinal=counts[name], flagged=flagged, vectors=vecs,
        ))
    return levels


def find_level(levels, label: str, ordinal: int = 1) -> EnergyLevel:
    for lev in levels:
        if lev.rovib_label == label and lev.ordinal == ordinal:
            return lev
    raise RotorError(f"no level ({label}){ordinal} in the classified set")


def tunneling_frequencies(levels) -> tuple[float, float]:
    """(omega_LA, omega_LE2): the A1(1)-L1(1) and L1(1)-E2(1) gaps in cm^-1."""
    a1 = find_level(levels, "A1", 1)
    l1 = find_level(levels, "L1", 1)
    e2 = find_level(levels, "E2", 1)
    return l1.energy - a1.energy, e2.energy - l1.energy


def barrier_height(model: RotorModel) -> float:
    """beta*B*(max V - min V); the normalization makes this beta*B."""
    model.require_valid()
    vmin, vmax = potential_range(model.potential)
    return model.beta * model.B * (vmax - vmin)


# ----------------------------------------------------------------------------
# rank-l transition operator matrices (for line strengths)
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4)
def rank_operator_blocks(jmax: int, rank: int):
    """Sparse matrices of D^rank_{mu nu} over the basis, keyed (mu, nu); each
    entry is Fnu * (s * Fmu), as scipy.sparse.kron(F[nu], s * F[mu]) gives."""
    n = len(build_basis(jmax))
    mats = {}
    for mu in range(-rank, rank + 1):
        for nu in range(-rank, rank + 1):
            rows, cols, vals = zip(*((r, c, fnu * (s * fmu)) for r, c, fnu, fmu, s
                                     in _nonzero_elements(jmax, rank, mu, nu)))
            mats[(mu, nu)] = scipy.sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return mats


def transition_strength(lower: EnergyLevel, uppers, jmax: int, rank: int) -> list[float]:
    """Squared rank-`rank` orientational transition moment from `lower` to
    each level of `uppers`, summed over all cluster states and tensor
    components.  Each component's image of lower.vectors is formed once."""
    if lower.vectors is None or any(up.vectors is None for up in uppers):
        raise RotorError("levels must carry eigenvectors for strength evaluation")
    images = [M @ lower.vectors for M in rank_operator_blocks(jmax, rank).values()]
    strengths = []
    for up in uppers:
        total = 0.0
        for image in images:
            X = up.vectors.T @ image
            total += float(np.sum(X * X))
        strengths.append(total)
    return strengths


# ----------------------------------------------------------------------------
# fast eigenvalue path for fitting
# ----------------------------------------------------------------------------

#: entries kept by each per-beta cache; a four-band fit revisits almost every
#: repeated beta within the last few dozen distinct ones
PER_BETA_CACHE_SIZE = 64


class PerBetaCache(OrderedDict):
    """Least-recently-used map holding at most PER_BETA_CACHE_SIZE entries."""

    def fetch(self, key, compute):
        """Cached value for `key`, from `compute()` on a miss."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = compute()
        if len(self) > PER_BETA_CACHE_SIZE:
            self.popitem(last=False)
        return value


def _label_block(jmax: int, potential: tuple, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal of K_b, V_b): P^2 and V in units of B on the symmetry-adapted
    block of a level symbol, whose J part is kron(K_J, M_J) =
    kron(*_first_row_bases(J, first constituent)), columns ascending in J.  It
    holds one state per level of the symbol and is real for A1, A3, L2 and L1.
    Sizes at Jmax 10: A1 17, L1 110, A3/L2 38, E4/I1I2 36, E2/E3 14, A2/E1 12.
    V_b's (J', J) part is the sum over terms and nonzero c_{mu nu} of weight *
    c * sqrt((2J'+1)(2J+1)) * kron(K_J'^H F[nu] K_J, M_J'^H F[mu] M_J)."""
    bases = [_first_row_bases(J, LEVEL_LABELS[name].constituents[0]) for J in range(jmax + 1)]
    sizes = [k.shape[1] * m.shape[1] for k, m in bases]
    ends = np.cumsum(sizes)
    at = [slice(end - size, end) for end, size in zip(ends, sizes)]
    vblock = np.zeros((ends[-1],) * 2, dtype=np.result_type(*(b for pair in bases for b in pair)))
    for rank, weight in potential:
        cmat = invariant_coefficients(rank)
        for J2, (k2, m2) in enumerate(bases):
            for J in range(max(0, J2 - rank), min(jmax, J2 + rank) + 1):
                (k, m), F = bases[J], _three_j_factors(J2, J, rank)
                part = sum(cmat[i, j] * np.kron(k2.conj().T @ F[j] @ k, m2.conj().T @ F[i] @ m)
                           for i, j in zip(*np.nonzero(cmat)))
                vblock[at[J2], at[J]] += weight * math.sqrt((2 * J2 + 1) * (2 * J + 1)) * part
    return np.repeat([float(J * (J + 1)) for J in range(jmax + 1)], sizes), vblock


class LevelGapCache:
    """Level energies of P^2 + beta*V in units of B by level symbol, for the
    fitting objective.  A label's block (K_b, V_b) is projected when the
    label is first asked for; its ascending eigenvalues are the energies of
    (label)1, (label)2, ...  energies() keeps them for the last
    PER_BETA_CACHE_SIZE betas; gap() is (L1)1 - (A1)1."""

    def __init__(self, potential=DEFAULT_POTENTIAL, jmax: int = DEFAULT_JMAX):
        self.potential = tuple(potential)
        self.jmax = jmax
        self._blocks = {}
        self._cache = PerBetaCache()

    def eigenvalues(self, beta: float, label: str) -> np.ndarray:
        """Ascending energies of every `label` level, in units of B; uncached."""
        if label not in self._blocks:
            self._blocks[label] = _label_block(self.jmax, self.potential, label)
        kdiag, vblock = self._blocks[label]
        return scipy.linalg.eigvalsh(np.diag(kdiag) + beta * vblock)

    def energies(self, beta: float, label: str) -> np.ndarray:
        """eigenvalues(beta, label), solved once per beta and label."""
        solved = self._cache.fetch(round(float(beta), 12), dict)
        if label not in solved:
            solved[label] = self.eigenvalues(beta, label)
        return solved[label]

    def gap(self, beta: float) -> float:
        """First orientation gap (A1 ground to L1 manifold) in units of B."""
        return float(self.energies(beta, "L1")[0] - self.energies(beta, "A1")[0])
