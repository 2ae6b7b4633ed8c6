"""Hindered-rotor eigenproblem for a tetrahedral molecule at a tetrahedral
crystal site.

The Hamiltonian is H = B*P^2 + beta*B*V(omega) in a symmetric-top basis
|J k m>, k the molecule-frame and m the lattice-frame projection.  V(omega)
is built from rotation-matrix invariants of the proper tetrahedral rotation
group acting simultaneously on both frames; rank 3 is the leading term when
neither group contains inversion, with an optional rank-4 admixture.  The
coefficient tensor of each rank is the (unique) two-sided group average of
D^l, written in closed form as outer(t, t) for the invariant vector t
(invariant_coefficients), so invariance under all 144 site x molecule
rotations holds by construction, the matrix is real symmetric, and c is
symmetric to the bit.

Potential normalization fixes max V - min V = 1 over orientation space, so
the barrier height is exactly beta*B.  normalize_potential returns a
NormalizedPotential, the only potential the solvers accept, so the unit range
is an invariant of the type and is never rescanned.  A one-term potential
w*V_r spans |w| times the recorded range of V_r (_UNIT_SPAN) and needs no
scan; a mixed one is scanned once.
With the default negative rank-3 coefficient the potential minima sit at the
aligned orientations (molecular tetrahedron coincident with the site
tetrahedron); the aligned-frame value is then the global minimum and the
quarter-turn about a coordinate axis gives the global maximum.

The basis layout (J ascending, then k, then m) is written once, in
_basis_size and the J/k/m arrays of _basis_layout; the solves read those,
and only build_basis makes BasisState objects.

The potential and the rank-1/rank-2 transition operators share one table
of 3j factors per (J', J, rank); it alone fixes the index and phase
convention of <J'k'm'|D^l_{mu nu}|J k m> and is the only caller of wigner3j.
V and the operators are assembled from the nonzero 3j products only.
rank_operator_blocks builds each rank's operators once, one CSR matrix per
mu with the D_{mu nu} stacked over nu, so a lower level takes one sparse
product per mu in transition_strength, and each final projects that mu's
images in one batched matmul; the stack keeps each row's entries in order
and the batch makes one BLAS call per image on the same operands, so the
strengths are those of one product per component, bit for bit.
V conserves the parity of k and of m, so it is kept as the nonzero entries
of its four parity blocks (0.4% of their entries at Jmax 14), and diagonalize
builds and solves H one block at a time.  Every c being symmetric to the
bit, block 2's V is bit for bit the site-molecule exchange image of block
1's for every potential, so block 2 takes block 1's solve with its rows
permuted (_exchange_mirror, a permutation of the layout alone).  Given a
cut in energy, each block keeps only the eigenvectors of the clusters
classify_levels labels below it, and dense n-row columns are written only
for those, so the spectrum path holds no n x n array and one block's full
eigenvectors at a time.  Until perfbench/ref is re-recorded these kernels
must stay bit-identical to the dense/Kronecker definitions (a dense H cut
into parity blocks included, the mirrored block's solve aside) that
tests/reference.py keeps.  The fit's
label blocks are written from the same 3j factors per J, with no n-sized
array.  scipy is imported where it is called, for the CSR operators only.
Every rotation matrix, the range scan's included, comes from numpy's eigh
(_rotation_d), so levels and the position fit load no scipy and spectrum
only scipy.sparse, whatever the potential.

Both label mechanisms rest on one projector per (J, T irrep), _row_basis,
cached with its first-row or its whole isotypic image (site rotations act on
m, molecular rotations on k).  classify_levels takes each eigencluster's
coefficients on the isotypic blocks of the 16 product irreps in one pass:
their squared norms count the cluster's content, and for a cluster holding
several labels their Gram matrix per label splits it, the split projecting
onto those labels' irreps only.  The levels get the cluster labels of
symmetry.LEVEL_LABELS together with their nuclear-spin species; spectrum
and the envelope fit use them, as line strengths need the vectors.  The
level table and the position fit need energies only: LevelGapCache solves
one first-row block per level symbol (_first_row_bases), whose eigenvalues
are the energies of that symbol's levels in order, one block for each
site-molecule exchange pair, and their beta slopes once for a fit's
identifiability.  Its level table has no cluster tolerance: a label that
occurs twice at one energy is two levels with consecutive ordinals.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import symmetry, units
from .lsq import least_squares
from .symmetry import LEVEL_LABELS, T_ROTATIONS

if TYPE_CHECKING:
    import scipy.sparse

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
    "NormalizedPotential",
    "normalize_potential",
    "estimated_peak_bytes",
    "hamiltonian_matrix",
    "diagonalize",
    "classify_levels",
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


def _basis_size(jmax: int) -> int:
    """Basis states with J <= jmax, sum_J (2J+1)^2; 0 for jmax = -1, so
    _basis_size(J - 1) is the first row of the J manifold."""
    return (jmax + 1) * (2 * jmax + 1) * (2 * jmax + 3) // 3


def _basis_layout(jmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J, k and m of every basis state: J ascending, then k, then m."""
    J = np.repeat(np.arange(jmax + 1), (2 * np.arange(jmax + 1) + 1) ** 2)
    k, m = np.divmod(np.arange(len(J)) - _basis_size(J - 1), 2 * J + 1)
    return J, k - J, m - J


def build_basis(jmax: int) -> list[BasisState]:
    """All |J k m> with J <= jmax, in the order of _basis_layout."""
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    return [BasisState(*state) for state in zip(*(a.tolist() for a in _basis_layout(jmax)))]


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

    Half the entries are computed: negating every m multiplies a 3j symbol
    by (-1)^(J2+rank+J), and in wigner3j's Racah sum it maps each term to
    one of equal size, so F[-mu, -m2, -m] is that sign times F[mu, m2, m]
    to the bit.  A zero keeps its sign, as wigner3j gives the same zero.
    """
    F = np.zeros((2 * rank + 1, 2 * J2 + 1, 2 * J + 1))
    sign = -1.0 if (J2 + rank + J) % 2 else 1.0
    for mu in range(rank + 1):
        for m2 in range(-J2 if mu else 0, J2 + 1):
            m = m2 + mu
            if abs(m) <= J:
                f = (-1.0) ** m * wigner3j(J2, rank, J, m2, mu, -m)
                F[mu + rank, m2 + J2, m + J] = f
                F[rank - mu, J2 - m2, J - m] = sign * f if f else f
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


def _generator(j: int, axis: tuple) -> np.ndarray:
    """n.J for the unit vector n along `axis`; 0 for a zero axis."""
    jx, jy, jz = _angular_momentum(j)
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm > 0:
        n = n / norm
    return n[0] * jx + n[1] * jy + n[2] * jz


def _rotation_d(j: int, axis: tuple, angle: float) -> np.ndarray:
    """exp(-i angle n.J) from the eigenvectors of n.J, whose eigenvalues are
    exactly -j..j, so each phase is exact: within 7.7e-15 of expm up to
    j = 30 over T_ROTATIONS."""
    w, v = np.linalg.eigh(_generator(j, axis))
    return (v * np.exp(-1j * angle * np.rint(w))) @ v.conj().T


@lru_cache(maxsize=None)
def _wigner_d_cached(j: int, axis: tuple, angle: float) -> np.ndarray:
    D = _rotation_d(j, axis, angle)
    D.setflags(write=False)
    return D


def wigner_d_matrix(j: int, axis, angle: float) -> np.ndarray:
    """D^j for the active rotation by `angle` about `axis`, rows/cols ordered
    m = -j..j (_rotation_d)."""
    return _wigner_d_cached(j, tuple(axis), float(angle))


# ----------------------------------------------------------------------------
# invariant potential coefficients
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def invariant_coefficients(rank: int) -> np.ndarray:
    """Real symmetric coefficient matrix c of the unique two-sided tetrahedral
    invariant at the given rank: V(omega) = sum_{mu nu} c_{mu nu} D^rank_{mu nu}.

    c is the complex conjugate of the group-average projector onto the
    invariant vector t, outer(t, t) with t.t = 1 so that V(identity) = 1:
    t_{+-2} = +-sqrt(1/2) at rank 3, whose entries +-0.5 are written exactly
    (every output on the shipped potential rests on them), and t_0 =
    sqrt(7/12), t_{+-4} = sqrt(5/24) at rank 4.  Either way c equals its
    transpose to the bit, which _exchange_mirror rests on.
    """
    if rank not in SUPPORTED_RANKS:
        raise PotentialError(f"unsupported potential rank {rank}; use {SUPPORTED_RANKS}")
    if rank == 3:
        c = np.zeros((7, 7))
        c[np.ix_([1, 5], [1, 5])] = [[0.5, -0.5], [-0.5, 0.5]]
    else:
        t = np.zeros(9)
        t[[0, 4, 8]] = math.sqrt(5 / 24), math.sqrt(7 / 12), math.sqrt(5 / 24)
        c = np.outer(t, t)
    c.setflags(write=False)
    return c


def _little_d(rank: int, beta: float) -> np.ndarray:
    """Real d^rank(beta), uncached: the range scan visits a new angle on
    nearly every evaluation, and each process scans at most once."""
    return _rotation_d(rank, (0.0, 1.0, 0.0), beta).real


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
        dstack = np.array([_little_d(rank, float(b)) for b in betas])
        ms = np.arange(-rank, rank + 1)
        for i, mu in enumerate(ms):
            for j_, nu in enumerate(ms):
                if c[i, j_] == 0.0:
                    continue
                phase = np.cos(A * mu + G * nu)  # V real: sine parts cancel
                values += weight * c[i, j_] * dstack[:, i, j_][:, None, None] * phase
    return values, (alphas, betas, gammas)


def _potential_at(potential, angles: np.ndarray) -> tuple[float, np.ndarray]:
    """V and (dV/dalpha, dV/dbeta, dV/dgamma) at the Euler angles `angles`:
    the alpha and gamma derivatives from the phases, the beta one from
    d d^l(beta)/dbeta = d^l(beta) (-i J_y), J_y and d^l(beta) commuting."""
    a, b, g = angles
    v, grad = 0.0, np.zeros(3)
    for rank, weight in potential:
        c = invariant_coefficients(rank)
        d = _little_d(rank, float(b))
        ms = np.arange(-rank, rank + 1)
        arg = np.add.outer(ms * a, ms * g)
        v += weight * float(np.sum(c * d * np.cos(arg)))
        cd_sin = weight * c * d * np.sin(arg)
        slope = d @ (-1j * _angular_momentum(rank)[1]).real
        grad += (-np.sum(ms[:, None] * cd_sin), np.sum(weight * c * slope * np.cos(arg)),
                 -np.sum(ms[None, :] * cd_sin))
    return v, grad


@lru_cache(maxsize=64)
def potential_range(potential: tuple) -> tuple[float, float]:
    """(min, max) of V over orientations for the (rank, weight) tuple
    `potential`: a grid scan, then lsq.least_squares on the gradient of V
    from the lowest and from the highest grid point."""
    values, (alphas, betas, gammas) = _potential_on_grid(potential)

    def refine(idx):
        x0 = np.array([alphas[idx[1]], betas[idx[0]], gammas[idx[2]]])
        res = least_squares(lambda x: _potential_at(potential, x)[1], x0,
                            np.full(3, -math.inf), np.full(3, math.inf), maxiter=100)
        return _potential_at(potential, res.x)[0]

    vmin = min(values.min(), refine(np.unravel_index(np.argmin(values), values.shape)))
    vmax = max(values.max(), refine(np.unravel_index(np.argmax(values), values.shape)))
    return float(vmin), float(vmax)


class NormalizedPotential(tuple):
    """(rank, weight) terms scaled so that max V - min V = 1 over orientations.

    normalize_potential builds one (DEFAULT_POTENTIAL is its output for
    3:-1.0), and the solvers accept no other potential, so the unit range is
    an invariant of the type and is never scanned again.  A tuple, it equals,
    hashes and serializes as its terms."""

    __slots__ = ()


#: max V - min V of the rank-r invariant at weight 1 as an earlier scan found
#: it, 2 + 3 ulp and 40/27 + 2 ulp (numpy's scan finds 2 + 3 ulp and exactly
#: 40/27); every output rests on these bits.  w * V_r spans |w| times as
#: much: no scan
_UNIT_SPAN = {3: 2.0000000000000013, 4: 1.4814814814814818}


def normalize_potential(potential) -> NormalizedPotential:
    """Rescale coefficients so that max V - min V = 1; a NormalizedPotential
    is returned as it is.  A one-term potential (r, w) scales to
    (r, sign(w) / _UNIT_SPAN[r]); only a mixed one is scanned."""
    if isinstance(potential, NormalizedPotential):
        return potential
    pot = tuple((int(r), float(w)) for r, w in potential)
    if len(pot) == 1 and pot[0][0] in _UNIT_SPAN:
        (rank, weight), = pot
        span = abs(weight) * _UNIT_SPAN[rank]
        pot, scale = ((rank, math.copysign(1.0, weight)),), _UNIT_SPAN[rank]
    else:
        vmin, vmax = potential_range(pot)
        span = scale = vmax - vmin
    if not math.isfinite(span):
        raise PotentialError(f"potential range is {span}; use smaller coefficients")
    if span <= 1e-12:
        raise PotentialError("potential is constant; cannot normalize to unit range")
    return NormalizedPotential((r, w / scale) for r, w in pot)


#: normalize_potential(((3, -1.0),)), the rank-3 invariant with its minima
#: aligned
DEFAULT_POTENTIAL = NormalizedPotential(((3, -1.0 / _UNIT_SPAN[3]),))


def estimated_peak_bytes(jmax: int) -> float:
    """Estimated peak RSS of a `spectrum` run at `jmax`, in bytes, for the
    basis size n: 100 MB + 3.2 n^2 (one parity block's H, its solve's copy,
    eigenvectors and workspace, about n^2 / 16 entries each; V is kept as
    its nonzeros and the other blocks as their columns up to --max-energy),
    rounded up from the fit 73 MB + 2.8 n^2 to the peaks measured at Jmax 10,
    14 and 16 (n = 1771, 4495 and 6545) at one and two BLAS threads while
    scipy loaded before the solves: 79.1, 129.7 and 192.9 MB (89.5, 195.1
    and 330.9 MB with V's dense blocks and every block's eigenvectors kept).
    Since scipy loaded after them, at classification, the peaks were 79.6,
    100.0 and 164.3 MB, and with no scipy.linalg loaded they are 70.2, 100.0
    and 163.6 MB.  `fit --starts 1 --max-iter 20` loads no scipy,
    holds no n x n array and peaks at 42.7, 48.5 and 54.5 MB."""
    n = _basis_size(jmax)
    return 100e6 + 3.2 * float(n) ** 2 if n < 1e150 else math.inf


# ----------------------------------------------------------------------------
# model
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RotorModel:
    """Physical parameters of H = B*P^2 + beta*B*V(omega).

    `potential` holds (rank, coefficient) pairs.  A model is solved only
    with a NormalizedPotential; RotorModel.create normalizes raw
    coefficients, such as a config's, and validate() scans only those.
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
        if not 0 < self.B < math.inf:
            problems.append(("B", f"B must be positive and finite, got {self.B}"))
        if not math.isfinite(self.beta):
            problems.append(("beta", f"beta must be finite, got {self.beta}"))
        elif self.beta < 0:
            problems.append(("beta", f"beta must be non-negative, got {self.beta}; "
                                     "flip the potential sign instead"))
        need = estimated_peak_bytes(self.Jmax)
        if self.Jmax < 2:
            problems.append(("Jmax", f"Jmax must be >= 2, got {self.Jmax}"))
        elif need > _PHYSICAL_MEMORY:
            problems.append(("Jmax", f"Jmax {self.Jmax} needs about {need / 1e9:.3g} GB, more than "
                                     f"the {_PHYSICAL_MEMORY / 1e9:.3g} GB of physical memory"))
        if not problems:
            # |V| <= 1 (unit range about a zero mean), so no H entry or level
            # energy exceeds B * (Jmax(Jmax+1) + 2 beta)
            top = units.MAX_CM1 / (self.Jmax * (self.Jmax + 1) + 2 * self.beta)
            if self.B > top:
                problems.append(("B", f"B must be at most {top:.6g} cm-1 at Jmax {self.Jmax} and "
                                      f"beta {self.beta:g}, else level energies can exceed "
                                      f"{units.MAX_CM1:g} cm-1 and overflow; got {self.B}"))
        ranks = [rank for rank, _ in self.potential if rank not in SUPPORTED_RANKS]
        if not self.potential:
            problems.append(("potential", "potential must contain at least one term"))
        elif ranks:
            problems += [("potential", f"unsupported potential rank {rank}") for rank in ranks]
        elif not isinstance(self.potential, NormalizedPotential):  # constant or non-finite
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

@lru_cache(maxsize=None)
def _factor_nonzeros(J2: int, J: int, rank: int, component: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the nonzero entries of
    _three_j_factors(J2, J, rank)[component + rank], row-major; read-only."""
    F = _three_j_factors(J2, J, rank)[component + rank]
    rows, cols = np.nonzero(F)
    parts = (rows, cols, F[rows, cols])
    for part in parts:
        part.setflags(write=False)
    return parts


def _nonzero_elements(jmax: int, rank: int, mu: int, nu: int):
    """Nonzero <J2 k2 m2|D^rank_{mu nu}|J k m> = s * F[nu][k2, k] * F[mu][m2, m]
    per coupled (J2, J) block: (rows, cols, F[nu] factors, F[mu] factors, s).
    By the 3j rule m = m2 + mu each row has at most one; states are ordered
    k-major within a J block, so rows and cols index kron(F[nu], F[mu])."""
    for J2 in range(jmax + 1):
        for J in range(max(0, J2 - rank), min(jmax, J2 + rank) + 1):
            ra, ca, fnu = _factor_nonzeros(J2, J, rank, nu)
            rb, cb, fmu = _factor_nonzeros(J2, J, rank, mu)
            yield ((_basis_size(J2 - 1) + ra[:, None] * (2 * J2 + 1) + rb).ravel(),
                   (_basis_size(J - 1) + ca[:, None] * (2 * J + 1) + cb).ravel(),
                   np.repeat(fnu, len(rb)), np.tile(fmu, len(ra)),
                   math.sqrt((2 * J2 + 1) * (2 * J + 1)))


def _parity_blocks(jmax: int) -> list[np.ndarray]:
    """Ascending basis indices of the four (k, m) parity blocks."""
    _, k, m = _basis_layout(jmax)
    return [np.where((k % 2 == kp) & (m % 2 == mp))[0] for kp in (0, 1) for mp in (0, 1)]


@lru_cache(maxsize=8)
def _potential_blocks(jmax: int, potential: tuple) -> tuple[tuple[np.ndarray, ...], ...]:
    """(basis indices, rows, cols, values) for each parity block of V, the sum
    of weight * c_{mu nu} D^rank_{mu nu} over terms and components: the
    block's nonzero entries, at block-local rows and cols in row-major order.
    By the 3j rules k = k2 + nu and m = m2 + mu, and every nonzero c has even
    mu and nu, so V couples no two blocks.  An entry gets one component per
    rank, weight * (s * (cc * (Fnu * Fmu))), added to 0.0 in term order: the
    value the dense sum of scaled kron(F[nu], F[mu]) blocks rounds to.  At
    Jmax 14, 79,312 of the blocks' 5.05 M entries are nonzero."""
    blocks = _parity_blocks(jmax)
    sizes = np.array([len(idx) for idx in blocks])
    ends = np.cumsum(sizes ** 2)
    # the blocks lie one after another in a row-major key space: basis state i
    # has block-local index local[i] and its block row starts at row_start[i]
    local = np.empty(_basis_size(jmax), dtype=np.intp)
    row_start = np.empty_like(local)
    for idx, end in zip(blocks, ends):
        local[idx] = np.arange(len(idx))
        row_start[idx] = end - len(idx) ** 2 + local[idx] * len(idx)
    written = []
    for rank, weight in potential:
        cmat = invariant_coefficients(rank)
        for i, j in zip(*np.nonzero(cmat)):
            if (i - rank) % 2 or (j - rank) % 2:
                raise RotorError(f"the rank-{rank} potential couples parity blocks")
            for rows, cols, fnu, fmu, s in _nonzero_elements(jmax, rank, i - rank, j - rank):
                written.append((row_start[rows] + local[cols],
                                weight * (s * (cmat[i, j] * (fnu * fmu)))))
    # each written key gets one slot, and each term is added to it in the
    # order of the terms; no key repeats within one term
    keys, slot = np.unique(np.concatenate([at for at, _ in written]), return_inverse=True)
    values = np.zeros(len(keys))
    for part, (_, term) in zip(np.split(slot, np.cumsum([len(at) for at, _ in written])[:-1]),
                               written):
        values[part] += term
    block_of = np.searchsorted(ends, keys, side="right")
    first, size = (ends - sizes ** 2)[block_of], sizes[block_of]
    row, col = np.divmod(keys - first, size)
    # entries never written are 0 on both sides of the diagonal
    mirror_keys = first + col * size + row
    at = np.searchsorted(keys, mirror_keys).clip(max=len(keys) - 1)
    mirror = np.where(keys[at] == mirror_keys, values[at], 0.0)
    asym = np.abs(values - mirror).max()
    if asym > 1e-12:
        raise RotorError(f"potential matrix asymmetry {asym:.2e} exceeds 1e-12")
    out = []
    for b, idx in enumerate(blocks):
        keep = (block_of == b) & (values != 0.0)
        parts = (row[keep], col[keep], values[keep])
        for part in parts:
            part.setflags(write=False)
        out.append((idx, *parts))
    return tuple(out)


@lru_cache(maxsize=8)
def _exchange_mirror(jmax: int) -> np.ndarray:
    """perm with V_2[i, j] = V_1[perm[i], perm[j]] for parity blocks 2 (k odd,
    m even) and 1 (k even, m odd): perm[i] is the block-1 row of (J, m, k)
    for block 2's i-th state (J, k, m).  The site-molecule exchange maps
    block 2 onto block 1, and since every c is symmetric to the bit and each
    entry of V holds one (mu, nu) component per rank, V_2 is V_1 permuted
    entry for entry, bit for bit, for every potential.  The kinetic diagonal
    depends on J alone, so H_2 is H_1 with rows and columns permuted: H_1's
    eigenvalues are H_2's, and rows perm of its eigenvectors are H_2's."""
    J, k, m = _basis_layout(jmax)
    exchanged = _basis_size(J - 1) + (m + J) * (2 * J + 1) + (k + J)
    _, block1, block2, _ = _parity_blocks(jmax)
    local = np.empty(len(J), dtype=np.intp)
    local[block1] = np.arange(len(block1))
    perm = local[exchanged[block2]]
    perm.setflags(write=False)
    return perm


def _kinetic_diagonal(jmax: int) -> np.ndarray:
    J = _basis_layout(jmax)[0]
    return (J * (J + 1)).astype(float)


def _require_normalized(potential):
    """Raise PotentialError unless `potential` is a NormalizedPotential, even
    for a plain tuple whose range happens to be 1: no scan is made here."""
    if not isinstance(potential, NormalizedPotential):
        raise PotentialError(f"potential {tuple(potential)} is not normalized, so its range "
                             "is not known to be 1 (use RotorModel.create)")


def _hamiltonian_blocks(model: RotorModel, skip_mirrored: bool = False):
    """(basis indices, H block) per parity block, in cm^-1, after checking
    the model; each block is built when it is asked for, np.diag(B * kin)
    with (beta * B) * V_b added at V_b's nonzero entries, so every entry is
    the 0.0 + (beta * B) * V_ij, or kin_i + (beta * B) * V_ii, of the dense H.
    With `skip_mirrored`, block 2, the exchange image of block 1
    (_exchange_mirror), is not built: None stands for it."""
    model.require_valid()
    _require_normalized(model.potential)
    kin = model.B * _kinetic_diagonal(model.Jmax)
    scale = model.beta * model.B

    def block(idx, rows, cols, values):
        hb = np.diag(kin[idx])
        hb[rows, cols] += scale * values
        return hb

    return ((idx, None if skip_mirrored and b == 2 else block(idx, *entries))
            for b, (idx, *entries) in enumerate(_potential_blocks(model.Jmax, model.potential)))


def hamiltonian_matrix(model: RotorModel) -> np.ndarray:
    """Dense real symmetric Hamiltonian over build_basis(model.Jmax), cm^-1."""
    blocks = _hamiltonian_blocks(model)  # checks the model first
    H = np.zeros((_basis_size(model.Jmax),) * 2)
    for idx, hb in blocks:
        H[np.ix_(idx, idx)] = hb
    return H


# ----------------------------------------------------------------------------
# diagonalization (parity blocks)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues (shifted so the ground level is 0, ascending) and the
    orthonormal eigenvectors, kept per parity block as eigh returned them
    (block 2: block 1's, rows permuted), or their leading columns:
    `blocks` holds (basis rows, column numbers in `energies` order, v) with
    each block's column numbers ascending.  The rows are the basis of
    model.Jmax in the order of _basis_layout.
    `energies` holds every eigenvalue; the blocks hold the columns
    0..kept-1, every column unless diagonalize was given a max_energy.
    columns() writes dense n-row columns for the lowest levels a caller
    needs."""

    energies: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    model: RotorModel

    @property
    def basis(self) -> tuple[BasisState, ...]:
        """The basis states of the rows, built on each call; no solve step
        reads them."""
        return tuple(build_basis(self.model.Jmax))

    def columns(self, stop: int | None = None) -> np.ndarray:
        """Eigenvector columns 0..stop-1 over the basis, zero outside their
        block; all kept columns by default.  A column past the kept ones
        raises RotorError."""
        kept = sum(len(cols) for _, cols, _ in self.blocks)
        stop = kept if stop is None else stop
        if stop > kept:
            raise RotorError(f"eigenvector columns up to {stop} were asked for, but only "
                             f"the lowest {kept} were kept (diagonalize's max_energy)")
        out = np.zeros((_basis_size(self.model.Jmax), stop))
        for rows, cols, v in self.blocks:
            hi = np.searchsorted(cols, stop)
            out[np.ix_(rows, cols[:hi])] = v[:, :hi]
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


def _span_bound(model: RotorModel) -> float:
    """An upper bound on max - min of H's eigenvalues: the kinetic diagonal's
    span plus twice beta * B times V's largest absolute row sum, which bounds
    |V|'s eigenvalues (Gershgorin)."""
    row_sum = max(np.bincount(rows, np.abs(values)).max(initial=0.0)
                  for _, rows, _, values in _potential_blocks(model.Jmax, model.potential))
    return model.B * model.Jmax * (model.Jmax + 1) + 2 * model.beta * model.B * row_sum


def _leading_columns(v: np.ndarray, stop: int) -> np.ndarray:
    """v's first `stop` columns, copied so that v can be freed; v itself when
    it has no more."""
    return v if stop >= v.shape[1] else v[:, :stop].copy()


def diagonalize(model: RotorModel, max_energy: float | None = None) -> Eigensystem:
    """Solve the eigenproblem per parity block; the potential conserves the
    parity of k and of m for every supported rank.  Each block keeps its
    eigenvectors with their energy-ordered column numbers.  Block 2, the
    site-molecule exchange image of block 1 (_exchange_mirror), is neither
    built nor solved: it takes block 1's eigenvalues and, rows permuted, its
    kept eigenvectors, so each exchange pair of levels ties exactly.

    With `max_energy`, the blocks keep only the columns of the clusters that
    classify_levels(system, max_energy) labels (_labeled_clusters).  Right
    after its solve a block drops the columns above the lowest eigenvalue
    solved so far + max_energy + (n - 1) * 1e-6 * S, S = _span_bound: a
    cluster starting at or below max_energy spans at most n - 1 gaps of 1e-6
    times the spectrum's span.  After the last solve the blocks are cut at
    the end of the last such cluster.  `energies` always holds all n."""
    blocks = _hamiltonian_blocks(model, skip_mirrored=True)  # checks the model first
    n = _basis_size(model.Jmax)
    # how far above the lowest eigenvalue so far a kept column can lie
    reach = math.inf if max_energy is None else max_energy + (n - 1) * 1e-6 * _span_bound(model)
    lowest = math.inf
    solved = []
    for idx, sub in blocks:
        if sub is None:  # block 2
            _, w, v = solved[1]
            v = v[_exchange_mirror(model.Jmax)]
        else:
            try:
                w, v = np.linalg.eigh(sub)
            except np.linalg.LinAlgError as exc:
                cond = np.linalg.cond(sub)
                raise RotorError(
                    f"eigen-solver failed on a {len(idx)}-state block "
                    f"(condition number {cond:.3e}): {exc}"
                ) from exc
        del sub  # else it stays alive beside the next block
        lowest = min(lowest, w[0])
        solved.append((idx, w, _leading_columns(v, np.searchsorted(w, lowest + reach, "right"))))
        del v
    energies = np.concatenate([w for _, w, _ in solved])
    order = np.argsort(energies, kind="stable")
    column = np.empty(len(energies), dtype=np.intp)
    column[order] = np.arange(len(energies))
    ends = np.cumsum([len(w) for _, w, _ in solved])
    energies = energies[order]
    energies -= energies[0]
    stop = n
    if max_energy is not None:
        clusters = _labeled_clusters(energies, max_energy)
        stop = clusters[-1][1] if clusters else 0
    kept = []
    for (idx, w, v), end in zip(solved, ends):
        cols = column[end - len(w):end]
        hi = np.searchsorted(cols, stop)
        if hi > v.shape[1]:
            raise RotorError(f"a {len(idx)}-state block kept {v.shape[1]} eigenvectors, "
                             f"fewer than the {hi} of its levels up to {max_energy} cm^-1")
        kept.append((idx, cols[:hi], _leading_columns(v, hi)))
    return Eigensystem(energies=energies, blocks=tuple(kept), model=model)


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
    1E and 2E both bases span the same space.  Both kinds are built from
    numpy's D (_rotation_d), so classification loads no scipy; spectrum's
    outputs on the shipped config stayed byte-identical when the isotypic
    bases moved to it from expm's D.  The A and F projectors are real, so
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
    """Labeled eigenlevel; `vectors` spans the cluster in basis order.
    `flagged` marks a label that occurs more than once in its cluster."""

    energy: float
    degeneracy: int
    rovib_label: str
    spin_species: str
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


def _labeled_clusters(energies: np.ndarray, max_energy: float | None) -> list[tuple[int, int]]:
    """The clusters (a, b) of ascending, ground-shifted `energies` that
    classify_levels labels: gaps within 1e-6 of the spectrum's span join
    levels, and each cluster starts at or below `max_energy` (None: all)."""
    span = energies[-1] - energies[0] or 1.0
    return [(a, b) for a, b in _cluster_slices(energies, 1e-6 * span)
            if max_energy is None or energies[a] <= max_energy]


#: the 16 product irreps "site.mol" with their dimensions, in TxT table order
_CONSTITUENTS = tuple((label, dim) for label, dim, _ in symmetry.character_table("TxT").irreps)
_CONSTITUENT_INDEX = {label: c for c, (label, _) in enumerate(_CONSTITUENTS)}


def _isotypic_coefficients(vectors: np.ndarray, J: int, labels=None):
    """(c, A) for each product irrep c of _CONSTITUENTS, or only for those of
    the level symbols in `labels`: A[:, i] holds the coefficients of the J
    part of column i on the isotypic block of c, kron(conj(K), M) with K =
    _row_basis(J, conj(mol), True) and M = _row_basis(J, site, True).
    |A[:, i]|^2 is the weight of column i on c, and A^H A the Gram matrix of
    the columns' projections onto c.  The k side is applied once per
    molecular irrep that has a wanted constituent."""
    d = 2 * J + 1
    start = _basis_size(J - 1)
    Vj = vectors[start:start + d * d].reshape(d, d, -1)
    for mol, conj_mol in _CONJUGATE.items():
        sites = [site for site in _CONJUGATE if labels is None
                 or symmetry.CONSTITUENT_TO_LABEL[f"{site}.{mol}"] in labels]
        if not sites:
            continue
        kpart = np.tensordot(_row_basis(J, conj_mol, True), Vj, axes=(0, 0))
        for site in sites:
            coeff = np.tensordot(_row_basis(J, site, True).conj(), kpart, axes=(0, 1))
            yield _CONSTITUENT_INDEX[f"{site}.{mol}"], coeff.reshape(-1, Vj.shape[2])


#: columns whose content is counted at a time; bounds the coefficient arrays
_COUNT_CHUNK = 256


def classify_levels(system: Eigensystem, max_energy: float | None = None) -> list[EnergyLevel]:
    """Assign product-group labels and spin species to degenerate clusters.

    One pass over the isotypic blocks of the 16 product irreps
    (_isotypic_coefficients) labels and splits every cluster.  A cluster's
    content of irrep c is its columns' weight on c over the dimension of c;
    a cluster whose counts are not whole numbers (to 1e-6) raises RotorError.
    No cluster of a diagonalize() eigensystem has one: each is a union of
    eigenspaces of H, which commutes with the group.  The isotypic blocks
    partition each J manifold, so the counts times the irrep dimensions
    always sum to the cluster size.  Only the clusters up to `max_energy`
    get dense eigenvector columns.  Energy clusters holding several labels
    (the model's site/molecule exchange symmetry makes some pairs exactly
    degenerate) are split into one level per label: the eigenvectors of
    eigenvalue 1 of the real part of the label's Gram matrix in the cluster
    basis.  A level is flagged when its label occurs more than once within
    one cluster (basis choice then arbitrary).
    """
    jmax = system.model.Jmax
    slices = _labeled_clusters(system.energies, max_energy)
    dims = np.array([dim for _, dim in _CONSTITUENTS])
    columns = system.columns(slices[-1][1] if slices else 0)
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
        deviation = np.abs(copies - mults).max()
        if deviation > 1e-6:
            raise RotorError(f"the {b - a}-state cluster at {energy:.9g} cm^-1 has non-integral "
                             f"irrep content (largest deviation {deviation:.3g})")
        # real columns weigh each irrep and its conjugate alike, so every
        # constituent of a label carries the label's multiplicity
        by_label = {symmetry.CONSTITUENT_TO_LABEL[irrep]: mult
                    for (irrep, _), mult in zip(_CONSTITUENTS, mults.astype(int).tolist()) if mult}
        if len(by_label) == 1:
            name, mult = next(iter(by_label.items()))
            raw_levels.append((energy, name, b - a, mult > 1, vecs))
            continue
        grams = dict.fromkeys(by_label, 0.0)
        for J in range(jmax + 1):
            for c, coeff in _isotypic_coefficients(vecs, J, grams):
                grams[symmetry.CONSTITUENT_TO_LABEL[_CONSTITUENTS[c][0]]] += coeff.conj().T @ coeff
        # the cluster is a union of eigenspaces, so each Gram matrix is a
        # projector of rank mult * dimension and the split levels fill the
        # cluster: they are written over its columns
        splits = [(name, *np.linalg.eigh(grams[name].real)) for name in sorted(by_label)]
        vecs[:] = np.hstack([vecs @ u[:, w > 0.5] for _, w, u in splits])
        start = 0
        for name, w, _ in splits:
            deg = int(np.count_nonzero(w > 0.5))
            raw_levels.append((energy, name, deg, by_label[name] > 1, vecs[:, start:start + deg]))
            start += deg
    raw_levels.sort(key=lambda r: (r[0], r[1]))
    counts: dict[str, int] = {}
    levels = []
    for energy, name, deg, flagged, vecs in raw_levels:
        counts[name] = counts.get(name, 0) + 1
        levels.append(EnergyLevel(
            energy=energy, degeneracy=deg, rovib_label=name, spin_species=LEVEL_LABELS[name].spin,
            ordinal=counts[name], flagged=flagged, vectors=vecs,
        ))
    return levels


def find_level(levels, label: str, ordinal: int = 1) -> EnergyLevel:
    for lev in levels:
        if lev.rovib_label == label and lev.ordinal == ordinal:
            return lev
    raise RotorError(f"no level ({label}){ordinal} in the classified set")


# ----------------------------------------------------------------------------
# rank-l transition operator matrices (for line strengths)
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4)
def rank_operator_blocks(jmax: int, rank: int) -> dict[int, scipy.sparse.csr_matrix]:
    """{mu: the D^rank_{mu nu} over the basis stacked over ascending nu}, mu
    ascending: rows i n .. (i + 1) n - 1 of a stack are the i-th nu's block.
    Each entry is Fnu * (s * Fmu), as scipy.sparse.kron(F[nu], s * F[mu])
    gives, and each row keeps its entries in column order, as its block's
    own CSR matrix does, so a product with a stack sums every output row as
    the product with that block does."""
    import scipy.sparse

    n = _basis_size(jmax)
    comps = range(-rank, rank + 1)
    stacks = {}
    for mu in comps:
        rows, cols, vals = zip(*((i * n + r, c, fnu * (s * fmu))
                                 for i, nu in enumerate(comps) for r, c, fnu, fmu, s
                                 in _nonzero_elements(jmax, rank, mu, nu)))
        stacks[mu] = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(comps) * n, n))
    return stacks


def transition_strength(lower: EnergyLevel, uppers, rank: int) -> list[float]:
    """Squared rank-`rank` orientational transition moment from `lower` to
    each level of `uppers`, summed over all cluster states and tensor
    components.  The operators are those of the Jmax whose basis has as many
    rows as the vectors.  Per mu, one sparse product forms the images of
    lower.vectors under all D_{mu nu}, and one batched product per final
    projects them; each final's total adds the components in (mu, nu) order."""
    if lower.vectors is None or any(up.vectors is None for up in uppers):
        raise RotorError("levels must carry eigenvectors for strength evaluation")
    n = lower.vectors.shape[0]
    jmax = next(j for j in itertools.count() if _basis_size(j) >= n)
    if _basis_size(jmax) != n:
        raise RotorError(f"level vectors have {n} rows, which is no basis size")
    totals = [0.0] * len(uppers)
    for row in rank_operator_blocks(jmax, rank).values():
        images = (row @ lower.vectors).reshape(2 * rank + 1, n, lower.vectors.shape[1])
        for i, up in enumerate(uppers):
            X = up.vectors.T @ images
            for part in np.sum(X * X, axis=(1, 2)).tolist():
                totals[i] += part
        del images  # else the next row's images would be formed beside these
    return totals


# ----------------------------------------------------------------------------
# fast eigenvalue path for fitting
# ----------------------------------------------------------------------------

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
    fitting objective and the level table.  A label's block (K_b, V_b) is
    projected when the label is first asked for; its ascending eigenvalues
    are the energies of (label)1, (label)2, ...  The site-molecule exchange
    |J k m> -> |J m k> commutes with H, each c being symmetric, and maps the
    blocks of A2, A3 and E4 onto those of E1, L2 and I1I2, so each pair reads
    one block and one solve (_EXCHANGED) and its energies tie exactly.
    energies() keeps those of the last two betas, a solver iterate's and its
    beta difference's.  gap() is (L1)1 - (A1)1."""

    #: level symbol -> its exchange partner, whose block and solve it reads
    _EXCHANGED = {"E1": "A2", "L2": "A3", "I1I2": "E4"}

    def __init__(self, potential=DEFAULT_POTENTIAL, jmax: int = DEFAULT_JMAX):
        _require_normalized(potential)
        self.potential = potential
        self.jmax = jmax
        self._blocks = cache(lambda label: _label_block(jmax, potential, label))
        # eigenvalues is looked up at each miss, so a patch on the class sees the solves
        self._solved = lru_cache(maxsize=2 * (len(LEVEL_LABELS) - len(self._EXCHANGED)))(
            lambda beta, label: self.eigenvalues(beta, label))

    def _block(self, label: str):
        return self._blocks(self._EXCHANGED.get(label, label))

    def eigenvalues(self, beta: float, label: str) -> np.ndarray:
        """Ascending energies of every `label` level, in units of B; uncached."""
        kdiag, vblock = self._block(label)
        return np.linalg.eigvalsh(np.diag(kdiag) + beta * vblock)

    def slopes(self, beta: float, label: str) -> np.ndarray:
        """d eigenvalues(beta, label) / d beta; uncached.  By Hellmann-Feynman
        (Feynman, Phys. Rev. 56:340, 1939) each slope is u^H V_b u for the
        level's eigenvector u, so it costs an eigh.  At a degenerate energy
        the slope is that of whichever vectors of the eigenspace eigh returns."""
        kdiag, vblock = self._block(label)
        vectors = np.linalg.eigh(np.diag(kdiag) + beta * vblock)[1]
        return np.einsum("ij,ij->j", vectors.conj(), vblock @ vectors).real

    def energies(self, beta: float, label: str) -> np.ndarray:
        """eigenvalues(beta, label), solved once per label for each of the
        last two betas."""
        return self._solved(float(beta), self._EXCHANGED.get(label, label))

    def levels(self, B: float, beta: float, max_energy: float | None = None) -> list[EnergyLevel]:
        """The level table at B (cm^-1) and beta, with no vectors: (label)i at
        B * (the i-th eigenvalue of the label's block - ground), ground the
        lowest level of any label, with the label's dimension and spin.  A
        label that occurs twice at one energy gives two levels with
        consecutive ordinals.  The levels up to `max_energy` cm^-1 are sorted
        by (energy, label), as classify_levels sorts them."""
        solved = {name: self.energies(beta, name) for name in LEVEL_LABELS}
        ground = min(e[0] for e in solved.values() if len(e))
        levels = [EnergyLevel(energy=energy, degeneracy=LEVEL_LABELS[name].dimension,
                              rovib_label=name, spin_species=LEVEL_LABELS[name].spin, ordinal=i)
                  for name, e in solved.items()
                  for i, energy in enumerate((B * (e - ground)).tolist(), 1)
                  if max_energy is None or energy <= max_energy]
        return sorted(levels, key=lambda lev: (lev.energy, lev.rovib_label))

    def gap(self, beta: float) -> float:
        """First orientation gap (A1 ground to L1 manifold) in units of B."""
        return float(self.energies(beta, "L1")[0] - self.energies(beta, "A1")[0])
