"""Qubit-addressability arithmetic: pairwise frequency separations, channel
counts within a band envelope, dilution-controlled nearest-neighbor distances
and dipole-coupling magnitudes.

Distances use the nanometer-scale c^(-1/3) geometry of a diluted cation
sublattice.  The Poisson mean nearest-neighbor distance of a random point
process at density c/a^3 is Gamma(4/3) (4 pi c / 3 a^3)^(-1/3)
= 0.55396 a c^(-1/3); the Monte Carlo check samples the diluted lattice
directly (the rank of the first occupied site in distance order is geometric
in c, so the sampling is exact and cheap).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import units

__all__ = [
    "CrystalSpec",
    "SourceSpec",
    "PlanReport",
    "PlanError",
    "delta_omega_table",
    "addressable_channels",
    "nn_distance",
    "nn_distance_mc",
    "coupling_estimate",
    "build_plan_report",
    "POISSON_MEAN_FACTOR",
    "MAX_PAIRS",
]


class PlanError(ValueError):
    """Invalid planning input."""


#: Gamma(4/3) * (3/(4*pi))**(1/3)
POISSON_MEAN_FACTOR = math.gamma(4.0 / 3.0) * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
#: nn_distance mode -> its factor on the density scale a c^(-1/3)
_DISTANCE_FACTORS = {"characteristic": 1.0, "poisson_mean": POISSON_MEAN_FACTOR}


@dataclass(frozen=True)
class CrystalSpec:
    """Cation sublattice: site spacing at full occupancy and dilution, and
    the dipole moment of the rotors on it."""

    a_nm: float = 1.0
    c: float = 0.01
    mu_debye: float = 1.0

    def validate(self) -> list[tuple[str, str]]:
        problems = []
        if not self.a_nm > 0:
            problems.append(("a_nm", f"lattice spacing must be positive, got {self.a_nm}"))
        if not 0 < self.c <= 1:
            problems.append(("c", f"dilution fraction must be in (0, 1], got {self.c}"))
        if not problems:
            # the couplings `plan` reports, at every distance mode; a unit
            # dipole first tells whether the distance alone is out of range
            for field, mu in (("a_nm", 1.0), ("mu_debye", self.mu_debye)):
                try:
                    for mode in _DISTANCE_FACTORS:
                        coupling_estimate(mu, _distance(self, mode))
                except PlanError as exc:
                    problems.append((field, str(exc)))
                    break
        return problems

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise PlanError("invalid crystal: " + "; ".join(m for _, m in problems))


@dataclass(frozen=True)
class SourceSpec:
    """The narrow source that probes the band; its one rule, the channel
    count over the band's fwhm, spans two sections (config.RunConfig)."""

    linewidth_ghz: float = 1.0

    def validate(self) -> list[tuple[str, str]]:
        return []


@dataclass(frozen=True)
class PlanReport:
    delta_omega_pairs: tuple   # (id_i, id_j, delta_cm1, delta_ghz), descending
    channels: int
    r12_characteristic_nm: float
    r12_poisson_mean_nm: float
    couplings: tuple           # (label, r_nm, coupling_hz)


#: most pairs a full separation table holds (plan without --max-pairs)
MAX_PAIRS = 100_000
#: most lines a full separation table takes: the largest n with n(n-1)/2 <= MAX_PAIRS
MAX_LINES = (1 + math.isqrt(1 + 8 * MAX_PAIRS)) // 2


def _at_separation(f, d):
    """Positions p < q of the ascending frequencies f with f[q] - f[p] == d.
    As rounding is monotone, the q of each p are a run that moves right as
    p rises, so two pointers find them all in O(len(f) + their number)."""
    lo = hi = 0
    for p in range(len(f)):
        lo = max(lo, p + 1)
        while lo < len(f) and f[lo] - f[p] < d:
            lo += 1
        hi = max(hi, lo)
        while hi < len(f) and f[hi] - f[p] <= d:
            hi += 1
        for q in range(lo, hi):
            yield p, q


def _widest(lines, k):
    """The first k rows of the full table, making only the pairs they need.
    In the frequency-sorted list f, the separation f[q] - f[p] of positions
    p < q falls (weakly, as rounding is monotone) as p rises or q falls, so
    the pairs form a tree under (0, n-1) in which no child is wider than its
    parent: (p, q) has the child (p+1, q), and (0, q) also (0, q-1).  Each
    pair has one parent, so the walk reaches every pair once, and k = every
    pair gives the whole table.  A heap takes k pairs from it widest first,
    holding at most one pair per q; the pairs wider than the k-th come
    first, then the first of every pair tied with the k-th in name order.
    O(n log n + k log k), plus the ties."""
    order = sorted(range(len(lines)), key=lambda i: lines[i].frequency)
    f = [lines[i].frequency for i in order]
    names = [f"{lines[i].lower}->{lines[i].upper}" for i in order]

    def row(p, q):
        # f[q] - f[p] is abs() of the lines' difference bit for bit; on
        # equal frequencies the upper line is the earlier in the list, which
        # the stable sort put first
        d = f[q] - f[p]
        a, b = (names[q], names[p]) if d > 0 else (names[p], names[q])
        return a, b, d, units.cm1_to_ghz(d)

    taken, heap = [], [(f[0] - f[-1], 0, len(f) - 1)]
    while heap and len(taken) < k:
        _, p, q = heapq.heappop(heap)
        taken.append((p, q))
        if p + 1 < q:
            heapq.heappush(heap, (f[p + 1] - f[q], p + 1, q))
        if p == 0 and q - 1 > 0:
            heapq.heappush(heap, (f[0] - f[q - 1], 0, q - 1))
    if not taken:
        return []
    d = f[taken[-1][1]] - f[taken[-1][0]]
    wider = sorted((row(p, q) for p, q in taken if f[q] - f[p] > d), key=_widest_first)
    ties = ((names[q], names[p], p, q) if d > 0 else (names[p], names[q], p, q)
            for p, q in _at_separation(f, d))
    return wider + [row(p, q) for *_, p, q in heapq.nsmallest(k - len(wider), ties)]


def _widest_first(pair):
    return -pair[2], pair[0], pair[1]


def delta_omega_table(lines, max_pairs: int | None = None) -> list[tuple[str, str, float, float]]:
    """Unordered line pairs as (upper line, lower line, cm^-1, GHz), widest
    first, ties by name.  With `max_pairs`, the first max_pairs rows of the
    full table, made without the rest, so memory stays O(max_pairs + lines).
    Without it every pair, and more than MAX_PAIRS pairs are rejected before
    any is made.  Both come from _widest.  Needs at least two lines."""
    if len(lines) < 2:
        raise PlanError(f"need at least two lines for a separation table, got {len(lines)}")
    count = len(lines) * (len(lines) - 1) // 2
    if max_pairs is None and count > MAX_PAIRS:
        raise PlanError(f"{len(lines)} lines make {count} pairs, more than the {MAX_PAIRS} "
                        "of a full table; keep the widest with --max-pairs")
    return _widest(lines, count if max_pairs is None else max_pairs)


def addressable_channels(band_fwhm_cm1: float, source_linewidth_ghz: float) -> int:
    """Distinct probing channels a narrow source resolves within one band."""
    if not band_fwhm_cm1 > 0 or not source_linewidth_ghz > 0:
        raise PlanError(f"band width and source linewidth must be positive, got "
                        f"{band_fwhm_cm1} cm-1 and {source_linewidth_ghz} GHz")
    ratio = units.cm1_to_ghz(band_fwhm_cm1) / source_linewidth_ghz
    if not math.isfinite(ratio):
        raise PlanError(f"band width {band_fwhm_cm1} cm-1 over source linewidth "
                        f"{source_linewidth_ghz} GHz overflows the channel count")
    return max(1, int(math.floor(ratio)))


def _distance(spec: CrystalSpec, mode: str) -> float:
    if mode not in _DISTANCE_FACTORS:
        raise PlanError(f"unknown distance mode {mode!r}")
    return _DISTANCE_FACTORS[mode] * (spec.a_nm * spec.c ** (-1.0 / 3.0))


def nn_distance(spec: CrystalSpec, mode: str = "characteristic") -> float:
    """Nearest-neighbor distance in nm: `characteristic` is the density scale
    a c^(-1/3); `poisson_mean` the mean of a random point process at c/a^3.
    An invalid spec raises PlanError."""
    spec.require_valid()
    return _distance(spec, mode)


def _sorted_lattice_distances(c: float) -> np.ndarray:
    # enough shells that the first occupied site lies inside with prob 1-1e-9
    needed = max(8, int(math.ceil(math.log(1e-9) / math.log(1.0 - c))) if c < 1 else 8)
    half = 1
    while (2 * half + 1) ** 3 - 1 < 3 * needed:
        half += 1
    r = np.arange(-half, half + 1)
    X, Y, Z = np.meshgrid(r, r, r, indexing="ij")
    d2 = (X**2 + Y**2 + Z**2).ravel()
    d2 = d2[d2 > 0]
    return np.sqrt(np.sort(d2))


#: most Monte Carlo samples nn_distance_mc draws (8 bytes each)
MAX_MC_SAMPLES = 10**7


def nn_distance_mc(spec: CrystalSpec, n_samples: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo mean nearest-neighbor distance on the randomly diluted
    lattice, in nm; an invalid spec raises PlanError.

    From an occupied reference site, visit the other sites in distance order;
    each is occupied independently with probability c, so the rank of the
    first occupied one is a geometric draw and the sample is exact.
    """
    if not 1 <= n_samples <= MAX_MC_SAMPLES:
        raise PlanError(f"need 1 to {MAX_MC_SAMPLES} Monte Carlo samples, got {n_samples}")
    spec.require_valid()
    if spec.c < 1e-4:
        raise PlanError("Monte Carlo dilution check supports c >= 1e-4")
    distances = _sorted_lattice_distances(spec.c)
    rng = np.random.default_rng(seed)
    ranks = rng.geometric(spec.c, size=n_samples) - 1
    ranks = np.minimum(ranks, len(distances) - 1)
    return float(spec.a_nm * distances[ranks].mean())


def coupling_estimate(mu_debye: float, r_nm: float) -> float:
    """Dipole-dipole coupling magnitude mu^2 / (4 pi eps0 h r^3) in Hz; a
    coupling that is not a finite float raises PlanError."""
    if mu_debye < 0:
        raise PlanError(f"dipole moment must be non-negative, got {mu_debye}")
    if not 0 < r_nm < math.inf:
        raise PlanError(f"distance must be positive and finite, got {r_nm}")
    mu = mu_debye * units.DEBYE_C_M
    r = r_nm * units.NM_M
    try:
        hz = mu**2 / (4.0 * math.pi * units.VACUUM_PERMITTIVITY * units.PLANCK_J_S * r**3)
    except (OverflowError, ZeroDivisionError):  # mu**2 or r**3 left the float range
        hz = math.inf
    if not math.isfinite(hz):
        raise PlanError(f"dipole coupling of {mu_debye} D at {r_nm} nm "
                        "is out of the float range")
    return hz


def build_plan_report(lines, crystal: CrystalSpec, band_fwhm_cm1: float,
                      source_linewidth_ghz: float, max_pairs: int | None = None) -> PlanReport:
    pairs = delta_omega_table(lines, max_pairs)
    r_char = nn_distance(crystal, "characteristic")
    r_mean = nn_distance(crystal, "poisson_mean")
    couplings = (
        ("characteristic", r_char, coupling_estimate(crystal.mu_debye, r_char)),
        ("poisson_mean", r_mean, coupling_estimate(crystal.mu_debye, r_mean)),
    )
    return PlanReport(
        delta_omega_pairs=tuple(pairs),
        channels=addressable_channels(band_fwhm_cm1, source_linewidth_ghz),
        r12_characteristic_nm=r_char,
        r12_poisson_mean_nm=r_mean,
        couplings=couplings,
    )
