"""Least-squares calibration of model parameters against observed peak
positions or band envelopes.

The position fit is separable (variable projection; Golub & Pereyra, SIAM
J. Numer. Anal. 10:413, 1973).  At fixed beta and excited_scale every
modeled position is linear in B, nu0 and the dw pair (LINEAR_PARAMS), so
TransitionModel.design gives the positions as b + A @ x, and at each point
of the outer search the free linear scalars take their least-squares
values inside their box (_box_lstsq), stepping from their start values by
the minimum-norm step.  The outer search runs over the free nonlinear
scalars only, beta and excited_scale (with neither free the fit is one
linear solve); the envelope fit solves its one intensity scale in closed
form, least squares held at 0 from below.  The search
is lsq.least_squares, a box-bounded Levenberg-Marquardt solver, under the
seeded multistart of _minimize, the one driver both fits hand their
residuals to, which builds the FitReport; the position fit adds its linear
values, peak assignment, residual rows and its Jacobian's rank.  Each fit
reports the tunneling gap omega_LA = B * (E(L1)1 - E(A1)1) at its solution
(FitReport.omega_la), read from the levels it solved there.  Both
models keep the eigenvalue work of their last two betas, so a fit at fixed
beta costs one solve per label, and a solver iteration one more for its beta
difference and one per trial point.  A position fit reads each level by
label and ordinal from the symmetry-adapted block of its label
(rotor.LevelGapCache) and solves only the labels its transitions name: the
four-band fit needs the A1 and L1 blocks, 17 and 110 states at Jmax 10, once
each, since its four bands fit exactly at the start beta.

FitSpec.validate states every rule on the fit options as (field, message)
pairs; a bound's ends must lie where the model type owning it accepts them.

Both models use the band model of `spectrum` as it is: the parameters
become a VibrationBandModel, and the envelope is spectrum.profile_sum of
spectrum.envelope_lines, as in the `spectrum` command.

Parameter names: B, beta, nu0, excited_scale, fwhm and the dw pair
spectrum.OFFSET_NAMES, each a config key and so the field of that name of
its section's model type.  For a key with a fit bound (config.PARAMS), all
but the dw, PARAM_DEFAULTS holds its field's default and PARAM_BOUNDS its
fit bound, and its domain is what that model type's validate() accepts.
Only the fit's own entries are written here: the dw start values and box.
The entry "extra_offsets" in FitSpec.free_params stands for the pair of dw
parameters and counts as one name against the peaks >= parameters
requirement.  A dw overrides the level table only when free or given in
FitSpec.initial; PARAM_DEFAULTS holds its start value.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import config, rotor, spectrum
from .rotor import LevelGapCache, RotorModel
from .lsq import LsqResult, least_squares
from .spectrum import PopulationModel, VibrationBandModel

__all__ = [
    "Peak",
    "PeakList",
    "FitSpec",
    "FitReport",
    "FitError",
    "TransitionModel",
    "EnvelopeModel",
    "fit_line_positions",
    "fit_envelope",
    "PARAM_DEFAULTS",
    "PARAM_BOUNDS",
    "LINEAR_PARAMS",
]


class FitError(ValueError):
    """Invalid fit specification or observed data."""


#: fit parameter -> its config key's registry entry, for each key with a fit bound
_OWNED = {p.key: p for p in config.PARAMS if p.fit_bound}

PARAM_DEFAULTS = {
    **{name: p.default for name, p in _OWNED.items()},
    **dict(zip(spectrum.OFFSET_NAMES, (24.0, 29.0))),
}

PARAM_BOUNDS = {
    **{name: p.fit_bound for name, p in _OWNED.items()},
    **dict.fromkeys(spectrum.OFFSET_NAMES, (5.0, 60.0)),
}

_GROUP_PARAMS = {"extra_offsets": spectrum.OFFSET_NAMES}

#: parameters that act on the envelope only, never on a peak position
_ENVELOPE_ONLY = ("fwhm",)

#: parameters every peak position is linear in at fixed beta and excited_scale
LINEAR_PARAMS = ("B", "nu0", *spectrum.OFFSET_NAMES)


_DEFAULT_BAND = VibrationBandModel()


def _domain_problems(name: str, value: float) -> list[str]:
    """What the model type owning parameter `name` says of `value`; a
    parameter no model type owns has no domain rule."""
    p = _OWNED.get(name)
    if p is None:
        return []
    return [msg for f, msg in replace(p.owner(), **{name: value}).validate() if f == name]


@dataclass(frozen=True)
class Peak:
    frequency: float
    intensity: float | None = None
    label: str | None = None


@dataclass(frozen=True)
class PeakList:
    peaks: tuple[Peak, ...]

    def __post_init__(self):
        freqs = [p.frequency for p in self.peaks]
        if any(f <= 0 for f in freqs):
            raise FitError("peak frequencies must be strictly positive")
        if len(set(freqs)) != len(freqs):
            raise FitError("duplicate peak frequencies rejected")


@dataclass(frozen=True)
class FitSpec:
    """Free parameters, their bounds and starting values, and the optimizer
    budget.  Bounds/initial entries missing here fall back to the documented
    package defaults."""

    free_params: tuple[str, ...]
    bounds: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    max_iterations: int = 2000
    tolerance: float = 1e-10
    n_starts: int = 8

    def scalar_free(self) -> tuple[str, ...]:
        out = []
        for name in self.free_params:
            out.extend(_GROUP_PARAMS.get(name, (name,)))
        return tuple(out)

    def validate(self, n_peaks: int | None = None,
                 positions: bool = False) -> list[tuple[str, str]]:
        """Every problem of the spec as (field, message).  A position fit
        (`positions`, or any `n_peaks`) frees no envelope-only parameter;
        `n_peaks` adds its peaks >= named free parameters rule."""
        problems = []
        if not self.free_params:
            problems.append(("free_params", "at least one free parameter required"))
        for name in self.free_params:
            if name not in PARAM_DEFAULTS and name not in _GROUP_PARAMS:
                problems.append(("free_params", f"unknown parameter {name!r}"))
            elif name in _ENVELOPE_ONLY and (positions or n_peaks is not None):
                problems.append(("free_params", f"{name} acts on no peak position; "
                                                "only an envelope fit can free it"))
        free = self.scalar_free()
        if len(set(free)) < len(free):
            problems.append(("free_params", f"a parameter is named twice in {', '.join(free)}"))
        if n_peaks is not None and n_peaks < len(self.free_params):
            problems.append(("free_params", f"under-determined: {n_peaks} peaks for "
                                            f"{len(self.free_params)} free parameters"))
        for name, value in (("n_starts", self.n_starts), ("max_iterations", self.max_iterations)):
            if value < 1:
                problems.append((name, f"{name} must be at least 1, got {value}"))
        if not 0 < self.tolerance < math.inf:
            problems.append(("tolerance",
                             f"tolerance must be positive and finite, got {self.tolerance}"))
        for name, (lo, hi) in self.bounds.items():
            if name not in free:
                problems.append(("bounds", f"{name!r} is not a free scalar parameter "
                                           f"({', '.join(free)})"))
            elif not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                problems.append(("bounds", f"bounds for {name} must be finite with low < high, "
                                           f"got ({lo}, {hi})"))
            else:
                problems += [("bounds", f"bounds for {name}: {msg}") for msg in
                             _domain_problems(name, lo) or _domain_problems(name, hi)]
        return problems

    def require_valid(self, n_peaks: int | None = None):
        problems = self.validate(n_peaks)
        if problems:
            raise FitError("; ".join(msg for _, msg in problems))

    def resolved_initial(self) -> dict[str, float]:
        """PARAM_DEFAULTS (a dw's only when free) overlaid with `initial`."""
        values = {k: v for k, v in PARAM_DEFAULTS.items()
                  if k in self.scalar_free() or k not in spectrum.OFFSET_NAMES}
        values.update({k: float(v) for k, v in self.initial.items()})
        return values


@dataclass(frozen=True)
class FitReport:
    values: dict
    free: tuple[str, ...]
    residuals: tuple            # (name, observed, modeled, residual) per peak
    objective: float
    iterations: int
    converged: bool
    message: str = ""
    nearest_assigned: tuple[str, ...] = ()
    best_start: int = 0
    starts_run: int = 0         # starts the multistart ran, at most n_starts
    trace: tuple = field(default=(), repr=False, compare=False)
    rank: int | None = None     # numerical rank of the position fit's Jacobian
    unfixed: tuple[str, ...] = ()   # free scalars the peaks do not fix one by one
    jmax: int | None = None     # the Jmax the model's levels were solved at
    omega_la: float | None = None   # B * (E(L1)1 - E(A1)1) at the solution, cm^-1

    @property
    def free_scalars(self) -> int:
        return len(FitSpec(self.free).scalar_free())

    def identifiability(self) -> str | None:
        """One line on the rank of the Jacobian over the free scalars, or None
        when the fit did not compute it (an envelope fit)."""
        if self.rank is None:
            return None
        n = self.free_scalars
        head = f"rank {self.rank} of {n} free scalars"
        if self.rank == n:
            return f"{head}: the peaks fix each one"
        if n - self.rank == len(self.unfixed):  # the null space is their coordinate axes
            return f"{head}: no peak moves {', '.join(self.unfixed)}"
        return f"{head}: the peaks fix only a combination of {', '.join(self.unfixed)}"


# ----------------------------------------------------------------------------
# position model
# ----------------------------------------------------------------------------

def _band(params: dict, base: VibrationBandModel) -> VibrationBandModel:
    """`base`, its sum bands kept, at the band parameters of `params`; a dw
    absent or None is not an override."""
    return replace(base, nu0=params["nu0"],
                   excited_scale=params.get("excited_scale", PARAM_DEFAULTS["excited_scale"]),
                   **{k: params.get(k) for k in spectrum.OFFSET_NAMES})


class TransitionModel:
    """Frequencies of the vibration-orientation transitions as functions of
    the fit parameters, matching spectrum.vibration_orientation_lines.

    A transition "(X)i->(Y)j*" reads the levels (X)i and (Y)j by label and
    ordinal from rotor.LevelGapCache and, as the line generator, lies at
    nu0 + offset((Y)j) - B*e(X)i, e being a level's energy above (L1)1 in
    units of B and the offset VibrationBandModel.excited_offset of (Y)j: the
    dw overriding it, else excited_scale*B*e(Y)j.  At fixed beta and
    excited_scale that is linear in LINEAR_PARAMS: design() gives the linear
    map, and frequencies() evaluates it.
    """

    def __init__(self, potential=rotor.DEFAULT_POTENTIAL, jmax: int = rotor.DEFAULT_JMAX):
        self.jmax = jmax
        self._gaps = LevelGapCache(potential, jmax)

    #: supported transition names
    NAMES = (
        "(L1)1->(L1)1*",
        "(A1)1->(L1)1*",
        "(L1)1->(A1)1*",
        "(E2)1->(L1)1*",
        "(L1)1->(E2)1*",
        "(E2)1->(L1)2*",
        "(L1)1->(L1)2*",
        "(L1)1->(I1I2)1*",
        "(L1)1->(E4)1*",
        "(L1)1->(E3)1*",
    )

    def _columns(self, names, params: dict, values) -> dict:
        """Each LINEAR_PARAMS coefficient in the positions of `names`, and
        their derivative in excited_scale, with the level energies read from
        `values`: LevelGapCache.energies, or .slopes for the coefficients'
        beta derivatives.  A dw set in `params` overrides the offsets of its
        levels (spectrum.overriding_offset), which are then never solved."""
        beta = params["beta"]
        ref = values(beta, "L1")[0]
        scale = params.get("excited_scale", PARAM_DEFAULTS["excited_scale"])
        columns = {n: np.zeros(len(names)) for n in (*LINEAR_PARAMS, "excited_scale")}
        columns["nu0"][:] = 1.0
        for row, name in enumerate(names):
            if name not in self.NAMES:
                raise FitError(
                    f"unknown transition {name!r}; known: {', '.join(self.NAMES)}")
            (low, i), (up, j) = re.findall(r"\((\w+)\)(\d+)", name)
            key = spectrum.overriding_offset(params, up, int(j))
            columns["B"][row] = ref - values(beta, low)[int(i) - 1]
            if key is not None:
                columns[key][row] = 1.0
            else:
                upper = values(beta, up)[int(j) - 1] - ref
                columns["B"][row] += scale * upper
                columns["excited_scale"][row] = params["B"] * upper
        return columns

    def design(self, names, params: dict, linear=()) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) at the beta and excited_scale of `params`: the positions of
        `names` are b + A @ x, x the values of the parameters `linear` (of
        LINEAR_PARAMS, each set in `params`), and b the terms of the others
        at their `params` values."""
        columns = self._columns(names, params, self._gaps.energies)
        A = np.array([columns[n] for n in linear]).reshape(len(linear), len(names)).T
        b = np.zeros(len(names))
        for n in LINEAR_PARAMS:
            if n not in linear and params.get(n) is not None:
                b += params[n] * columns[n]
        return A, b

    def frequencies(self, names, params: dict) -> np.ndarray:
        """The positions of `names` at `params`: b + A @ x of design() over
        every linear parameter `params` sets."""
        linear = tuple(n for n in LINEAR_PARAMS if params.get(n) is not None)
        A, b = self.design(names, params, linear)
        return b + A @ np.array([params[n] for n in linear])

    def jacobian(self, names, params: dict, free) -> np.ndarray:
        """d positions / d each of the scalars `free` at `params`.  The
        positions are nu0 + dw + B * (B's coefficient), so beta's column is B
        times that coefficient's beta derivative, from the levels'
        Hellmann-Feynman slopes (LevelGapCache.slopes, one eigh per label)."""
        columns = self._columns(names, params, self._gaps.energies)
        if "beta" in free:
            slopes = functools.cache(self._gaps.slopes)
            columns["beta"] = params["B"] * self._columns(names, params, slopes)["B"]
        return np.array([columns[n] for n in free]).reshape(len(free), len(names)).T

    def omega_la(self, params: dict) -> float:
        return params["B"] * self._gaps.gap(params["beta"])


# ----------------------------------------------------------------------------
# envelope model
# ----------------------------------------------------------------------------

class EnvelopeModel:
    """Sampled envelope, in the intensity units of `spectrum`, as a function
    of the fit parameters, with its lines and levels classified up to 15 B.
    `band` supplies the lattice sum bands; the fit parameters the rest.

    The levels are solved at Jmax min(`jmax`, 8), the envelope fit's cap:
    every beta of the search is a dense eigen-solve and classification.  The
    unit-B levels of the last two betas are kept, a solver iterate's and its
    beta difference's; B rescales their energies, so fits over (B, nu0,
    fwhm, offsets) at fixed beta reuse one eigen-solve.
    """

    def __init__(self, potential=rotor.DEFAULT_POTENTIAL, jmax: int = rotor.DEFAULT_JMAX,
                 pop: PopulationModel | None = None,
                 shape: str = spectrum.SpectrumConfig.shape,
                 band: VibrationBandModel = _DEFAULT_BAND):
        self.potential = potential
        self.jmax = min(jmax, 8)
        self.pop = pop or PopulationModel()
        self.shape = shape
        self.band = band
        self._unit_levels = functools.lru_cache(maxsize=2)(self._classify)

    def _classify(self, beta: float):
        model = RotorModel(B=1.0, beta=beta, potential=self.potential, Jmax=self.jmax)
        return rotor.classify_levels(rotor.diagonalize(model), max_energy=15.0)

    def lines(self, params: dict):
        scaled = [replace(lev, energy=lev.energy * params["B"])
                  for lev in self._unit_levels(float(params["beta"]))]
        return spectrum.envelope_lines(scaled, _band(params, self.band), self.pop)

    def amplitude(self, params: dict, freqs: np.ndarray) -> np.ndarray:
        return spectrum.profile_sum(self.lines(params), freqs, self.shape,
                                    params.get("fwhm", PARAM_DEFAULTS["fwhm"]))

    def omega_la(self, params: dict) -> float:
        levels = self._unit_levels(float(params["beta"]))
        return params["B"] * (rotor.find_level(levels, "L1").energy
                              - rotor.find_level(levels, "A1").energy)


# ----------------------------------------------------------------------------
# optimizer core
# ----------------------------------------------------------------------------

def _box(spec: FitSpec, names, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `values` of the scalars `names` clipped to their search box, and
    the box's (low, high) arrays."""
    bounds = [spec.bounds.get(n, PARAM_BOUNDS[n]) for n in names]
    lo, hi = np.array(bounds, dtype=float).reshape(len(names), 2).T
    return np.clip(np.array([values[n] for n in names], dtype=float), lo, hi), lo, hi


def _box_lstsq(A: np.ndarray, y: np.ndarray, x0: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The x in the box [lo, hi] minimizing |y - A @ x|, stepping from x0 by
    the minimum-norm step where several x do: a column of A that is zero
    leaves its x at x0.  The unconstrained step when it stays in the box;
    else the active sets, each variable free or held at either bound, with
    the free ones' minimum-norm step, fewest held variables first (3^n sets
    for n unknowns, at most 81 for the four of LINEAR_PARAMS).  The problem
    is convex, so its minimum is the first set whose point is in the box and
    meets the optimality (KKT) conditions: no held variable's gradient
    points into the box, to the roundoff bound of that gradient.  Should
    roundoff fail every set, the lowest sum of squares of all wins."""
    n = len(x0)
    best = None
    sets = sorted(itertools.product((None, 0, 1), repeat=n),
                  key=lambda held: n - held.count(None))
    for held in sets:
        x = np.array([x0[i] if h is None else (lo, hi)[h][i] for i, h in enumerate(held)])
        free = [i for i, h in enumerate(held) if h is None]
        if free:
            x[free] += np.linalg.lstsq(A[:, free], y - A @ x, rcond=None)[0]
            if np.any(x[free] < lo[free]) or np.any(x[free] > hi[free]):
                continue
        if len(free) == n:
            return x
        r = y - A @ x
        # A.T @ r, minus half the gradient of |r|^2, points out of the box
        # at each held variable: -1 at a low bound, +1 at a high one
        side = np.array([0.0 if h is None else 2.0 * h - 1.0 for h in held])
        slack = 1e-12 * (np.abs(A).T @ (np.abs(y) + np.abs(A) @ np.abs(x)))
        if np.all(side * (A.T @ r) >= -slack):
            return x
        cost = float(r @ r)
        if best is None or cost < best[0]:
            best = (cost, x)
    return best[1]


#: FitReport.message of a start whose solver run is skipped
_AT_TOLERANCE = "the objective at the start is within the tolerance"
_LINEAR_ONLY = "no nonlinear parameter is free: one linear least-squares solve"


def _starts(x0, lo, hi, seed: int):
    """x0, then uniform draws in the box [lo, hi] from a generator that is
    seeded only when the first draw is asked for."""
    yield x0
    rng = np.random.default_rng(seed)
    while True:
        yield lo + (hi - lo) * rng.random(len(x0))


def _minimize(spec: FitSpec, seed: int, residuals, names=None) -> FitReport:
    """The best start's report, without residual rows, of a seeded multistart
    lsq.least_squares on residuals(params) over the free scalars `names` (all
    of the valid `spec`'s by default), at most spec.max_iterations solver
    iterations a start.  Start 0 is the initial values clipped to the
    bounds; each later start is a uniform draw in the bounds of `names`,
    made as the start begins (n_starts may be far more than fit in memory)
    by a generator seeded at the first such start, so a fit that stops at
    start 0 never imports numpy.random.

    The objective is a sum of squares, never negative, so a start whose
    objective is at or below spec.tolerance is a global minimum to that
    tolerance: its solver run is skipped, and the multistart stops at the
    first start that begins or ends there.  Else all n_starts run and the
    lowest objective wins, the earliest start on ties.  With `names` empty
    the objective is evaluated once."""
    names = spec.scalar_free() if names is None else tuple(names)
    base = spec.resolved_initial()
    x0, lo, hi = _box(spec, names, base)
    best = None
    total_iter = 0

    def at(x):
        return residuals({**base, **dict(zip(names, x))})

    for index, start in zip(range(spec.n_starts if names else 1), _starts(x0, lo, hi, seed)):
        with np.errstate(over="ignore", invalid="ignore"):
            first = float(np.sum(at(start) ** 2))
        if index == 0 and not math.isfinite(first):
            raise FitError(f"the fit objective at the initial values is {first}: "
                           "an observed value is too large to fit")
        if first <= spec.tolerance or not names:
            res = LsqResult(start, first, 0, True, _LINEAR_ONLY if not names else _AT_TOLERANCE,
                            (first,))
        else:
            res = least_squares(at, start, lo, hi, maxiter=spec.max_iterations)
        total_iter += res.nit
        if best is None or res.fun < best[0].fun:
            best = (res, index)
        if best[0].fun <= spec.tolerance:
            break
    res, best_start = best
    return FitReport(
        values={k: float(v) for k, v in {**base, **dict(zip(names, res.x))}.items()},
        free=spec.free_params,
        residuals=(),
        objective=res.fun,
        iterations=total_iter,
        converged=res.success or res.fun <= spec.tolerance,
        message=res.message,
        best_start=best_start,
        starts_run=index + 1,
        trace=res.trace,
    )


def _identifiability(jacobian: np.ndarray, free) -> tuple[int, tuple[str, ...]]:
    """The numerical rank of `jacobian` over the scalars `free`, its columns
    scaled to unit norm so that units drop out, and the scalars its null
    space involves: those the data fix only in combination, or not at all."""
    norms = np.linalg.norm(jacobian, axis=0)
    unit = jacobian / np.where(norms > 0, norms, 1.0)
    _, sing, vt = np.linalg.svd(unit)
    rank = int(np.sum(sing > sing.max(initial=0.0) * max(unit.shape) * np.finfo(float).eps))
    weight = np.abs(vt[rank:]).max(axis=0, initial=0.0)
    return rank, tuple(n for n, w in zip(free, weight) if w > 1e-6)


# ----------------------------------------------------------------------------
# public fits
# ----------------------------------------------------------------------------

def _assign_peaks(observed: PeakList, model: TransitionModel, params0: dict):
    """Peak -> transition-name assignment; a label names one peak at most,
    and unlabeled peaks fall back to the nearest model frequency at the
    starting parameters and are flagged."""
    assigned, fallback = [], []
    taken = set()
    for peak in observed.peaks:
        if peak.label:
            if peak.label not in model.NAMES:
                raise FitError(
                    f"peak label {peak.label!r} matches no model transition; "
                    f"known: {', '.join(model.NAMES)}"
                )
            if peak.label in taken:
                raise FitError(f"peak label {peak.label!r} is given to more than one peak")
            assigned.append((peak, peak.label))
            taken.add(peak.label)
        else:
            fallback.append(peak)
    model_freqs = (dict(zip(model.NAMES, model.frequencies(model.NAMES, params0).tolist()))
                   if fallback else {})
    for peak in fallback:
        candidates = sorted(
            ((abs(peak.frequency - f), n) for n, f in model_freqs.items()
             if n not in taken),
            key=lambda t: t[0],
        )
        if not candidates:
            raise FitError("more unlabeled peaks than model transitions")
        _, name = candidates[0]
        taken.add(name)
        assigned.append((peak, name))
    assigned.sort(key=lambda t: t[0].frequency)
    notes = tuple(f"{p.frequency:g}->{n}" for p, n in assigned if p.label is None)
    return assigned, notes


def fit_line_positions(observed: PeakList, spec: FitSpec,
                       model: TransitionModel | None = None,
                       seed: int = 0) -> FitReport:
    """Least-squares fit of transition frequencies to observed peak
    positions, separable in LINEAR_PARAMS: the multistart solver searches
    the free beta and excited_scale, and at each of its points the free
    linear scalars take their least-squares values in their box, stepping
    from their start values (_box_lstsq).  The report gives the rank of the
    Jacobian over the free scalars at the solution, and omega_LA there."""
    model = model or TransitionModel()
    spec.require_valid(n_peaks=len(observed.peaks))
    initial = spec.resolved_initial()
    assignments, fallback_notes = _assign_peaks(observed, model, initial)
    names = [n for _, n in assignments]
    obs = np.array([p.frequency for p, _ in assignments])
    free = spec.scalar_free()
    linear = tuple(n for n in free if n in LINEAR_PARAMS)
    x0, lo, hi = _box(spec, linear, initial)

    def solve(params):
        """`params` with the free linear scalars solved, and the residuals."""
        A, b = model.design(names, params, linear)
        x = _box_lstsq(A, obs - b, x0, lo, hi)
        return {**params, **dict(zip(linear, x.tolist()))}, obs - b - A @ x

    report = _minimize(spec, seed, lambda p: solve(p)[1], tuple(n for n in free if n not in linear))
    params = solve(report.values)[0]
    modeled = model.frequencies(names, params)
    rows = tuple((name, float(o), float(m), float(o - m))
                 for name, o, m in zip(names, obs, modeled))
    rank, unfixed = _identifiability(model.jacobian(names, params, free), free)
    return replace(report, values={k: float(v) for k, v in params.items()}, residuals=rows,
                   nearest_assigned=fallback_notes, rank=rank, unfixed=unfixed, jmax=model.jmax,
                   omega_la=model.omega_la(params))


def fit_envelope(observed_freqs, observed_amps, spec: FitSpec,
                 model: EnvelopeModel | None = None, seed: int = 0) -> FitReport:
    """Least-squares fit of a sampled envelope over the free parameters,
    fwhm included, its intensity scale solved at each point in closed form;
    the report gives omega_LA from the classified levels of the solution."""
    model = model or EnvelopeModel()
    spec.require_valid()
    freqs = np.asarray(observed_freqs, dtype=float)
    amps = np.asarray(observed_amps, dtype=float)
    if freqs.ndim != 1 or freqs.shape != amps.shape or len(freqs) < 2:
        raise FitError("observed envelope must be two equal-length 1-d arrays")
    if np.any(np.diff(freqs) <= 0):
        raise FitError("observed frequency grid must be strictly increasing")
    params0 = spec.resolved_initial()
    # a profile narrower than the samples' spacing falls between them; the
    # relative tolerance lets a grid read back from CSV keep its own step
    if "fwhm" in spec.scalar_free():
        what, low = "--bound fwhm: the low end", spec.bounds.get("fwhm", PARAM_BOUNDS["fwhm"])[0]
    else:
        what, low = "fwhm: the fixed width", params0["fwhm"]
    spacing = np.diff(freqs).max()
    if low < spacing * (1.0 - 1e-9):
        raise FitError(f"{what} {low:g} is below the observed grid's largest spacing "
                       f"{spacing:.6g} cm^-1")

    line_freqs = np.array([l.frequency for l in model.lines(params0)])
    margin = 4.0 * params0["fwhm"]
    if np.all((line_freqs < freqs[0] - margin) | (line_freqs > freqs[-1] + margin)):
        return FitReport(
            values={k: float(v) for k, v in params0.items()},
            free=spec.free_params, residuals=(), objective=float(np.sum(amps**2)),
            iterations=0, converged=False, jmax=model.jmax, omega_la=model.omega_la(params0),
            message=(
                "no model line overlaps the observed grid "
                f"[{freqs[0]:g}, {freqs[-1]:g}]; nearest line at "
                f"{line_freqs[np.argmin(np.abs(line_freqs - freqs.mean()))]:g} cm^-1"
            ),
        )

    def solve(params):
        """The scale at `params`, the least-squares one held at 0 from
        below, and the residuals."""
        unit = model.amplitude(params, freqs)
        norm2 = unit @ unit
        scale = max(0.0, (unit @ amps) / norm2) if norm2 > 0 else 0.0
        unit *= -scale  # amps - scale * unit, bit for bit, with no temporary
        unit += amps
        return scale, unit

    report = _minimize(spec, seed, lambda p: solve(p)[1])
    return replace(report, values={**report.values, "scale": solve(report.values)[0]},
                   jmax=model.jmax, omega_la=model.omega_la(report.values))
