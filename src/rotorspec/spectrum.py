"""Transition line lists and band-envelope synthesis.

Vibration-orientation lines couple the triply degenerate stretching vibration
to the orientational levels: the lab-frame dipole is D^1(omega) contracted
with the molecule-frame transition dipole, so the orientational selection
rules are rank-1 on both the site and molecule sides.  Excited-vibrational
orientation levels reuse the ground-state level table with tunneling gaps
multiplied by `excited_scale`; the two high-frequency band offsets can be
overridden by `dw_L1_star` and `dw_LE3_star` when calibrated values are available.

The `spectrum` command and both fits share this band model: the envelope
sums `envelope_lines` (IR lines plus lattice sum bands) with `profile_sum`;
Raman lines lie far below the band and reach the stick lists only.

Nuclear spin species are conserved strictly.  Within the ground vibrational
state this forces equal species on both levels of a Raman line.  For a
vibration-orientation line the excited level hosts every species contained in
(vibration x orientation) on the molecular side, and the rank-1 molecular
selection rule is exactly the condition that the lower level's species is
among them, so one gate covers both.

Line strengths (design choice, see README): the orientational transition
moments only gate which finals are reachable; each initial level then
distributes unit total strength over its reachable finals proportionally to
their degeneracy (an oscillator-strength sum rule).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rotor, symmetry, units
from .rotor import EnergyLevel, find_level

__all__ = [
    "VibrationBandModel",
    "PopulationModel",
    "Line",
    "SpectrumConfig",
    "SpectrumError",
    "populations",
    "vibration_orientation_lines",
    "rotational_raman_lines",
    "sum_band_lines",
    "envelope_lines",
    "missing_initial_levels",
    "profile_sum",
    "synthesize",
    "DEFAULT_FROZEN_FRACTIONS",
]


class SpectrumError(ValueError):
    """Invalid spectral model input."""


#: infinite-temperature statistical fractions of the spin species
DEFAULT_FROZEN_FRACTIONS = {
    s.label: s.total_count / 16.0 for s in symmetry.spin_decomposition()
}

#: relative orientational strength below which a transition is dropped
STRENGTH_GATE = 1e-2

#: most samples a synthesis grid, and so an observed envelope, may have
MAX_GRID_SAMPLES = 10**7

#: largest nu0, lattice_freq or |dw_*| offset in cm^-1: a line adds at most
#: one of each to a level spacing, which RotorModel bounds alike
MAX_BAND_CM1 = units.MAX_CM1


def _overflow_message(key: str, value: float) -> str:
    return (f"|{key}| must be at most {MAX_BAND_CM1:g} cm-1, else its lines overflow in GHz; "
            f"got {value}")


#: total dimension of the orientational levels kept as vibration-orientation
#: finals (the J' <= 2 content: 1 + 9 + 25)
_FINAL_DIM = 35


@dataclass(frozen=True)
class VibrationBandModel:
    """Band origin, excited-state offsets and lattice sum bands of the
    vibration-orientation system.  nu0 is the frequency of the (L1)1 -> (L1)1
    reference transition.

    dw_L1_star and dw_LE3_star (OFFSET_NAMES), when set, are the offsets from
    nu0 in cm^-1 of the finals OFFSET_KEYS names; other finals use the
    scaled level table.
    With lattice_freq set, every IR line has a sum-band copy lattice_freq
    higher at sum_band_scale times its intensity.
    """

    nu0: float = field(default=3206.0, metadata={"fit_bound": (3100.0, 3300.0)})
    excited_scale: float = field(default=1.0, metadata={"fit_bound": (0.5, 2.0)})
    dw_L1_star: float | None = None
    dw_LE3_star: float | None = None
    lattice_freq: float | None = None
    sum_band_scale: float = 0.1

    def validate(self) -> list[tuple[str, str]]:
        problems = []
        if not self.nu0 > 0:
            problems.append(("nu0", f"nu0 must be positive, got {self.nu0}"))
        elif self.nu0 > MAX_BAND_CM1:
            problems.append(("nu0", _overflow_message("nu0", self.nu0)))
        if not self.excited_scale > 0:
            problems.append(("excited_scale",
                             f"excited_scale must be positive, got {self.excited_scale}"))
        if self.lattice_freq is not None and not self.lattice_freq >= 0:
            problems.append(("lattice_freq",
                             f"lattice frequency must be non-negative, got {self.lattice_freq}"))
        elif self.lattice_freq is not None and self.lattice_freq > MAX_BAND_CM1:
            problems.append(("lattice_freq", _overflow_message("lattice_freq", self.lattice_freq)))
        problems += [(key, _overflow_message(key, getattr(self, key))) for key in OFFSET_NAMES
                     if abs(getattr(self, key) or 0.0) > MAX_BAND_CM1]
        if not self.sum_band_scale >= 0:
            problems.append(("sum_band_scale",
                             f"sum_band_scale must be non-negative, got {self.sum_band_scale}"))
        return problems

    def excited_offset(self, label: str, ordinal: int, above_l1) -> float:
        """Offset from nu0 of (label)ordinal: its override, else excited_scale * above_l1()."""
        key = overriding_offset(vars(self), label, ordinal)
        if key is not None:
            return float(getattr(self, key))
        return self.excited_scale * above_l1()


@dataclass(frozen=True)
class PopulationModel:
    """Level populations: full thermal equilibrium, or nuclear-spin species
    frozen at fixed fractions with Boltzmann equilibrium inside each species."""

    mode: str = "thermal"           # thermal | spin_frozen
    T: float = 7.0                  # kelvin
    fractions: dict | None = None   # A, E, F; None: DEFAULT_FROZEN_FRACTIONS

    def validate(self) -> list[tuple[str, str]]:
        problems = []
        if self.mode not in ("thermal", "spin_frozen"):
            problems.append(("mode", f"mode must be thermal or spin_frozen, got {self.mode!r}"))
        if not self.T > 0:
            problems.append(("T", f"temperature must be positive, got {self.T}"))
        frac = self.fractions or DEFAULT_FROZEN_FRACTIONS
        if set(frac) != {"A", "E", "F"}:
            problems.append(("fractions",
                             f"frozen fractions must be keyed A, E, F, got {sorted(frac)}"))
        else:
            if any(v < 0 for v in frac.values()):
                problems.append(("fractions", "frozen fractions must be non-negative"))
            if abs(sum(frac.values()) - 1.0) > 1e-12:
                problems.append(("fractions",
                                 f"frozen fractions sum to {sum(frac.values())!r}, not 1"))
        return problems


@dataclass(frozen=True)
class Line:
    frequency: float
    intensity: float
    lower: str
    upper: str
    activity: str  # IR | Raman

    def __post_init__(self):
        if not 0 <= units.cm1_to_ghz(self.frequency) < math.inf:
            raise SpectrumError(f"line frequency {self.frequency} cm-1 is negative or "
                                "overflows in GHz")
        if self.intensity < 0:
            raise SpectrumError(f"negative line intensity {self.intensity}")


@dataclass(frozen=True)
class SpectrumConfig:
    start: float = 3150.0
    stop: float = 3300.0
    step: float = 0.05
    shape: str = "gaussian"   # gaussian | lorentzian
    fwhm: float = field(default=1.5, metadata={"fit_bound": (0.05, 20.0)})

    def validate(self) -> list[tuple[str, str]]:
        problems = []
        if not self.start < self.stop:
            problems.append(("start", f"grid start {self.start} must be below stop {self.stop}"))
        if not self.step > 0:
            problems.append(("step", f"grid step must be positive, got {self.step}"))
        elif (self.stop - self.start) / self.step + 1e-9 >= MAX_GRID_SAMPLES:
            problems.append(("step", f"grid step {self.step} over {self.start} .. {self.stop} "
                                     f"gives more than {MAX_GRID_SAMPLES} samples"))
        if not self.fwhm > 0:
            problems.append(("fwhm", f"fwhm must be positive, got {self.fwhm}"))
        elif self.step > 0 and self.fwhm < self.step:
            problems.append(("fwhm", f"fwhm {self.fwhm} is below the grid step {self.step}; "
                                     "the samples would miss most of each line"))
        if self.shape not in ("gaussian", "lorentzian"):
            problems.append(("shape", f"shape must be gaussian or lorentzian, got {self.shape!r}"))
        return problems

    @property
    def fwhm_ghz(self) -> float:
        return units.cm1_to_ghz(self.fwhm)


# ----------------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------------

def _pauli_count(level: EnergyLevel) -> float:
    lab = symmetry.LEVEL_LABELS[level.rovib_label]
    return lab.pauli_count * (level.degeneracy / lab.dimension)


def populations(levels, pop: PopulationModel) -> dict[str, float]:
    """Fraction of molecules in each level, keyed by level name "(L1)1".

    p ~ g * exp(-E/kT) with g the Pauli-allowed state count of the level
    (site degeneracy times nuclear-spin pairing), normalized within a group
    holding a fixed share: all levels with share 1 in thermal mode, each
    species with its frozen fraction in spin-frozen mode.  E counts from the
    group's lowest level, so no group's factors underflow at low T.
    """
    problems = pop.validate()
    if problems:
        raise SpectrumError("; ".join(m for _, m in problems))
    kt = units.thermal_energy_cm1(pop.T)
    frozen = pop.fractions or DEFAULT_FROZEN_FRACTIONS
    shares = frozen if pop.mode == "spin_frozen" else {None: 1.0}  # None: every level
    out = {}
    for species, share in shares.items():
        members = [lev for lev in levels if species in (None, lev.spin_species)]
        if not members:
            if share > 0:
                raise SpectrumError(f"no levels of species {species} to carry "
                                    f"its frozen fraction {share}")
            continue
        lowest = min(lev.energy for lev in members)
        weights = [_pauli_count(lev) * math.exp(-(lev.energy - lowest) / kt) for lev in members]
        norm = sum(weights)
        for lev, weight in zip(members, weights):
            out[lev.name] = share * weight / norm
    return out


# ----------------------------------------------------------------------------
# selection and strengths
# ----------------------------------------------------------------------------

@functools.cache
def hosted_species(final_label: str) -> frozenset[str]:
    """Spin species a vibration-orientation level can host: those paired with
    the molecular content of (F vibration) x (orientational label)."""
    lab = symmetry.LEVEL_LABELS[final_label]
    table = symmetry.character_table("T")
    chi = table.characters("F") * lab.mol_characters()
    return frozenset(symmetry.SPIN_OF_MOL[irrep] for irrep in symmetry.decompose(chi, table))


def _gated_finals(initial: EnergyLevel, finals, rank: int):
    """Finals with orientational strength above STRENGTH_GATE of the
    strongest channel from this initial level."""
    strengths = rotor.transition_strength(initial, finals, rank)
    smax = max(strengths, default=0.0)
    if smax <= 0.0:
        return []
    return [fin for fin, s in zip(finals, strengths) if s > STRENGTH_GATE * smax]


def _intensities(gated, pop_fraction):
    """The sum rule: the initial level's population over its gated finals,
    in proportion to their degeneracy."""
    denom = sum(fin.degeneracy for fin in gated)
    return {fin.name: pop_fraction * fin.degeneracy / denom for fin in gated}


# ----------------------------------------------------------------------------
# line generators
# ----------------------------------------------------------------------------

_INITIAL_LEVELS = (("A1", 1), ("L1", 1), ("E2", 1))
#: excited level -> the VibrationBandModel field that overrides its band offset:
#: dw_L1_star for the near-degenerate L1(2) + I1I2 + E4 group, dw_LE3_star for E3
OFFSET_KEYS = {("L1", 2): "dw_L1_star", ("I1I2", 1): "dw_L1_star",
               ("E4", 1): "dw_L1_star", ("E3", 1): "dw_LE3_star"}
#: the offset fields, in the order (dw_L1_star, dw_LE3_star)
OFFSET_NAMES = tuple(dict.fromkeys(OFFSET_KEYS.values()))


def overriding_offset(offsets: dict, label: str, ordinal: int) -> str | None:
    """The key of OFFSET_NAMES whose value in `offsets` (a band's fields, or
    fit parameters) is the offset of (label)ordinal from nu0; None when
    `offsets` sets none and the scaled level table gives it."""
    key = OFFSET_KEYS.get((label, ordinal))
    return key if offsets.get(key) is not None else None


def missing_initial_levels(levels) -> list[str]:
    """Names of the ground levels the IR lines start from that `levels` lacks."""
    present = {(lev.rovib_label, lev.ordinal) for lev in levels}
    return [f"({name}){ordn}" for name, ordn in _INITIAL_LEVELS if (name, ordn) not in present]


def vibration_orientation_lines(levels, band: VibrationBandModel, pop: PopulationModel):
    """IR lines from the populated ground orientation levels to the excited
    vibrational state's orientation levels (ground table reused, tunneling
    gaps scaled by excited_scale, high-band offsets overridable)."""
    problems = band.validate()
    if problems:
        raise SpectrumError("; ".join(m for _, m in problems))
    missing = missing_initial_levels(levels)
    if missing:
        raise SpectrumError(f"required ground levels missing: {', '.join(missing)}")
    initials = [find_level(levels, name, ordn) for name, ordn in _INITIAL_LEVELS]
    ordered = sorted(levels, key=lambda lev: (lev.energy, lev.rovib_label))
    finals, total = [], 0
    for lev in ordered:
        if total + lev.degeneracy > _FINAL_DIM:
            break
        finals.append(lev)
        total += lev.degeneracy
    e_l1 = find_level(levels, "L1", 1).energy
    fractions = populations(levels, pop)
    lines = []
    for ini in initials:
        gated = _gated_finals(ini, finals, rank=1)
        if not gated:
            continue
        intens = _intensities(gated, fractions[ini.name])
        for fin in gated:
            if ini.spin_species not in hosted_species(fin.rovib_label):
                continue  # spin species cannot ride into this final
            freq = band.nu0 + band.excited_offset(fin.rovib_label, fin.ordinal,
                                                  lambda: fin.energy - e_l1) - (ini.energy - e_l1)
            if not 0 <= units.cm1_to_ghz(freq) < math.inf:
                # nu0 and the final's offset from it put it there: its override, else the scale
                key = overriding_offset(vars(band), fin.rovib_label, fin.ordinal)
                raise SpectrumError(f"[band] nu0, {key or 'excited_scale'}: line {ini.name} -> "
                                    f"{fin.name}* at {freq} cm-1 is negative or overflows in GHz")
            lines.append(Line(frequency=freq, intensity=intens[fin.name],
                              lower=ini.name, upper=fin.name + "*", activity="IR"))
    lines.sort(key=lambda l: (l.frequency, l.lower, l.upper))
    return lines


def rotational_raman_lines(levels, pop: PopulationModel):
    """Stokes lines among the ground-vibrational orientation levels; rank-2
    selection on both frames with strict spin-species conservation."""
    fractions = populations(levels, pop)
    ordered = sorted(levels, key=lambda lev: (lev.energy, lev.rovib_label))
    lines = []
    for ini in ordered:
        if fractions[ini.name] <= 1e-12:
            continue
        candidates = [lev for lev in ordered
                      if lev.energy > ini.energy + 1e-9
                      and lev.spin_species == ini.spin_species]
        gated = _gated_finals(ini, candidates, rank=2)
        if not gated:
            continue
        intens = _intensities(gated, fractions[ini.name])
        for fin in gated:
            lines.append(Line(frequency=fin.energy - ini.energy,
                              intensity=intens[fin.name],
                              lower=ini.name, upper=fin.name, activity="Raman"))
    lines.sort(key=lambda l: (l.frequency, l.lower, l.upper))
    return lines


def sum_band_lines(base, band: VibrationBandModel):
    """Copies of the base lines shifted up by the band's lattice-mode
    quantum (band.lattice_freq set)."""
    return [Line(frequency=l.frequency + band.lattice_freq,
                 intensity=l.intensity * band.sum_band_scale,
                 lower=l.lower, upper=l.upper + "+lat", activity=l.activity)
            for l in base]


def envelope_lines(levels, band: VibrationBandModel, pop: PopulationModel):
    """The lines the envelope sums: IR lines plus, with a lattice mode, their sum bands."""
    lines = vibration_orientation_lines(levels, band, pop)
    if band.lattice_freq is not None:
        lines += sum_band_lines(lines, band)
    lines.sort(key=lambda l: (l.frequency, l.lower, l.upper))
    return lines


# ----------------------------------------------------------------------------
# envelope synthesis
# ----------------------------------------------------------------------------

def profile_sum(lines, freqs: np.ndarray, shape: str, fwhm: float) -> np.ndarray:
    """Unit-area profiles scaled by intensity at `freqs`, summed in list order."""
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    gamma = fwhm / 2.0
    amps = np.zeros(len(freqs))
    # one line's profile at a time, made in place by the operations of
    # exp(-0.5 * (offsets / sigma)**2) / norm and (gamma / pi) / (offsets**2 + gamma**2)
    profile = np.empty(len(freqs))
    for line in lines:
        offsets = np.subtract(freqs, line.frequency, out=profile)
        if shape == "gaussian":
            # far from a narrow line the square overflows and exp(-inf) is 0
            with np.errstate(over="ignore"):
                np.square(np.divide(offsets, sigma, out=profile), out=profile)
            np.exp(np.multiply(profile, -0.5, out=profile), out=profile)
            profile /= sigma * math.sqrt(2 * math.pi)
        elif shape == "lorentzian":
            np.add(np.square(offsets, out=profile), gamma**2, out=profile)
            np.divide(gamma / math.pi, profile, out=profile)
        else:
            raise SpectrumError(f"unknown line shape {shape!r}")
        profile *= line.intensity
        amps += profile
    return amps


_CLIPPED_SHOWN = 5  # off-grid lines named in the warning; the rest are counted


def synthesize(lines, config: SpectrumConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sampled band envelope: sum of unit-area profiles scaled by intensity.

    Lines outside the grid raise a warning giving their count and naming the
    first few; they still contribute their (clipped) tails.
    """
    problems = config.validate()
    if problems:
        raise SpectrumError("; ".join(m for _, m in problems))
    n = int(math.floor((config.stop - config.start) / config.step + 1e-9)) + 1
    freqs = config.start + config.step * np.arange(n)
    clipped = [l for l in lines if not (config.start <= l.frequency <= config.stop)]
    if clipped:
        listing = ", ".join(f"{l.lower}->{l.upper} at {l.frequency:g}"
                            for l in clipped[:_CLIPPED_SHOWN])
        if len(clipped) > _CLIPPED_SHOWN:
            listing += ", ..."
        warnings.warn(f"{len(clipped)} lines outside the synthesis grid: {listing}",
                      stacklevel=2)
    return freqs, profile_sum(lines, freqs, config.shape, config.fwhm)
