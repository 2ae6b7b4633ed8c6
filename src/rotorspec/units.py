"""Physical constants and unit conversions.

Single definition site for every conversion factor used in the package;
all modules import from here rather than re-deriving values.
"""

# 1 cm^-1 in GHz (exact, c = 299792458 m/s)
GHZ_PER_INV_CM = 29.9792458

# largest level energy or band offset in cm^-1 the models accept: a line
# frequency sums at most four such terms, and 4e306 cm^-1 is 1.2e308 GHz,
# still finite
MAX_CM1 = 1e306

# Boltzmann constant over hc, cm^-1 per kelvin (CODATA 2018, exact SI)
KB_CM1_PER_K = 0.695034800

# CODATA SI values for the dipole-coupling estimate
PLANCK_J_S = 6.62607015e-34          # J s (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
DEBYE_C_M = 3.33564095198152e-30     # C m per debye
NM_M = 1.0e-9


def cm1_to_ghz(value_cm1: float) -> float:
    return value_cm1 * GHZ_PER_INV_CM


def thermal_energy_cm1(temperature_k: float) -> float:
    """kT in cm^-1."""
    return KB_CM1_PER_K * temperature_k
