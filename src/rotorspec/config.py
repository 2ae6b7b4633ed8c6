"""Sectioned key-value run configuration shared by every CLI subcommand.

The format is INI-style with six required sections (model, band, population,
synthesis, crystal, source); every key has a documented default, unknown keys
and sections are rejected, and validation reports the complete error list
before any computation starts.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from . import qubitplan, rotor, spectrum

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULT_CONFIG_TEXT"]


class ConfigError(ValueError):
    """Carries the full list of (section, key, message) validation errors."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        lines = [f"[{s}] {k + ': ' if k else ''}{msg}" for s, k, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


#: section -> key -> (default string, parser kind)
_SCHEMA = {
    "model": {
        "B": ("5.9", "float"),
        "beta": ("1.0", "float"),
        "Jmax": ("10", "int"),
        "potential": ("3:-1.0", "potential"),
    },
    "band": {
        "nu0": ("3206.0", "float"),
        "excited_scale": ("1.0", "float"),
        "dw_L1_star": ("", "optfloat"),
        "dw_LE3_star": ("", "optfloat"),
        "lattice_freq": ("", "optfloat"),
        "sum_band_scale": ("0.1", "float"),
    },
    "population": {
        "mode": ("thermal", "str"),
        "T": ("7.0", "float"),
        "fractions": ("", "fractions"),
    },
    "synthesis": {
        "start": ("3150.0", "float"),
        "stop": ("3300.0", "float"),
        "step": ("0.05", "float"),
        "shape": ("gaussian", "str"),
        "fwhm": ("1.5", "float"),
    },
    "crystal": {
        "a_nm": ("1.0", "float"),
        "c": ("0.01", "float"),
        "mu_debye": ("1.0", "float"),
    },
    "source": {
        "linewidth_ghz": ("1.0", "float"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    model: rotor.RotorModel
    band: spectrum.VibrationBandModel
    population: spectrum.PopulationModel
    synthesis: spectrum.SpectrumConfig
    crystal: qubitplan.CrystalSpec
    source_linewidth_ghz: float
    lattice_freq: float | None
    sum_band_scale: float
    mu_debye: float

    @classmethod
    def defaults(cls) -> "RunConfig":
        return parse_config(DEFAULT_CONFIG_TEXT)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_potential(text: str):
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        rank_s, _, coeff_s = chunk.partition(":")
        terms.append((int(rank_s.strip()), _finite(coeff_s.strip())))
    if not terms:
        raise ValueError("expected rank:coefficient terms like '3:-1.0'")
    return tuple(terms)


def _parse_fractions(text: str):
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions for A, E, F")
    return {"A": parts[0], "E": parts[1], "F": parts[2]}


def _convert(kind: str, raw: str):
    if kind == "float":
        return _finite(raw)
    if kind == "int":
        return int(raw)
    if kind == "str":
        return raw.strip()
    if kind == "optfloat":
        return _finite(raw) if raw.strip() else None
    if kind == "potential":
        return _parse_potential(raw)
    if kind == "fractions":
        return _parse_fractions(raw) if raw.strip() else None
    raise AssertionError(kind)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    errors: list[tuple[str, str | None, str]] = []
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (B vs beta)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError([("-", None, f"unparsable config: {exc}")]) from exc

    for section in _SCHEMA:
        if not parser.has_section(section):
            errors.append((section, None, "required section missing"))
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append((section, None, "unknown section"))

    values: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        values[section] = {}
        present = dict(parser.items(section)) if parser.has_section(section) else {}
        for key in present:
            if key not in keys:
                errors.append((section, key, "unknown key"))
        for key, (default, kind) in keys.items():
            raw = present.get(key, default)
            try:
                values[section][key] = _convert(kind, raw)
            except (ValueError, TypeError) as exc:
                errors.append((section, key, f"cannot parse {raw!r}: {exc}"))
                values[section][key] = _convert(kind, default)

    m, b, p, s, c, src = (values["model"], values["band"], values["population"],
                          values["synthesis"], values["crystal"], values["source"])

    # per-key invariants, attributed to section and key
    if not m["B"] > 0:
        errors.append(("model", "B", f"must be positive, got {m['B']}"))
    if m["beta"] < 0:
        errors.append(("model", "beta", f"must be non-negative, got {m['beta']}"))
    if m["Jmax"] < 2:
        errors.append(("model", "Jmax", f"must be >= 2, got {m['Jmax']}"))
    for rank, _ in m["potential"]:
        if rank not in rotor.SUPPORTED_RANKS:
            errors.append(("model", "potential", f"unsupported rank {rank}"))
    if not b["nu0"] > 0:
        errors.append(("band", "nu0", f"must be positive, got {b['nu0']}"))
    if not b["excited_scale"] > 0:
        errors.append(("band", "excited_scale", f"must be positive, got {b['excited_scale']}"))
    if b["lattice_freq"] is not None and b["lattice_freq"] < 0:
        errors.append(("band", "lattice_freq", f"must be non-negative, got {b['lattice_freq']}"))
    if b["sum_band_scale"] < 0:
        errors.append(("band", "sum_band_scale", f"must be non-negative, got {b['sum_band_scale']}"))
    if p["mode"] not in ("thermal", "spin_frozen"):
        errors.append(("population", "mode", f"must be thermal or spin_frozen, got {p['mode']!r}"))
    if not p["T"] > 0:
        errors.append(("population", "T", f"must be positive, got {p['T']}"))
    if p["fractions"] is not None:
        if any(v < 0 for v in p["fractions"].values()):
            errors.append(("population", "fractions", "must be non-negative"))
        elif abs(sum(p["fractions"].values()) - 1.0) > 1e-12:
            errors.append(("population", "fractions",
                           f"must sum to 1, got {sum(p['fractions'].values())!r}"))
    if not s["start"] < s["stop"]:
        errors.append(("synthesis", "start", f"start {s['start']} must be below stop {s['stop']}"))
    if not s["step"] > 0:
        errors.append(("synthesis", "step", f"must be positive, got {s['step']}"))
    if s["shape"] not in ("gaussian", "lorentzian"):
        errors.append(("synthesis", "shape", f"must be gaussian or lorentzian, got {s['shape']!r}"))
    if not s["fwhm"] > 0:
        errors.append(("synthesis", "fwhm", f"must be positive, got {s['fwhm']}"))
    if not c["a_nm"] > 0:
        errors.append(("crystal", "a_nm", f"must be positive, got {c['a_nm']}"))
    if not 0 < c["c"] <= 1:
        errors.append(("crystal", "c", f"must be in (0, 1], got {c['c']}"))
    if c["mu_debye"] < 0:
        errors.append(("crystal", "mu_debye", f"must be non-negative, got {c['mu_debye']}"))
    if not src["linewidth_ghz"] > 0:
        errors.append(("source", "linewidth_ghz", f"must be positive, got {src['linewidth_ghz']}"))

    if errors:
        raise ConfigError(sorted(set(errors), key=lambda e: (e[0], e[1] or "", e[2])))

    offsets = {}
    if b["dw_L1_star"] is not None:
        offsets["dw_L1_star"] = b["dw_L1_star"]
    if b["dw_LE3_star"] is not None:
        offsets["dw_LE3_star"] = b["dw_LE3_star"]
    return RunConfig(
        model=rotor.RotorModel.create(B=m["B"], beta=m["beta"],
                                      potential=m["potential"], Jmax=m["Jmax"]),
        band=spectrum.VibrationBandModel(nu0=b["nu0"], excited_scale=b["excited_scale"],
                                         extra_offsets=offsets),
        population=spectrum.PopulationModel(mode=p["mode"], T=p["T"],
                                            frozen_fractions=p["fractions"]),
        synthesis=spectrum.SpectrumConfig(start=s["start"], stop=s["stop"],
                                          step=s["step"], shape=s["shape"], fwhm=s["fwhm"]),
        crystal=qubitplan.CrystalSpec(a_nm=c["a_nm"], c=c["c"]),
        source_linewidth_ghz=src["linewidth_ghz"],
        lattice_freq=b["lattice_freq"],
        sum_band_scale=b["sum_band_scale"],
        mu_debye=c["mu_debye"],
    )


DEFAULT_CONFIG_TEXT = """\
[model]
[band]
[population]
[synthesis]
[crystal]
[source]
"""
