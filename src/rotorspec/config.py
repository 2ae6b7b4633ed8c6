"""Sectioned key-value run configuration shared by every CLI subcommand.

The format is INI-style with six required sections; every key has a
documented default and unknown keys and sections are rejected.  Each section
but the last is one model type, and every key of it sets a field of that type:

    [model]       rotor.RotorModel
    [band]        spectrum.VibrationBandModel  (dw_* -> extra_offsets)
    [population]  spectrum.PopulationModel  (fractions -> frozen_fractions)
    [synthesis]   spectrum.SpectrumConfig
    [crystal]     qubitplan.CrystalSpec
    [source]      linewidth_ghz, RunConfig.source_linewidth_ghz

The rules live in the validate() of the model types, which return (field,
message) pairs; parse_config maps them to [section] key and reports the
complete list before any basis is built.  The one rule spanning two
sections, the channel count of [synthesis] fwhm over [source] linewidth_ghz,
is RunConfig.validate's.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

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
    """One model type per section, and the source linewidth, which only the
    channel count of `plan` reads."""

    model: rotor.RotorModel
    band: spectrum.VibrationBandModel
    population: spectrum.PopulationModel
    synthesis: spectrum.SpectrumConfig
    crystal: qubitplan.CrystalSpec
    source_linewidth_ghz: float

    @classmethod
    def defaults(cls) -> "RunConfig":
        return parse_config(DEFAULT_CONFIG_TEXT)

    def validate(self) -> list[tuple[str, str, str]]:
        """Every problem of the run as (section, key, message): those of the
        model types, then the channel count, which spans two sections."""
        problems = [(section, "fractions" if field == "frozen_fractions" else field, msg)
                    for section in ("model", "band", "population", "synthesis", "crystal")
                    for field, msg in getattr(self, section).validate()]
        if self.synthesis.fwhm > 0:  # else [synthesis] fwhm is the problem
            try:
                qubitplan.addressable_channels(self.synthesis.fwhm, self.source_linewidth_ghz)
            except qubitplan.PlanError as exc:
                problems.append(("source", "linewidth_ghz", str(exc)))
        return problems


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_potential(text: str):
    terms = [chunk.partition(":") for chunk in text.split(",") if chunk.strip()]
    return tuple((int(rank), _finite(coeff)) for rank, _, coeff in terms)


def _parse_fractions(text: str):
    parts = [_finite(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions for A, E, F")
    return {"A": parts[0], "E": parts[1], "F": parts[2]}


#: parser kind -> converter of the raw text; an empty optional value is None
_CONVERTERS = {
    "float": _finite,
    "int": int,
    "str": str.strip,
    "optfloat": lambda raw: _finite(raw) if raw.strip() else None,
    "potential": _parse_potential,
    "fractions": lambda raw: _parse_fractions(raw) if raw.strip() else None,
}


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
                values[section][key] = _CONVERTERS[kind](raw)
            except (ValueError, TypeError) as exc:
                errors.append((section, key, f"cannot parse {raw!r}: {exc}"))
                values[section][key] = _CONVERTERS[kind](default)

    b, p = values["band"], values["population"]
    cfg = RunConfig(
        model=rotor.RotorModel(**values["model"]),
        band=spectrum.VibrationBandModel(
            nu0=b["nu0"], excited_scale=b["excited_scale"],
            extra_offsets={k: b[k] for k in spectrum.OFFSET_NAMES if b[k] is not None},
            lattice_freq=b["lattice_freq"], sum_band_scale=b["sum_band_scale"]),
        population=spectrum.PopulationModel(mode=p["mode"], T=p["T"],
                                            frozen_fractions=p["fractions"]),
        synthesis=spectrum.SpectrumConfig(**values["synthesis"]),
        crystal=qubitplan.CrystalSpec(**values["crystal"]),
        source_linewidth_ghz=values["source"]["linewidth_ghz"])
    errors += cfg.validate()
    if errors:
        raise ConfigError(sorted(set(errors), key=lambda e: (e[0], e[1] or "", e[2])))
    return replace(cfg, model=replace(cfg.model,
                                      potential=rotor.normalize_potential(cfg.model.potential)))


DEFAULT_CONFIG_TEXT = """\
[model]
[band]
[population]
[synthesis]
[crystal]
[source]
"""
