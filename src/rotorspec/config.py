"""Sectioned key-value run configuration shared by every CLI subcommand.

The format is INI-style with six required sections; every key has a
documented default and unknown keys and sections are rejected.  Each section
is one model type, a field of RunConfig, and each key of it is a field of
that type:

    [model]       rotor.RotorModel
    [band]        spectrum.VibrationBandModel
    [population]  spectrum.PopulationModel
    [synthesis]   spectrum.SpectrumConfig
    [crystal]     qubitplan.CrystalSpec
    [source]      qubitplan.SourceSpec

PARAMS, the registry of the keys, is read from those fields: a key takes its
default from its field and its converter from the field's type, and the
field's "fit_bound" metadata is `fit`'s default box.

The rules live in the validate() of the model types, which return (field,
message) pairs, a field being its key; parse_config reports them as
[section] key, the complete list before any basis is built.  The one rule
spanning two sections, the channel count of [synthesis] fwhm over [source]
linewidth_ghz, is RunConfig.validate's.
"""

from __future__ import annotations

import configparser
import io
import math
import typing
from dataclasses import dataclass, fields, replace

from . import qubitplan, rotor, spectrum

__all__ = ["RunConfig", "ConfigError", "Param", "PARAMS", "parse_config"]


class ConfigError(ValueError):
    """Carries the full list of (section, key, message) validation errors."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        lines = [f"[{s}] {k + ': ' if k else ''}{msg}" for s, k, msg in self.errors]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


@dataclass(frozen=True)
class RunConfig:
    """One model type per section."""

    model: rotor.RotorModel
    band: spectrum.VibrationBandModel
    population: spectrum.PopulationModel
    synthesis: spectrum.SpectrumConfig
    crystal: qubitplan.CrystalSpec
    source: qubitplan.SourceSpec

    def validate(self) -> list[tuple[str, str, str]]:
        """Every problem of the run as (section, key, message): those of the
        model types, then the channel count, which spans two sections."""
        problems = [(part.name, key, msg) for part in fields(self)
                    for key, msg in getattr(self, part.name).validate()]
        if self.synthesis.fwhm > 0:  # else [synthesis] fwhm is the problem
            try:
                qubitplan.addressable_channels(self.synthesis.fwhm, self.source.linewidth_ghz)
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


#: field type -> converter of the raw text; an empty optional value is None
_CONVERTERS = {
    float: _finite,
    int: int,
    str: str.strip,
    float | None: lambda raw: _finite(raw) if raw.strip() else None,
    tuple[tuple[int, float], ...]: _parse_potential,
    dict | None: lambda raw: _parse_fractions(raw) if raw.strip() else None,
}


@dataclass(frozen=True)
class Param:
    """A config key: the field of the section's model type `owner` that it
    names, that field's default, the converter of the key's text, and the
    default search box of `fit`, None for a key the fit cannot move."""

    section: str
    key: str
    owner: type
    default: object
    convert: typing.Callable[[str], object]
    fit_bound: tuple[float, float] | None = None

    def value(self, cfg: RunConfig):
        """This key's value in `cfg`."""
        return getattr(getattr(cfg, self.section), self.key)


def _registry():
    types = typing.get_type_hints(RunConfig)
    for part in fields(RunConfig):
        owner = types[part.name]
        kinds = typing.get_type_hints(owner)
        for f in fields(owner):
            yield Param(part.name, f.name, owner, f.default, _CONVERTERS[kinds[f.name]],
                        f.metadata.get("fit_bound"))


#: every config key, in the order of the fields of RunConfig and its model types
PARAMS = tuple(_registry())


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    errors: list[tuple[str, str | None, str]] = []
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (B vs beta)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError([("-", None, f"unparsable config: {exc}")]) from exc

    owners = {p.section: p.owner for p in PARAMS}
    errors += [(s, None, "required section missing") for s in owners if not parser.has_section(s)]
    errors += [(s, None, "unknown section") for s in parser.sections() if s not in owners]
    present = {s: dict(parser.items(s)) if parser.has_section(s) else {} for s in owners}
    known = {(p.section, p.key) for p in PARAMS}
    errors += [(s, key, "unknown key")
               for s, given in present.items() for key in given if (s, key) not in known]

    args: dict[str, dict] = {s: {} for s in owners}
    for p in PARAMS:
        raw = present[p.section].get(p.key)
        try:
            value = p.default if raw is None else p.convert(raw)
        except (ValueError, TypeError) as exc:
            errors.append((p.section, p.key, f"cannot parse {raw!r}: {exc}"))
            value = p.default
        args[p.section][p.key] = value

    cfg = RunConfig(**{section: owner(**args[section]) for section, owner in owners.items()})
    errors += cfg.validate()
    if errors:
        raise ConfigError(sorted(set(errors), key=lambda e: (e[0], e[1] or "", e[2])))
    return replace(cfg, model=replace(cfg.model,
                                      potential=rotor.normalize_potential(cfg.model.potential)))
