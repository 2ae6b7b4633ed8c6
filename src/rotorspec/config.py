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

PARAMS, the registry of the keys, is read from the fields of RunConfig and
its model types: a key takes its default from its field and its converter
from the field's type.  Field metadata holds the rest: a "key" (and
"section") other than the field name, and "fit_bound", `fit`'s default box.

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
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

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
    """One model type per section, and the source linewidth, which only the
    channel count of `plan` reads."""

    model: rotor.RotorModel
    band: spectrum.VibrationBandModel
    population: spectrum.PopulationModel
    synthesis: spectrum.SpectrumConfig
    crystal: qubitplan.CrystalSpec
    source_linewidth_ghz: float = field(default=1.0,
                                        metadata={"section": "source", "key": "linewidth_ghz"})

    def validate(self) -> list[tuple[str, str, str]]:
        """Every problem of the run as (section, key, message): those of the
        model types, a dw offset's named by its key, then the channel count,
        which spans two sections."""
        keys = {(p.section, p.field): p.key for p in PARAMS if p.owner is not RunConfig}
        keys |= {(p.section, p.key): p.key for p in PARAMS if p.field == "extra_offsets"}
        problems = [(section, keys[section, name], msg)
                    for section in dict.fromkeys(section for section, _ in keys)
                    for name, msg in getattr(self, section).validate()]
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
    """A config key: the field of `owner` it sets (a dw key: its entry of
    extra_offsets), that field's default, the converter of the key's text,
    and the default search box of `fit`, None for a key the fit cannot move."""

    section: str
    key: str
    owner: type
    field: str
    default: object
    convert: typing.Callable[[str], object]
    fit_bound: tuple[float, float] | None = None

    def value(self, cfg: RunConfig):
        """This key's value in `cfg`; None for a dw it leaves unset."""
        value = getattr(cfg if self.owner is RunConfig else getattr(cfg, self.section), self.field)
        return value.get(self.key) if self.field == "extra_offsets" else value


def _registry():
    types = typing.get_type_hints(RunConfig)
    for part in fields(RunConfig):
        if is_dataclass(types[part.name]):
            owner, section, owned = types[part.name], part.name, fields(types[part.name])
        else:  # RunConfig's own field
            owner, section, owned = RunConfig, part.metadata["section"], [part]
        kinds = typing.get_type_hints(owner)
        for f in owned:
            if f.name == "extra_offsets":  # one optional key per entry
                yield from (Param(section, key, owner, f.name, None, _CONVERTERS[float | None])
                            for key in spectrum.OFFSET_NAMES)
            else:
                yield Param(section, f.metadata.get("key", f.name), owner, f.name, f.default,
                            _CONVERTERS[kinds[f.name]], f.metadata.get("fit_bound"))


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
        if p.field != "extra_offsets":
            args[p.section][p.field] = value
        elif value is not None:  # an unset dw is no entry
            args[p.section].setdefault(p.field, {})[p.key] = value

    cfg = RunConfig(**{section: owner(**args[section]) for section, owner in owners.items()
                       if owner is not RunConfig}, **args["source"])
    errors += cfg.validate()
    if errors:
        raise ConfigError(sorted(set(errors), key=lambda e: (e[0], e[1] or "", e[2])))
    return replace(cfg, model=replace(cfg.model,
                                      potential=rotor.normalize_potential(cfg.model.potential)))
