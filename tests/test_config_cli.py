"""Configuration parsing and the command-line pipeline."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspec import cli, config, fitting, qubitplan, rotor, spectrum
from reference import DEFAULT_CONFIG_TEXT
from rotorspec.config import ConfigError, parse_config

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "docs" / "schemas"

FAST_CONFIG = """\
[model]
B = 5.503275318502903
beta = 1.0
Jmax = 6

[band]
nu0 = 3206.0
dw_L1_star = 24.0
dw_LE3_star = 29.0

[population]
mode = spin_frozen
T = 7.0

[synthesis]
start = 3150
stop = 3300
step = 0.2
fwhm = 1.5

[crystal]
a_nm = 1.0
c = 0.01

[source]
linewidth_ghz = 1.0
"""


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


# ---------------------------------------------------------------- parsing

def test_minimal_config_echoes_defaults():
    cfg = parse_config(DEFAULT_CONFIG_TEXT)
    assert cfg.model.B == 5.9
    assert cfg.model.Jmax == 10
    assert cfg.band.excited_scale == 1.0
    assert cfg.population.mode == "thermal"
    assert cfg.synthesis.fwhm == 1.5
    assert cfg.crystal.c == 0.01
    assert cfg.band.lattice_freq is None


def test_negative_beta_names_section_and_key():
    text = DEFAULT_CONFIG_TEXT.replace("[model]", "[model]\nbeta = -1")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert ("model", "beta") in {(s, k) for s, k, _ in err.value.errors}


def test_empty_text_lists_every_required_section():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    missing = {s for s, k, _ in err.value.errors if k is None}
    assert missing == {"model", "band", "population", "synthesis", "crystal", "source"}


def test_unknown_key_and_section_rejected():
    text = DEFAULT_CONFIG_TEXT + "\n[extra]\nx = 1\n"
    text = text.replace("[model]", "[model]\nmass = 17")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    found = {(s, k) for s, k, _ in err.value.errors}
    assert ("extra", None) in found
    assert ("model", "mass") in found


def test_all_errors_reported_at_once():
    text = """\
[model]
beta = -2
Jmax = 1

[band]
nu0 = -5

[population]
T = 0

[synthesis]
step = -1

[crystal]
c = 2

[source]
linewidth_ghz = 0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    keys = {(s, k) for s, k, _ in err.value.errors}
    assert {("model", "beta"), ("model", "Jmax"), ("band", "nu0"),
            ("population", "T"), ("synthesis", "step"), ("crystal", "c"),
            ("source", "linewidth_ghz")} <= keys


def test_type_error_collected():
    text = DEFAULT_CONFIG_TEXT.replace("[model]", "[model]\nB = forty")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(s == "model" and k == "B" and "parse" in m
               for s, k, m in err.value.errors)


def test_potential_parsing():
    text = DEFAULT_CONFIG_TEXT.replace("[model]", "[model]\npotential = 3:-1.0, 4:0.3")
    cfg = parse_config(text)
    assert [r for r, _ in cfg.model.potential] == [3, 4]


def test_fractions_parsing():
    text = DEFAULT_CONFIG_TEXT.replace(
        "[population]", "[population]\nmode = spin_frozen\nfractions = 0.25, 0.25, 0.5")
    cfg = parse_config(text)
    assert cfg.population.frozen_fractions == {"A": 0.25, "E": 0.25, "F": 0.5}


@pytest.mark.parametrize("section,line", [
    ("model", "beta = nan"),
    ("model", "potential = 3:inf"),
    ("band", "dw_L1_star = -inf"),
    ("population", "fractions = nan, 0.5, 0.5"),
])
def test_non_finite_value_names_section_and_key(section, line):
    text = DEFAULT_CONFIG_TEXT.replace(f"[{section}]", f"[{section}]\n{line}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    key = line.split(" = ")[0]
    assert any(s == section and k == key and "finite" in m
               for s, k, m in err.value.errors)


#: one rule-breaking line per rule a config key has
_RULE_CASES = [
    ("model", "B = 0"), ("model", "B = 1e307"), ("model", "beta = -1"), ("model", "Jmax = 1"),
    ("model", "potential = 5:1.0, 3:-1.0"), ("model", "potential = "),
    ("model", "potential = 3:0"), ("model", "potential = 3:-1.0, 3:1.0"),
    ("model", "potential = 3:1e308"),
    ("band", "nu0 = 0"), ("band", "excited_scale = 0"), ("band", "lattice_freq = -1"),
    ("band", "sum_band_scale = -1"), ("band", "nu0 = 1e307"), ("band", "lattice_freq = 1e308"),
    ("population", "mode = frozen"), ("population", "T = 0"),
    ("population", "fractions = -0.5, 0.75, 0.75"), ("population", "fractions = 0.5, 0.2, 0.2"),
    ("synthesis", "start = 3400"), ("synthesis", "step = 0"), ("synthesis", "shape = voigt"),
    ("synthesis", "step = 1e-9"), ("synthesis", "fwhm = 0"), ("synthesis", "fwhm = 0.01"),
    ("crystal", "a_nm = 0"), ("crystal", "c = 0"), ("crystal", "mu_debye = -1"),
    ("source", "linewidth_ghz = 0"),
]


@pytest.mark.parametrize("section,line", _RULE_CASES)
def test_each_rule_names_its_section_and_key(section, line):
    text = DEFAULT_CONFIG_TEXT.replace(f"[{section}]", f"[{section}]\n{line}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert {(s, k) for s, k, _ in err.value.errors} == {(section, line.split(" = ")[0])}


@pytest.mark.parametrize("key", spectrum.OFFSET_NAMES)
def test_overflowing_dw_offset_names_its_key(key):
    # the offset is an entry of extra_offsets, but the error names its own key
    text = DEFAULT_CONFIG_TEXT.replace("[band]", f"[band]\n{key} = -1e307")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert [(s, k) for s, k, _ in err.value.errors] == [("band", key)]
    assert "overflow in GHz" in err.value.errors[0][2]


#: (section, key) -> the registry entry of that config key
_PARAMS = {(p.section, p.key): p for p in config.PARAMS}
_SECTIONS = tuple(dict.fromkeys(p.section for p in config.PARAMS))


@pytest.mark.parametrize("section,line", [case for case in _RULE_CASES if case[0] != "source"])
def test_each_rule_lives_in_its_model_type(section, line):
    """The section's model type, built with the value, names the key's field
    in its validate(); only the source linewidth has no model type."""
    key, _, raw = line.partition(" = ")
    param = _PARAMS[section, key]
    value = param.convert(raw)
    owner = replace(getattr(parse_config(DEFAULT_CONFIG_TEXT), section), **{param.field: value})
    assert param.field in {f for f, _ in owner.validate()}


def test_readme_agrees_with_the_registry():
    """The README's config block names every config key, and no other, with
    its field's default, read by the key's own converter ("unset" is None);
    the potential is compared normalized, as RotorModel holds it.  Its fit
    table gives PARAM_DEFAULTS and PARAM_BOUNDS."""
    text = (REPO / "README.md").read_text()
    shown = {}
    for line in text.split("Config sections and keys", 1)[1].split("```")[1].splitlines():
        if line.startswith("["):
            section = line[1:line.index("]")]
            continue
        for keys, default in re.findall(r"(?<![\w.])(\w+(?:, \w+)*) \(([^)]*)\)", line):
            for key in keys.split(", "):
                shown[section, key] = default.split()[0]
    assert set(shown) == set(_PARAMS)
    for (section, key), raw in shown.items():
        param = _PARAMS[section, key]
        value = None if raw == "unset" else param.convert(raw)
        if key == "potential":
            assert rotor.normalize_potential(value) == rotor.normalize_potential(param.default)
        else:
            assert value == param.default, (section, key)

    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \.\. ([^|]+) \|$", text, re.M)
    assert {name: float(start) for name, start, _, _ in rows} == fitting.PARAM_DEFAULTS
    assert {name: (float(lo), float(hi)) for name, _, lo, hi in rows} == fitting.PARAM_BOUNDS


def test_jmax_bounded_by_memory(monkeypatch):
    def no_basis(jmax):
        raise AssertionError("parse_config built a basis")

    monkeypatch.setattr(rotor, "_basis_layout", no_basis)
    text = DEFAULT_CONFIG_TEXT.replace("[model]", "[model]\nJmax = 60")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    [(section, key, message)] = err.value.errors
    assert (section, key) == ("model", "Jmax")
    assert message.count("GB") == 2
    shipped = (REPO / "configs" / "atpb.cfg").read_text()
    assert parse_config(shipped.replace("Jmax = 10", "Jmax = 14")).model.Jmax == 14
    with pytest.raises(rotor.RotorError, match="Jmax 60 needs about"):
        rotor.hamiltonian_matrix(rotor.RotorModel(Jmax=60))


_UNKNOWN_KEYS = ("mass", "b", "JMAX", "dw_L2_star")
_ODD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "5e-324",
                     "99999999999999999999", "forty", "", "3:0", "2:1", "3:-1.0, 4:0.3",
                     "0.2, 0.3, 0.5", "0.5, 0.2, 0.2", "-1, 1, 1", "spin_frozen", "lorentzian"]),
    st.floats().map(repr),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.builds("{}:{!r}".format, st.integers(min_value=2, max_value=5), st.floats()),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12),
)
_ODD_TURN = st.sampled_from([False, False, False, True])


def _text(param) -> str:
    """Config text of a key's default."""
    if param.default is None:
        return ""
    if param.key == "potential":
        return ", ".join(f"{rank}:{weight!r}" for rank, weight in param.default)
    return str(param.default)


@st.composite
def _config_texts(draw):
    """All six sections; up to three keys each, one in four set to an odd
    value and the rest to their default; in half the examples one unknown key."""
    stray = draw(st.sampled_from([*_SECTIONS] + [None] * 6))
    sections = []
    for section in _SECTIONS:
        keys = sorted(key for s, key in _PARAMS if s == section)
        names = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
        lines = [f"{n} = {draw(_ODD_VALUES) if draw(_ODD_TURN) else _text(_PARAMS[section, n])}"
                 for n in names]
        if section == stray:
            lines.append(f"{draw(st.sampled_from(_UNKNOWN_KEYS))} = {draw(_ODD_VALUES)}")
        sections.append("\n".join([f"[{section}]"] + lines))
    return "\n\n".join(sections) + "\n"


@settings(max_examples=150)
@given(_config_texts())
def test_parse_config_returns_or_names_every_problem(text):
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        assert err.errors
        for section, key, message in err.errors:
            assert section in _SECTIONS
            assert (section, key) in _PARAMS or (key in _UNKNOWN_KEYS
                                                 and message == "unknown key")
    else:
        vmin, vmax = rotor.potential_range(cfg.model.potential)
        assert vmax - vmin == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------- CLI

@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(FAST_CONFIG)
    return tmp_path


def test_cli_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_cli_no_subcommand_exits_1(capsys):
    assert cli.main([]) == 1


def test_cli_symmetry_text_and_json(workdir, capsys):
    assert cli.main(["symmetry"]) == 0
    text = capsys.readouterr().out
    assert "group Td (order 24)" in text
    assert "A: weight 5, total 5 of 16" in text
    assert cli.main(["symmetry", "--json", "--out", "sym.json"]) == 0
    payload = json.loads((workdir / "sym.json").read_text())
    assert {t["name"] for t in payload["tables"]} == {"T", "Td", "D2d", "C3v", "TxT"}


def test_cli_symmetry_raman_count(capsys):
    assert cli.main(["symmetry", "--raman-count", "A1,E,F2,F2"]) == 0
    assert ": 4" in capsys.readouterr().out


def test_cli_levels_csv_header(workdir):
    rc = cli.main(["levels", "--config", "run.cfg", "--format", "csv",
                   "--out", "levels.csv", "--max-energy", "40"])
    assert rc == 0
    lines = (workdir / "levels.csv").read_text().splitlines()
    assert lines[0] == "energy_cm1,degeneracy,label,spin,ordinal"
    first = lines[1].split(",")
    assert first[2] == "A1" and first[3] == "A"


def test_cli_levels_json_schema(workdir):
    rc = cli.main(["levels", "--config", "run.cfg", "--format", "json",
                   "--out", "levels.json", "--max-energy", "40"])
    assert rc == 0
    payload = json.loads((workdir / "levels.json").read_text())
    jsonschema.validate(payload, _schema("levels.schema.json"))


def test_cli_levels_invalid_config_exits_1(workdir, capsys):
    (workdir / "bad.cfg").write_text(FAST_CONFIG.replace("beta = 1.0", "beta = -1"))
    assert cli.main(["levels", "--config", "bad.cfg"]) == 1
    assert "beta" in capsys.readouterr().err


def test_cli_levels_reads_the_label_blocks(workdir, monkeypatch):
    # the level table comes from the fit's label blocks: the dense solve and
    # the classification are never called, and the three exchange pairs
    # share a solve, so the ten labels take seven
    def fail(*args, **kwargs):
        raise AssertionError("levels ran the dense path")

    monkeypatch.setattr(rotor, "diagonalize", fail)
    monkeypatch.setattr(rotor, "classify_levels", fail)
    solved, eigenvalues = [], rotor.LevelGapCache.eigenvalues

    def counted(self, beta, label):
        solved.append(label)
        return eigenvalues(self, beta, label)

    monkeypatch.setattr(rotor.LevelGapCache, "eigenvalues", counted)
    assert cli.main(["levels", "--config", "run.cfg", "--format", "csv",
                     "--out", "levels.csv", "--max-energy", "40"]) == 0
    assert sorted(solved) == ["A1", "A2", "A3", "E2", "E3", "E4", "L1"]
    rows = (workdir / "levels.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[1:] == ["1", "A1", "A", "1"]


def test_cli_spectrum_non_integral_cluster_exits_2(workdir, capsys, monkeypatch):
    # eigenvalues spread one apart cut each degenerate cluster into single
    # columns with fractional irrep content: a numerical failure, exit 2
    # (every column is kept, as the cut of the spread energies needs more)
    diagonalize = rotor.diagonalize
    monkeypatch.setattr(rotor, "diagonalize", lambda model, max_energy=None: replace(
        diagonalize(model), energies=np.arange(float(len(rotor.build_basis(model.Jmax))))))
    assert cli.main(["spectrum", "--config", "run.cfg", "--max-energy", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the 1-state cluster at 1 cm^-1 has non-integral")


def test_cli_spectrum_names_max_energy_when_ground_levels_lie_above_it(workdir, capsys):
    # at B = 1e300 cm^-1 only the ground cluster lies below the default cut;
    # the message names the flag and, from the level table, where the
    # missing levels lie
    (workdir / "huge.cfg").write_text(FAST_CONFIG.replace("B = 5.503275318502903", "B = 1e300")
                                      .replace("Jmax = 6", "Jmax = 4"))
    rc = cli.main(["spectrum", "--config", "huge.cfg"])
    assert rc == 1
    table = rotor.LevelGapCache(rotor.DEFAULT_POTENTIAL, 4).levels(1e300, 1.0)
    l1, e2 = (rotor.find_level(table, name).energy for name in ("L1", "E2"))
    assert 1e300 < l1 < e2 < math.inf
    assert capsys.readouterr().err == ("error: required ground levels missing below "
                                       f"--max-energy 150 cm-1: (L1)1 at {l1:.6g} cm-1, "
                                       f"(E2)1 at {e2:.6g} cm-1\n")


@pytest.mark.parametrize("command", ["levels", "spectrum"])
def test_cli_rejects_a_b_whose_level_energies_overflow(workdir, capsys, command):
    # |V| <= 1, so no level lies above B * (Jmax(Jmax+1) + 2 beta), 22 B at
    # Jmax 4: B = 1e307 is rejected under its key, where the levels once
    # overflowed with a RuntimeWarning, and B = 1e300 runs as it did
    for B, rc in (("1e307", 1), ("1e300", 0 if command == "levels" else 1)):
        (workdir / "huge.cfg").write_text(FAST_CONFIG.replace("B = 5.503275318502903", f"B = {B}")
                                          .replace("Jmax = 6", "Jmax = 4"))
        assert cli.main([command, "--config", "huge.cfg"]) == rc
        err = capsys.readouterr().err
        if B == "1e307":
            assert err == ("error: invalid configuration:\n  [model] B: B must be at most "
                           "4.54545e+304 cm-1 at Jmax 4 and beta 1, else level energies can "
                           "exceed 1e+306 cm-1 and overflow; got 1e+307\n")
        elif command == "levels":
            assert err == ""
        else:
            assert err.startswith("error: required ground levels missing below --max-energy")


@pytest.mark.parametrize("edit, message", [
    (("dw_L1_star = 24.0", "dw_L1_star = -5000"),
     "[band] dw_L1_star: line (L1)1 -> (L1)2* at -1794.0 cm-1"),
    (("nu0 = 3206.0", "nu0 = 3206.0\nexcited_scale = 1e300"),
     "[band] excited_scale: line (L1)1 -> (A1)1* at -1.1000001"),
])
def test_cli_spectrum_names_the_key_of_a_negative_line(workdir, capsys, edit, message):
    # both pass validation, as their lower limit depends on the level table;
    # the line's offset from nu0 is the override's, else the scaled table's
    (workdir / "neg.cfg").write_text(FAST_CONFIG.replace(*edit).replace("Jmax = 6", "Jmax = 4"))
    assert cli.main(["spectrum", "--config", "neg.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.endswith(" cm-1 is negative or overflows in GHz\n") and err.count("\n") == 1


def test_cli_spectrum_band_offsets_at_their_bound_run(workdir):
    # nu0, a dw offset and lattice_freq at spectrum.MAX_BAND_CM1 place lines
    # that spectrum.Line accepts, finite in GHz
    (workdir / "bound.cfg").write_text(FAST_CONFIG.replace(
        "nu0 = 3206.0", "nu0 = 1e306\nlattice_freq = 1e306").replace(
        "dw_L1_star = 24.0", "dw_L1_star = 1e306"))
    rc = cli.main(["spectrum", "--config", "bound.cfg", "--sticks", "bound.csv",
                   "--out-spectrum", "bound_spec.csv", "--max-energy", "40"])
    assert rc == 0
    freqs = [float(r.split(",")[0]) for r in (workdir / "bound.csv").read_text().splitlines()[1:]]
    assert max(freqs) == pytest.approx(3e306)


def test_cli_spectrum_outputs_and_clip_warning(workdir, capsys):
    # Raman lines feed the sticks only, so every line of the envelope is on grid
    assert cli.main(["spectrum", "--config", "run.cfg", "--max-energy", "40"]) == 0
    assert capsys.readouterr().err == ""
    # a grid stopping at 3220 cm-1 clips the IR lines above it
    (workdir / "short.cfg").write_text(FAST_CONFIG.replace("stop = 3300", "stop = 3220"))
    rc = cli.main(["spectrum", "--config", "short.cfg", "--sticks", "sticks.csv",
                   "--out-spectrum", "spec.csv", "--svg", "spec.svg",
                   "--max-energy", "40"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "outside the synthesis grid" in captured.err
    assert "44.97 GHz" in captured.out
    sticks = (workdir / "sticks.csv").read_text().splitlines()
    assert sticks[0] == "frequency_cm1,intensity,lower,upper,activity"
    spec = (workdir / "spec.csv").read_text().splitlines()
    assert spec[0] == "frequency_cm1,amplitude"
    svg = (workdir / "spec.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_spectrum_at_sub_kelvin_spin_frozen_temperature(workdir):
    # only the lowest level of each frozen species is populated at 0.05 K
    (workdir / "cold.cfg").write_text(FAST_CONFIG.replace("T = 7.0", "T = 0.05"))
    rc = cli.main(["spectrum", "--config", "cold.cfg", "--sticks", "cold.csv",
                   "--out-spectrum", "cold_spec.csv", "--max-energy", "40"])
    assert rc == 0
    rows = (workdir / "cold.csv").read_text().splitlines()[1:]
    assert rows and {r.split(",")[2] for r in rows} == {"(A1)1", "(L1)1", "(E2)1"}


def test_cli_spectrum_emits_lattice_sum_bands(workdir):
    cfg = FAST_CONFIG.replace("[band]", "[band]\nlattice_freq = 66.0")
    (workdir / "lat.cfg").write_text(cfg)
    rc = cli.main(["spectrum", "--config", "lat.cfg", "--sticks", "lat.csv",
                   "--out-spectrum", "lat_spec.csv", "--max-energy", "40"])
    assert rc == 0
    rows = [r for r in (workdir / "lat.csv").read_text().splitlines() if "+lat" in r]
    assert rows
    anchors = [r for r in rows if r.split(",")[2] == "(A1)1"]
    assert anchors and float(anchors[0].split(",")[0]) == pytest.approx(3283.0, abs=1e-5)


def test_cli_spectrum_deterministic(workdir):
    for out in ("a", "b"):
        rc = cli.main(["spectrum", "--config", "run.cfg",
                       "--sticks", f"sticks_{out}.csv",
                       "--out-spectrum", f"spec_{out}.csv",
                       "--max-energy", "40"])
        assert rc == 0
    assert (workdir / "sticks_a.csv").read_bytes() == (workdir / "sticks_b.csv").read_bytes()
    assert (workdir / "spec_a.csv").read_bytes() == (workdir / "spec_b.csv").read_bytes()


def test_cli_fit_pipeline(workdir):
    (workdir / "peaks.csv").write_text(
        "frequency_cm1,intensity,label\n"
        "3206.0,1.0,(L1)1->(L1)1*\n"
        "3217.0,9.0,(A1)1->(L1)1*\n"
        "3230.0,0.5,(L1)1->(L1)2*\n"
        "3235.0,0.2,(L1)1->(E3)1*\n"
    )
    rc = cli.main(["fit", "--config", "run.cfg", "--peaks", "peaks.csv",
                   "--starts", "2", "--seed", "0", "--out", "fit.json"])
    assert rc == 0
    payload = json.loads((workdir / "fit.json").read_text())
    jsonschema.validate(payload, _schema("fit_report.schema.json"))
    assert payload["converged"] is True
    assert max(abs(r["residual_cm1"]) for r in payload["residuals"]) < 1e-6


def test_cli_fit_starts_from_the_config(workdir):
    """Every parameter the config sets and the fit leaves fixed is reported
    at the config's value, the dw pair included; a position fit has no
    intensity scale."""
    given = {"B": 5.6, "beta": 1.2, "excited_scale": 1.1, "fwhm": 2.0,
             "dw_L1_star": 23.0, "dw_LE3_star": 30.0}
    text = FAST_CONFIG
    for old, new in (("B = 5.503275318502903", "B = 5.6"), ("beta = 1.0", "beta = 1.2"),
                     ("nu0 = 3206.0", "nu0 = 3206.0\nexcited_scale = 1.1"),
                     ("fwhm = 1.5", "fwhm = 2.0"), ("dw_L1_star = 24.0", "dw_L1_star = 23.0"),
                     ("dw_LE3_star = 29.0", "dw_LE3_star = 30.0")):
        text = text.replace(old, new)
    (workdir / "run.cfg").write_text(text)
    rc = cli.main(["fit", "--config", "run.cfg", "--peaks", str(REPO / "configs/atpb_peaks.csv"),
                   "--free", "nu0", "--starts", "1", "--out", "fit.json"])
    assert rc in (0, 2)
    values = json.loads((workdir / "fit.json").read_text())["values"]
    assert {k: v for k, v in values.items() if k != "nu0"} == given


def test_readme_fit_reports_starts_run(workdir):
    # the README's `rotorspec fit` example, its shipped inputs as absolute paths
    text = (REPO / "README.md").read_text().replace("\\\n", " ")
    line = next(l for l in text.splitlines() if l.startswith("rotorspec fit "))
    args = [str(REPO / a) if a.startswith("configs/") else a for a in shlex.split(line)[1:]]
    starts = cli._build_parser().parse_args(args).starts
    assert cli.main(args) == 0
    payload = json.loads((workdir / "fit.json").read_text())
    jsonschema.validate(payload, _schema("fit_report.schema.json"))
    assert payload["converged"] is True
    assert 1 <= payload["starts_run"] <= starts


def test_cli_fit_bad_header_exits_1(workdir, capsys):
    (workdir / "peaks.csv").write_text("freq,int,label\n3206,1,x\n")
    assert cli.main(["fit", "--config", "run.cfg", "--peaks", "peaks.csv"]) == 1
    assert "header" in capsys.readouterr().err


def test_cli_fit_requires_input(workdir, capsys):
    assert cli.main(["fit", "--config", "run.cfg"]) == 1
    assert cli.main(["fit", "--config", "run.cfg", "--mode", "envelope"]) == 1


def test_cli_plan_pipeline(workdir):
    (workdir / "lines.csv").write_text(
        "frequency_cm1,intensity,lower,upper,activity\n"
        "3206.0,0.14,(L1)1,(L1)1*,IR\n"
        "3217.0,0.31,(A1)1,(L1)1*,IR\n"
        "3230.0,0.14,(L1)1,(L1)2*,IR\n"
        "3235.0,0.03,(L1)1,(E3)1*,IR\n"
    )
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv",
                   "--out", "plan.json", "--mc-samples", "20000", "--seed", "1"])
    assert rc == 0
    payload = json.loads((workdir / "plan.json").read_text())
    jsonschema.validate(payload, _schema("plan_report.schema.json"))
    assert payload["channels"] == 44
    assert payload["delta_omega_pairs"][0]["delta_cm1"] == pytest.approx(29.0)
    assert payload["monte_carlo"]["relative_deviation"] < 0.05


def test_cli_fit_nonconvergence_exits_2(workdir):
    # envelope grid far away from every model line -> diagnostic + exit 2
    (workdir / "flat.csv").write_text(
        "frequency_cm1,amplitude\n" +
        "".join(f"{500.0 + i},1.0\n" for i in range(40)))
    rc = cli.main(["fit", "--config", "run.cfg", "--mode", "envelope",
                   "--envelope", "flat.csv", "--free", "nu0", "--starts", "1"])
    assert rc == 2


def test_cli_fit_beta_box_narrower_than_the_difference_step(workdir, capsys):
    # the box [0, 1e-8] is narrower than the solver's difference step on
    # both sides; a step out of it would ask for a rotor model at beta < 0
    (workdir / "j4.cfg").write_text((REPO / "configs" / "atpb.cfg").read_text()
                                    .replace("Jmax = 10", "Jmax = 4"))
    assert cli.main(["spectrum", "--config", "j4.cfg", "--out-spectrum", "env.csv"]) == 0
    capsys.readouterr()
    rc = cli.main(["fit", "--config", "j4.cfg", "--mode", "envelope", "--envelope", "env.csv",
                   "--free", "beta", "--bound", "beta", "0", "1e-8", "--starts", "1"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "  beta           = 1e-08\n" in out


@pytest.mark.parametrize("mode", ["positions", "envelope"])
def test_cli_fit_rejects_an_overflowing_input(workdir, capsys, mode):
    # exit 1 naming the file, before the solver starts and without warnings
    if mode == "positions":
        (workdir / "obs.csv").write_text("frequency_cm1,intensity,label\n1e200,1,\n3217,1,\n")
        args = ["--peaks", "obs.csv"]
    else:
        (workdir / "obs.csv").write_text("frequency_cm1,amplitude\n" + "".join(
            f"{3200.0 + i},{1e200 if i == 17 else 0.0}\n" for i in range(40)))
        args = ["--mode", "envelope", "--envelope", "obs.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["fit", "--config", "run.cfg", *args, "--free", "nu0", "--starts", "1"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: obs.csv: the fit objective at the initial values is inf")
    assert "Warning" not in err


def test_cli_envelope_fit_rejects_fwhm_box_below_sample_spacing(workdir, capsys):
    # the default box starts at 0.05, between the samples of a 0.5 grid
    (workdir / "obs.csv").write_text("frequency_cm1,amplitude\n" + "".join(
        f"{3190.0 + 0.5 * i},{1.0 if i == 32 else 0.0}\n" for i in range(120)))
    rc = cli.main(["fit", "--config", "run.cfg", "--mode", "envelope", "--envelope", "obs.csv",
                   "--free", "nu0,fwhm", "--starts", "1"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: obs.csv: --bound fwhm: the low end 0.05 is below")
    assert "Traceback" not in err


def test_cli_envelope_fit_rejects_fixed_fwhm_below_sample_spacing(workdir, capsys):
    # the config's 0.1-wide lines fall between the samples of its own
    # envelope taken at every fifth 0.1 step
    (workdir / "narrow.cfg").write_text((REPO / "configs" / "atpb.cfg").read_text()
                                        .replace("Jmax = 10", "Jmax = 4")
                                        .replace("step = 0.05", "step = 0.1")
                                        .replace("fwhm = 1.5", "fwhm = 0.1"))
    assert cli.main(["spectrum", "--config", "narrow.cfg", "--out-spectrum", "env.csv"]) == 0
    header, *rows = (workdir / "env.csv").read_text().splitlines()
    (workdir / "obs.csv").write_text("\n".join([header, *rows[::5]]) + "\n")
    capsys.readouterr()
    rc = cli.main(["fit", "--config", "narrow.cfg", "--mode", "envelope", "--envelope", "obs.csv",
                   "--free", "nu0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: obs.csv: fwhm: the fixed width 0.1 is below the observed grid's "
                   "largest spacing 0.5 cm^-1\n")


@pytest.mark.parametrize("name", ["fwhm", "scale"])
def test_cli_position_fit_rejects_envelope_only_parameters(workdir, capsys, name):
    # rejected with the flags, before the (missing) peaks file is read; an
    # envelope fit passes fwhm and fails on its missing file instead.  The
    # envelope fit solves its scale, so no fit frees it and no --bound
    # names it
    rc = cli.main(["fit", "--config", "run.cfg", "--peaks", "missing.csv",
                   "--free", f"nu0,{name}"])
    err = capsys.readouterr().err
    start = {"fwhm": "error: --free: fwhm ", "scale": "error: --free: unknown parameter 'scale'"}
    assert rc == 1 and err.startswith(start[name]) and "missing" not in err
    rc = cli.main(["fit", "--config", "run.cfg", "--mode", "envelope",
                   "--envelope", "missing.csv", "--free", f"nu0,{name}"])
    err = capsys.readouterr().err
    if name == "fwhm":
        assert rc == 1 and "missing.csv" in err and "--free" not in err
    else:
        assert rc == 1 and err == "error: --free: unknown parameter 'scale'\n"
        rc = cli.main(["fit", "--config", "run.cfg", "--mode", "envelope", "--envelope",
                       "missing.csv", "--free", "B", "--bound", "scale", "0", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: --bound: 'scale' is not a free scalar")


def test_cli_lorentzian_shape(workdir):
    (workdir / "lor.cfg").write_text(FAST_CONFIG.replace(
        "fwhm = 1.5", "fwhm = 1.5\nshape = lorentzian"))
    rc = cli.main(["spectrum", "--config", "lor.cfg", "--sticks", "ls.csv",
                   "--out-spectrum", "lo.csv", "--max-energy", "40"])
    assert rc == 0
    rows = (workdir / "lo.csv").read_text().splitlines()[1:]
    amps = [float(r.split(",")[1]) for r in rows]
    assert max(amps) > 0


def test_cli_lorentzian_envelope_sums_ir_and_sum_band_lines_only(workdir):
    # Lorentzian tails reach the grid from anywhere: the Raman sticks at
    # 0-110 cm-1 must not enter the envelope
    text = FAST_CONFIG.replace("fwhm = 1.5", "fwhm = 1.5\nshape = lorentzian").replace(
        "[band]", "[band]\nlattice_freq = 66.0").replace("stop = 3300", "stop = 3320")
    (workdir / "lor.cfg").write_text(text)
    rc = cli.main(["spectrum", "--config", "lor.cfg", "--sticks", "ls.csv",
                   "--out-spectrum", "lo.csv", "--max-energy", "40"])
    assert rc == 0
    cfg = parse_config(text)
    levels = rotor.classify_levels(rotor.diagonalize(cfg.model), max_energy=40.0)
    ir = spectrum.vibration_orientation_lines(levels, cfg.band, cfg.population)
    lines = ir + spectrum.sum_band_lines(ir, cfg.band)
    lines.sort(key=lambda l: (l.frequency, l.lower, l.upper))
    _, amps = spectrum.synthesize(lines, cfg.synthesis)
    written = [float(r.split(",")[1]) for r in (workdir / "lo.csv").read_text().splitlines()[1:]]
    assert written == amps.tolist()


def test_cli_plan_deterministic(workdir):
    (workdir / "lines.csv").write_text(
        "frequency_cm1,intensity,lower,upper,activity\n"
        "3206.0,0.14,(L1)1,(L1)1*,IR\n"
        "3217.0,0.31,(A1)1,(L1)1*,IR\n"
    )
    for out in ("p1.json", "p2.json"):
        rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv",
                       "--out", out, "--mc-samples", "5000", "--seed", "3"])
        assert rc == 0
    assert (workdir / "p1.json").read_bytes() == (workdir / "p2.json").read_bytes()


#: run in a fresh process: the rotorspec command of argv[2:], then its exit
#: code and the number of potential range scans it made, written to argv[1]
_COUNT_SCANS = """\
import sys
from rotorspec import cli, rotor
scan, scans = rotor._potential_on_grid, []
def counted(potential):
    scans.append(potential)
    return scan(potential)
rotor._potential_on_grid = counted
rc = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(f"{rc} {len(scans)}")
"""


@pytest.mark.parametrize("potential,scans", [("3:-1.0", 0), ("3:-1.0, 4:0.3", 1)],
                         ids=["one_term", "mixed"])
def test_each_command_scans_the_potential_at_most_once(tmp_path, potential, scans):
    """A one-term potential normalizes from its rank's recorded range with no
    scan; a mixed one is scanned once, to normalize it.  Nothing rescans the
    normalized potential, which carries its unit range in its type."""
    text, n = re.subn(r"(?m)^Jmax = 10$", "Jmax = 4", (REPO / "configs" / "atpb.cfg").read_text())
    assert n == 1
    text, n = re.subn(r"(?m)^potential = 3:-1\.0$", f"potential = {potential}", text)
    assert n == 1
    cfg = tmp_path / "atpb_j4.cfg"
    cfg.write_text(text)
    sticks, envelope = tmp_path / "sticks.csv", tmp_path / "spectrum.csv"
    commands = {
        "levels": ["levels", "--config", cfg, "--format", "csv", "--out", tmp_path / "levels.csv"],
        "spectrum": ["spectrum", "--config", cfg, "--sticks", sticks, "--out-spectrum", envelope],
        "fit positions": ["fit", "--config", cfg, "--peaks", REPO / "configs" / "atpb_peaks.csv",
                          "--starts", "1", "--max-iter", "20"],
        "fit envelope": ["fit", "--config", cfg, "--mode", "envelope", "--envelope", envelope,
                         "--free", "nu0,fwhm", "--starts", "1", "--max-iter", "5"],
        "plan": ["plan", "--config", cfg, "--lines", sticks, "--mc-samples", "0"],
    }
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    counts = {}
    for name, args in commands.items():
        out = tmp_path / "scans.txt"
        subprocess.run([sys.executable, "-c", _COUNT_SCANS, out, *args], cwd=tmp_path, check=True,
                       capture_output=True, env=dict(os.environ, PYTHONPATH=path))
        rc, count = map(int, out.read_text().split())
        counts[name] = (rc in (0, 2), count)  # 2: the short fits need not converge
    assert counts == dict.fromkeys(commands, (True, scans))


_LOADED_SCIPY = """\
import contextlib, io, sys
from rotorspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(rc, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    """scipy is imported at its call sites: importing the CLI, `symmetry`,
    `plan`, `levels` and the four-band fit load none of it, on the shipped
    one-term config and on a mixed potential, whose range scan rotates with
    numpy, and `spectrum` loads scipy.sparse (the transition operators) and
    nothing more of scipy than its import does."""
    cfg, sticks = REPO / "configs" / "atpb.cfg", tmp_path / "sticks.csv"
    mixed = tmp_path / "mixed.cfg"
    mixed.write_text(cfg.read_text().replace("potential = 3:-1.0", "potential = 3:-1.0, 4:0.3"))
    runs = {
        "import": [],
        "symmetry": ["symmetry", "--json", "--out", tmp_path / "symmetry.json"],
    }
    for tag, config in (("", cfg), (" mixed", mixed)):
        runs |= {
            "spectrum" + tag: ["spectrum", "--config", config, "--sticks", sticks,
                               "--out-spectrum", tmp_path / "spectrum.csv"],
            "plan" + tag: ["plan", "--config", config, "--lines", sticks, "--mc-samples", "0"],
            "levels" + tag: ["levels", "--config", config, "--format", "csv",
                             "--out", tmp_path / "levels.csv"],
            "fit" + tag: ["fit", "--config", config, "--peaks", REPO / "configs" / "atpb_peaks.csv",
                          "--out", tmp_path / "fit.json"],
        }
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    loaded = {}
    for name, args in [("scipy.sparse", ["-c", "import scipy.sparse\n" + _LOADED_SCIPY]),
                       *((name, ["-c", _LOADED_SCIPY, *args]) for name, args in runs.items())]:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=tmp_path,
                              check=True, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        rc, *modules = proc.stdout.split()
        assert rc == "0", name
        loaded[name] = set(modules)
    for name in set(runs) - {"spectrum", "spectrum mixed"}:
        assert loaded[name] == set(), name
    assert "scipy.sparse" in loaded["scipy.sparse"]
    assert loaded["spectrum"] == loaded["spectrum mixed"] == loaded["scipy.sparse"]


def test_no_command_imports_scipy_optimize(tmp_path):
    cfg = tmp_path / "j4.cfg"
    cfg.write_text(re.sub(r"(?m)^Jmax = \d+$", "Jmax = 4",
                          (REPO / "configs/atpb.cfg").read_text()))
    script = f"""
import contextlib, io, sys
from rotorspec.cli import main
d, cfg = {str(tmp_path)!r}, {str(cfg)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (["levels", "--config", cfg, "--out", d + "/levels.txt"],
                 ["spectrum", "--config", cfg, "--sticks", d + "/sticks.csv",
                  "--out-spectrum", d + "/spectrum.csv"],
                 ["plan", "--config", cfg, "--lines", d + "/sticks.csv", "--mc-samples", "1000"],
                 ["fit", "--config", cfg, "--peaks", {str(REPO / "configs/atpb_peaks.csv")!r},
                  "--starts", "1", "--max-iter", "20"])]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"
    imports = re.compile(r"^\s*(import|from)\s+scipy(\.optimize|\s+import\s+.*\boptimize\b)", re.M)
    for path in (REPO / "src").rglob("*.py"):
        assert not imports.search(path.read_text()), path


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "rotorspec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1)


# ---------------------------------------------------------------- bad input

def _assert_rejected(workdir, capsys, rc, location):
    err = capsys.readouterr().err
    assert rc == 1
    assert location in err
    assert "Traceback" not in err
    assert not list(workdir.rglob("*.tmp"))


@pytest.mark.parametrize("old,new,location", [
    ("beta = 1.0", "beta = nan", "[model] beta"),
    ("T = 7.0", "T = inf", "[population] T"),
])
def test_cli_non_finite_config_exits_1(workdir, capsys, old, new, location):
    (workdir / "bad.cfg").write_text(FAST_CONFIG.replace(old, new))
    rc = cli.main(["levels", "--config", "bad.cfg"])
    _assert_rejected(workdir, capsys, rc, location)


@pytest.mark.parametrize("fwhm", ["1e-160", "0.001"])
def test_cli_spectrum_fwhm_below_grid_step_exits_1(workdir, capsys, fwhm):
    # a profile narrower than the 0.2 cm^-1 step falls between the samples:
    # 1e-160 overflowed the Gaussian's square once per line, 0.001 left the
    # envelope zero almost everywhere, and both exited 0
    (workdir / "narrow.cfg").write_text(FAST_CONFIG.replace("fwhm = 1.5", f"fwhm = {fwhm}"))
    rc = cli.main(["spectrum", "--config", "narrow.cfg", "--sticks", "sticks.csv",
                   "--out-spectrum", "spectrum.csv"])
    _assert_rejected(workdir, capsys, rc, "[synthesis] fwhm")
    assert not (workdir / "spectrum.csv").exists()


CSV_READERS = {
    "peaks": (["fit", "--config", "run.cfg", "--peaks", "in.csv"],
              "frequency_cm1,intensity,label\n3206,1,x\n"),
    "envelope": (["fit", "--config", "run.cfg", "--mode", "envelope", "--envelope", "in.csv"],
                 "frequency_cm1,amplitude\n3206,0.5\n"),
    "lines": (["plan", "--config", "run.cfg", "--lines", "in.csv"],
              "frequency_cm1,intensity,lower,upper,activity\n3206,1,(A1)1,(L1)1*,IR\n"),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_cli_empty_csv_exits_1(workdir, capsys, reader):
    argv, _ = CSV_READERS[reader]
    (workdir / "in.csv").write_text("")
    _assert_rejected(workdir, capsys, cli.main(argv), "in.csv: empty file")


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_cli_bad_csv_row_names_file_and_line(workdir, capsys, reader):
    argv, good = CSV_READERS[reader]
    (workdir / "in.csv").write_text(good + "abc,1,x,y,IR\n")
    _assert_rejected(workdir, capsys, cli.main(argv), "in.csv:3:")


def test_cli_out_naming_a_directory_exits_1(workdir, capsys):
    (workdir / "adir").mkdir()
    rc = cli.main(["symmetry", "--out", "adir"])
    _assert_rejected(workdir, capsys, rc, "adir")
    assert sorted(p.name for p in workdir.iterdir()) == ["adir", "run.cfg"]
    assert not any((workdir / "adir").iterdir())


@pytest.mark.parametrize("argv", [
    ["levels", "--config", "run.cfg", "--out"],
    ["spectrum", "--config", "run.cfg", "--out-spectrum", "spec.csv", "--sticks"],
    ["fit", "--config", "run.cfg", "--peaks", str(REPO / "configs/atpb_peaks.csv"),
     "--free", "nu0", "--starts", "1", "--out"],
], ids=["levels", "spectrum", "fit"])
def test_cli_out_in_a_missing_directory_names_the_output(workdir, capsys, argv):
    rc = cli.main([*argv, "nodir/out.txt"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: [Errno 2] No such file or directory: 'nodir/out.txt'\n"
    assert not list(workdir.rglob("*.tmp"))


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_cli_csv_reader_error_names_file_and_line(workdir, capsys, reader):
    # a quoted field past the csv module's 131072-character limit
    argv, good = CSV_READERS[reader]
    (workdir / "in.csv").write_text(good + '"' + "x" * 140_000 + '",1\n')
    _assert_rejected(workdir, capsys, cli.main(argv), "in.csv:3:")


@pytest.mark.parametrize("target", ["config"] + sorted(CSV_READERS))
def test_cli_non_utf8_input_names_file(workdir, capsys, target):
    if target == "config":
        argv, name, text = ["levels", "--config", "in.cfg"], "in.cfg", FAST_CONFIG
    else:
        (argv, text), name = CSV_READERS[target], "in.csv"
    (workdir / name).write_bytes(text.encode() + b"# caf\xe9\n")
    _assert_rejected(workdir, capsys, cli.main(argv), f"{name}: not UTF-8 text")


@pytest.mark.parametrize("potential,locations", [
    ("potential = 3:0", ["[model] potential"]),
    ("potential = 3:-1.0, 3:1.0", ["[model] potential"]),
    ("beta = -1\npotential = 3:0", ["[model] beta", "[model] potential"]),
])
def test_cli_potential_error_names_section_and_key(workdir, capsys, potential, locations):
    (workdir / "bad.cfg").write_text(FAST_CONFIG.replace("beta = 1.0", potential))
    rc = cli.main(["levels", "--config", "bad.cfg"])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    for location in locations:
        assert location in err


@pytest.mark.parametrize("argv,flag", [
    (["plan", "--config", "run.cfg", "--lines", "lines.csv", "--max-pairs", "-3"],
     "--max-pairs"),
    (["levels", "--config", "run.cfg", "--max-energy", "-1"], "--max-energy"),
    (["levels", "--config", "run.cfg", "--max-energy", "nan"], "--max-energy"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--tol", "nan",
      "--starts", "1", "--max-iter", "5"], "--tol"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--seed", "-1"], "--seed"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--starts", "0"], "--starts"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--max-iter", "0"], "--max-iter"),
    (["plan", "--config", "run.cfg", "--lines", "lines.csv", "--seed", "-1",
      "--mc-samples", "10"], "--seed"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--tol", "0"], "--tol"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--tol", "inf"], "--tol"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "Bx", "1", "2"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "fwhm", "1", "2"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "B", "4", "6",
      "--bound", "B", "5", "7"], "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "B", "x", "3"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "B", "9", "3"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "B", "nan", "3"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--bound", "beta", "-3", "-0.5"],
     "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv", "--free", "B,nu0",
      "--bound", "B", "-9", "-1"], "--bound"),
    (["fit", "--config", "run.cfg", "--peaks", "peaks.csv",
      "--free", "B,extra_offsets,dw_L1_star"], "--free"),
])
def test_cli_bad_numeric_flag_exits_1(workdir, capsys, argv, flag):
    (workdir / "lines.csv").write_text(
        "frequency_cm1,intensity,lower,upper,activity\n"
        "3206.0,0.14,(L1)1,(L1)1*,IR\n"
        "3217.0,0.31,(A1)1,(L1)1*,IR\n")
    (workdir / "peaks.csv").write_text(
        "frequency_cm1,intensity,label\n"
        "3206.0,1.0,(L1)1->(L1)1*\n"
        "3217.0,9.0,(A1)1->(L1)1*\n"
        "3230.0,0.5,(L1)1->(L1)2*\n"
        "3235.0,0.2,(L1)1->(E3)1*\n")
    _assert_rejected(workdir, capsys, cli.main(argv), flag)


@pytest.mark.parametrize("old,new", [
    ("fwhm = 1.5", "fwhm = 1e308"),
    ("linewidth_ghz = 1.0", "linewidth_ghz = 5e-324"),
])
def test_cli_plan_overflowing_channel_count_exits_1(workdir, capsys, old, new):
    (workdir / "bad.cfg").write_text(FAST_CONFIG.replace(old, new))
    (workdir / "lines.csv").write_text(CSV_READERS["lines"][1] + "3217,1,(L1)1,(L1)1*,IR\n")
    rc = cli.main(["plan", "--config", "bad.cfg", "--lines", "lines.csv"])
    _assert_rejected(workdir, capsys, rc, "[source] linewidth_ghz")


@pytest.mark.parametrize("old,new,location", [
    ("a_nm = 1.0", "a_nm = 1e-120", "[crystal] a_nm"),
    ("a_nm = 1.0", "a_nm = 1e300", "[crystal] a_nm"),
    ("c = 0.01", "c = 0.01\nmu_debye = 1e200", "[crystal] mu_debye"),
])
def test_cli_plan_unrepresentable_coupling_exits_1(workdir, capsys, old, new, location):
    # finite, positive crystal values whose dipole coupling leaves the float range
    (workdir / "bad.cfg").write_text(FAST_CONFIG.replace(old, new))
    (workdir / "lines.csv").write_text(CSV_READERS["lines"][1] + "3217,1,(L1)1,(L1)1*,IR\n")
    rc = cli.main(["plan", "--config", "bad.cfg", "--lines", "lines.csv"])
    _assert_rejected(workdir, capsys, rc, location)


def test_cli_plan_rejects_a_line_beyond_the_ghz_range(workdir, capsys):
    # 1e307 cm-1 is a finite frequency but an infinite one in GHz, and would
    # put Infinity, which is not JSON, into the plan's separations
    (workdir / "lines.csv").write_text(cli.STICKS_CSV_HEADER + "\n1e307,1,(L1)1,(L1)1*,IR\n"
                                       "3217,1,(L1)1,(L1)2*,IR\n")
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv", "--out", "plan.json"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: lines.csv:2: ") and "GHz" in err
    assert not (workdir / "plan.json").exists()


def test_cli_plan_mc_samples_bounded(workdir, capsys):
    # rejected while parsing the flag, before any sample is drawn
    (workdir / "lines.csv").write_text(CSV_READERS["lines"][1] + "3217,1,(L1)1,(L1)1*,IR\n")
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv",
                   "--mc-samples", str(10**12)])
    _assert_rejected(workdir, capsys, rc, "--mc-samples")


def _stick_rows(count):
    """A stick-list CSV of `count` distinct lines."""
    return cli.STICKS_CSV_HEADER + "\n" + "".join(
        f"{3150 + 170 * i / count!r},1.0,(L1){i + 1},(L1){i + 1}*,IR\n" for i in range(count))


def test_cli_plan_pair_table_bounded(workdir, capsys, monkeypatch):
    # without --max-pairs a list of more than MAX_PAIRS pairs is rejected
    # before any pair is made, naming the file and the flag
    count = next(n for n in range(2, 10**4) if n * (n - 1) // 2 > qubitplan.MAX_PAIRS)
    (workdir / "lines.csv").write_text(_stick_rows(count))
    pairs, made = qubitplan._pairs, []
    monkeypatch.setattr(qubitplan, "_pairs", lambda lines: made.append(len(lines)) or pairs(lines))
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv"])
    err = capsys.readouterr().err
    assert rc == 1 and made == []
    assert "lines.csv" in err and "--max-pairs" in err and "Traceback" not in err
    assert cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv",
                     "--max-pairs", "3", "--out", "plan.json"]) == 0
    assert len(json.loads((workdir / "plan.json").read_text())["delta_omega_pairs"]) == 3
    assert made == [count]


def test_cli_plan_reads_no_more_lines_than_a_full_table_takes(workdir, capsys, monkeypatch):
    # without --max-pairs the reader stops one line past the most lines a
    # full table takes, so a long list is refused before it is held, and the
    # error states no count of lines it did not read
    most = qubitplan.MAX_LINES
    assert most * (most - 1) // 2 <= qubitplan.MAX_PAIRS < (most + 1) * most // 2
    (workdir / "lines.csv").write_text(_stick_rows(2000))
    parsed, row = [], cli._line_row
    monkeypatch.setattr(cli, "_line_row", lambda cells: parsed.append(cells) or row(cells))
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv"])
    assert rc == 1 and len(parsed) == most + 1
    assert capsys.readouterr().err == (
        f"error: lines.csv: more than {most} lines make more pairs than the "
        f"{qubitplan.MAX_PAIRS} of a full table; keep the widest with --max-pairs\n")


#: run in a fresh process: the rotorspec command of argv[1:], then print its
#: exit code and the process's peak RSS in kB (VmHWM, which starts afresh at
#: exec, where the ru_maxrss of a child of this test process would not)
_PEAK_RSS = """\
import re, sys
from rotorspec import cli
rc = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(rc, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


def test_cli_plan_max_pairs_bounds_memory(tmp_path):
    # 2000 lines make 1999000 pairs, and with --max-pairs 10 ten are held.
    # Measured on a 2-vCPU Linux machine: a table of all pairs before the
    # cut peaked at 872 MB; now the run peaks at 64 MB, as the import does
    (tmp_path / "run.cfg").write_text(FAST_CONFIG)
    (tmp_path / "lines.csv").write_text(_stick_rows(2000))
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, "plan", "--config", "run.cfg",
                           "--lines", "lines.csv", "--max-pairs", "10", "--out", "plan.json"],
                          cwd=tmp_path, capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    rc, peak_kb = map(int, proc.stdout.split()[-2:])
    assert rc == 0
    assert len(json.loads((tmp_path / "plan.json").read_text())["delta_omega_pairs"]) == 10
    assert peak_kb * 1024 < 120e6



def test_json_output_is_written_without_its_whole_text(tmp_path):
    # a plan-sized pair table: 30000 pairs make 4.7 MB of JSON text.  Measured
    # on a 2-vCPU Linux machine with 100000 pairs (15.7 MB), json.dumps held
    # 99 MB at its peak and the chunked dump holds 0.07 MB
    pairs = [{"upper_line": f"(L1){i % 97}->(E3){i % 13}*",
              "lower_line": f"(A1){i % 7}->(L1){i % 11}*",
              "delta_cm1": 0.1 * i + 1e-3, "delta_ghz": 2.99792458 * i} for i in range(30000)]
    payload = {"delta_omega_pairs": pairs, "channels": 3}
    out = tmp_path / "plan.json"
    tracemalloc.start()
    try:
        cli._emit_json(payload, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4e6
    assert peak < 1e6
    assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_spectrum_writes_its_samples_without_their_text(workdir):
    # warm, so the second run's peak is the grid's arrays and the rows being
    # written.  Measured on a 2-vCPU Linux machine: 3.1 x 8n, and 12.6 x 8n
    # when each file's whole text was built before it was written
    (workdir / "grid.cfg").write_text((REPO / "configs" / "atpb.cfg").read_text()
                                      .replace("Jmax = 10", "Jmax = 4")
                                      .replace("step = 0.05", "step = 0.00034"))
    argv = ["spectrum", "--config", "grid.cfg", "--sticks", "sticks.csv",
            "--out-spectrum", "spectrum.csv", "--svg", "plot.svg"]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 500_001
    with open(workdir / "spectrum.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == n + 1
    assert peak < 4 * 8 * n


def test_cli_envelope_longer_than_a_synthesis_grid_exits_1(workdir, capsys, monkeypatch):
    # `spectrum` writes at most MAX_GRID_SAMPLES rows, so the reader stops
    # one row past them; the config's own grid must fit the bound too
    monkeypatch.setattr(spectrum, "MAX_GRID_SAMPLES", 10)
    (workdir / "run.cfg").write_text(FAST_CONFIG.replace("start = 3150", "start = 3200")
                                     .replace("stop = 3300", "stop = 3209")
                                     .replace("step = 0.2", "step = 1.0"))
    argv = ["fit", "--config", "run.cfg", "--mode", "envelope", "--envelope", "obs.csv",
            "--free", "nu0", "--starts", "1", "--max-iter", "1"]
    for rows in (11, 10):
        (workdir / "obs.csv").write_text("frequency_cm1,amplitude\n" + "".join(
            f"{3200.0 + i},{0.1 * (i % 4)}\n" for i in range(rows)))
        rc = cli.main(argv)
        err = capsys.readouterr().err
        if rows == 11:
            assert rc == 1
            assert err == ("error: obs.csv: more than 10 samples, the most a synthesis "
                           "grid holds\n")
        else:
            assert rc in (0, 2) and err == ""


# any text in an input CSV: exit 0, 1 with the file named, or 2 (the fit's
# documented non-convergence status, e.g. an envelope no model line reaches)
# cells: usable values three times as often as odd ones
_NUMBERS = st.sampled_from(["3206", "3217.5", "3230", "3235", "0.5", "0"] * 3
                           + ["-1", "1e300", "1e400", "nan", "x", "", " ", '"'])
_WORDS = st.sampled_from(["(L1)1->(L1)1*", "(A1)1->(L1)1*", "(L1)1", "(L1)1*", "IR", "Raman",
                          ""] * 3 + ["(X9)1->(L1)1*", '"', ",,"])


@st.composite
def _csv_texts(draw, header):
    """Mostly the right header and row shape with odd cells, at times one
    row of any text; one file in five is any text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=40))
    cells = [_NUMBERS if name in ("frequency_cm1", "intensity", "amplitude") else _WORDS
             for name in header.split(",")]
    rows = draw(st.lists(st.tuples(*cells).map(",".join), max_size=5))
    noise = draw(st.one_of(st.none(), st.text(max_size=12)))
    if noise is not None:
        rows.insert(draw(st.integers(0, len(rows))), noise)
    head = header if draw(st.integers(0, 3)) else draw(st.text(max_size=12))
    return "\n".join([head] + rows)


_CSV_ARGV = {
    "peaks": (["fit", "--free", "nu0", "--starts", "1", "--max-iter", "40", "--peaks"],
              cli.PEAKS_CSV_HEADER),
    "envelope": (["fit", "--mode", "envelope", "--free", "nu0", "--starts", "1",
                  "--max-iter", "40", "--envelope"], cli.SPECTRUM_CSV_HEADER),
    "lines": (["plan", "--lines"], cli.STICKS_CSV_HEADER),
}


@settings(max_examples=120)
@given(st.sampled_from(sorted(_CSV_ARGV)).flatmap(
    lambda reader: st.tuples(st.just(reader), _csv_texts(_CSV_ARGV[reader][1]))))
def test_cli_any_csv_text_exits_cleanly(case):
    reader, text = case
    argv, _ = _CSV_ARGV[reader]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, path = Path(tmp, "run.cfg"), Path(tmp, "in.csv")
        cfg.write_text(FAST_CONFIG.replace("Jmax = 6", "Jmax = 2"))
        path.write_text(text, encoding="utf-8", newline="")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv[:1] + ["--config", str(cfg)] + argv[1:] + [str(path)])
    assert rc in (0, 1, 2)
    if rc == 1:
        assert str(path) in err.getvalue()
