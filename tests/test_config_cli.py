"""Configuration parsing and the command-line pipeline."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import dataclasses
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspec import cli, config, rotor, spectrum
from rotorspec.config import ConfigError, DEFAULT_CONFIG_TEXT, RunConfig, parse_config

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
    ("model", "B = 0"), ("model", "beta = -1"), ("model", "Jmax = 1"),
    ("model", "potential = 5:1.0, 3:-1.0"), ("model", "potential = "),
    ("model", "potential = 3:0"), ("model", "potential = 3:-1.0, 3:1.0"),
    ("model", "potential = 3:1e308"),
    ("band", "nu0 = 0"), ("band", "excited_scale = 0"), ("band", "lattice_freq = -1"),
    ("band", "sum_band_scale = -1"),
    ("population", "mode = frozen"), ("population", "T = 0"),
    ("population", "fractions = -0.5, 0.75, 0.75"), ("population", "fractions = 0.5, 0.2, 0.2"),
    ("synthesis", "start = 3400"), ("synthesis", "step = 0"), ("synthesis", "shape = voigt"),
    ("synthesis", "step = 1e-9"), ("synthesis", "fwhm = 0"),
    ("crystal", "a_nm = 0"), ("crystal", "c = 0"), ("crystal", "mu_debye = -1"),
    ("source", "linewidth_ghz = 0"),
]


@pytest.mark.parametrize("section,line", _RULE_CASES)
def test_each_rule_names_its_section_and_key(section, line):
    text = DEFAULT_CONFIG_TEXT.replace(f"[{section}]", f"[{section}]\n{line}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert {(s, k) for s, k, _ in err.value.errors} == {(section, line.split(" = ")[0])}


@pytest.mark.parametrize("section,line", [case for case in _RULE_CASES if case[0] != "source"])
def test_each_rule_lives_in_its_model_type(section, line):
    """The section's model type, built with the value, names the key's field
    in its validate(); only the source linewidth has no model type."""
    key, _, raw = line.partition(" = ")
    field = "frozen_fractions" if key == "fractions" else key
    value = config._CONVERTERS[config._SCHEMA[section][key][1]](raw)
    owner = replace(getattr(RunConfig.defaults(), section), **{field: value})
    assert field in {f for f, _ in owner.validate()}


def test_schema_defaults_are_the_model_types_defaults():
    """Each key's default in config._SCHEMA is the default of the field it
    sets, wherever that field declares one; the potential's after
    normalization, which is what RotorModel holds."""
    defaults = RunConfig.defaults()
    checked = set()
    for section in ("model", "band", "population", "synthesis", "crystal"):
        for field in dataclasses.fields(getattr(defaults, section)):
            key = "fractions" if field.name == "frozen_fractions" else field.name
            if field.default is dataclasses.MISSING or key not in config._SCHEMA[section]:
                continue
            text, kind = config._SCHEMA[section][key]
            value = config._CONVERTERS[kind](text)
            if kind == "potential":
                [(rank, weight)] = rotor.normalize_potential(value)
                [(want_rank, want_weight)] = field.default
                assert rank == want_rank and weight == pytest.approx(want_weight, abs=1e-12)
            else:
                assert value == field.default, (section, key)
            checked.add(key)
    assert checked >= {"B", "beta", "Jmax", "excited_scale", "sum_band_scale", "mode", "T",
                       "shape", "fwhm", "mu_debye"}


def test_jmax_bounded_by_memory(monkeypatch):
    def no_basis(jmax):
        raise AssertionError("parse_config built a basis")

    monkeypatch.setattr(rotor, "build_basis", no_basis)
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


@st.composite
def _config_texts(draw):
    """All six sections; up to three keys each, one in four set to an odd
    value and the rest to their default; in half the examples one unknown key."""
    stray = draw(st.sampled_from([*config._SCHEMA] + [None] * 6))
    sections = []
    for section, keys in config._SCHEMA.items():
        names = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=3))
        lines = [f"{n} = {draw(_ODD_VALUES) if draw(_ODD_TURN) else keys[n][0]}"
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
            assert section in config._SCHEMA
            assert key in config._SCHEMA[section] or (key in _UNKNOWN_KEYS
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


def test_cli_plan_mc_samples_bounded(workdir, capsys):
    # rejected while parsing the flag, before any sample is drawn
    (workdir / "lines.csv").write_text(CSV_READERS["lines"][1] + "3217,1,(L1)1,(L1)1*,IR\n")
    rc = cli.main(["plan", "--config", "run.cfg", "--lines", "lines.csv",
                   "--mc-samples", str(10**12)])
    _assert_rejected(workdir, capsys, rc, "--mc-samples")


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
