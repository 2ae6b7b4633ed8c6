"""Command-line interface.

Subcommands: symmetry, levels, spectrum, fit, plan.  One sectioned config
file feeds every subcommand; flags override file values.  Outputs stream: rows
are written as they are made, to stdout or atomically to a file (temp then
rename), and CSV inputs are parsed row by row, so no file-sized text is held.
Identical inputs produce byte-identical files.  Exit status: 0 success, 1
validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import config as config_mod
from . import fitting, qubitplan, rotor, spectrum, symmetry, units
from .config import _finite

LEVELS_CSV_HEADER = "energy_cm1,degeneracy,label,spin,ordinal"
STICKS_CSV_HEADER = "frequency_cm1,intensity,lower,upper,activity"
SPECTRUM_CSV_HEADER = "frequency_cm1,amplitude"
PEAKS_CSV_HEADER = "frequency_cm1,intensity,label"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOCONV = 2


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file that replaces `path` when the block ends without error."""
    # the temp file sits next to the target so the rename stays on one file
    # system, and carries the pid so concurrent runs never share it
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            # name the output the caller gave, not the hidden temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _output(path: str | None):
    """The sink every writer writes into: `path`, written atomically, or stdout."""
    return _atomic_file(path) if path else contextlib.nullcontext(sys.stdout)


def _emit_json(payload, out_path: str | None):
    """`payload` as sorted, indented JSON to `out_path` or stdout, encoded
    chunk by chunk into the file, so the whole text is never held."""
    with _output(out_path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_csv(path: str, header: str, error: type[Exception], parse_row):
    """Yield `parse_row` of every non-blank row after the header.  An empty
    file, a wrong header or text that is not UTF-8 raises `error` naming
    `path`; a row that `parse_row` or the CSV reader rejects raises `error`
    naming `path:line`."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise error(f"{path}: empty file, expected header {header}")
            if tuple(h.strip() for h in first) != tuple(header.split(",")):
                raise error(f"{path}: header must be {header}, got {','.join(first)}")
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                try:
                    parsed = parse_row(row)
                except (ValueError, IndexError) as exc:
                    raise error(f"{path}:{reader.line_num}: bad row {','.join(row)!r}: "
                                f"{exc}") from None
                yield parsed
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextlib.contextmanager
def _blaming(path: str, error: type[Exception]):
    """Put `path` in front of an `error` raised inside: that file's data caused it."""
    try:
        yield
    except error as exc:
        raise error(f"{path}: {exc}") from None


def _load_config(path: str) -> config_mod.RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return config_mod.parse_config(text)


def _at_least(least, convert, most=math.inf):
    """argparse type: a finite number in [least, most], named after `convert` in errors."""
    def check(text: str):
        value = convert(text)
        if not least <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {least}, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
        return value
    check.__name__ = convert.__name__
    return check


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ----------------------------------------------------------------------------
# symmetry
# ----------------------------------------------------------------------------

def _table_payload(table: symmetry.GroupTable) -> dict:
    return {
        "name": table.name,
        "order": table.order,
        "classes": [{"label": l, "size": s, "angle_rad": a} for l, s, a in table.classes],
        "irreps": [
            {"label": l, "dimension": d,
             "characters": [[c.real, c.imag] for c in map(complex, ch)]}
            for l, d, ch in table.irreps
        ],
    }


def cmd_symmetry(args) -> int:
    groups = ["T", "Td", "D2d", "C3v", "TxT"]
    species = symmetry.spin_decomposition()
    correlations = {
        label: symmetry.correlate(label)
        for label, _, _ in symmetry.character_table("Td").irreps
    }
    raman_count = None
    if args.raman_count:
        content = [x.strip() for x in args.raman_count.split(",") if x.strip()]
        raman_count = symmetry.raman_active_count(content, args.raman_group)
    if args.json:
        payload = {
            "tables": [_table_payload(symmetry.character_table(g)) for g in groups],
            "correlation_Td_to_D2d": correlations,
            "spin_species": [
                {"label": s.label, "spin_weight": s.spin_weight, "total_count": s.total_count}
                for s in species
            ],
            "raman_active": {g: sorted(v) for g, v in symmetry.RAMAN_ACTIVE.items()},
            "level_labels": [
                {"name": lab.name, "dimension": lab.dimension, "spin": lab.spin,
                 "constituents": list(lab.constituents)}
                for lab in symmetry.LEVEL_LABELS.values()
            ],
        }
        if raman_count is not None:
            payload["raman_count"] = {"content": args.raman_count,
                                      "group": args.raman_group, "count": raman_count}
        _emit_json(payload, args.out)
        return EXIT_OK
    with _output(args.out) as fh:
        for g in groups:
            table = symmetry.character_table(g)
            fh.write(f"group {table.name} (order {table.order})\n")
            head = "  ".join(f"{label:>8s}" for label, _, _ in table.classes)
            fh.write(f"{'':8s}  {head}\n")
            for label, _, chars in table.irreps:
                row = "  ".join(f"{c.real:8.3f}" if abs(c.imag) < 1e-12 else f"{c:>8.2f}"
                                for c in map(complex, chars))
                fh.write(f"{label:8s}  {row}\n")
            fh.write("\n")
        fh.write("descent Td -> D2d (z-axis S4):\n")
        for label, corr in correlations.items():
            target = " + ".join(f"{m}x{lab}" if m > 1 else lab for lab, m in sorted(corr.items()))
            fh.write(f"  {label:4s} -> {target}\n")
        fh.write("\nnuclear spin species (4 protons):\n")
        for s in species:
            fh.write(f"  {s.label}: weight {s.spin_weight}, total {s.total_count} of 16\n")
        fh.write("\nRaman-active irreps:\n")
        for g, active in symmetry.RAMAN_ACTIVE.items():
            fh.write(f"  {g}: {', '.join(sorted(active))}\n")
        if raman_count is not None:
            fh.write(f"\nRaman-allowed bands in [{args.raman_count}] under "
                     f"{args.raman_group}: {raman_count}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------------

def cmd_levels(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.model
    levels = rotor.LevelGapCache(model.potential, model.Jmax).levels(model.B, model.beta,
                                                                      args.max_energy)
    rows = [(lev.energy, lev.degeneracy, lev.rovib_label, lev.spin_species,
             lev.ordinal) for lev in levels]
    if args.format == "json":
        _emit_json({
            "model": {"B_cm1": model.B, "beta": model.beta, "Jmax": model.Jmax,
                      "potential": [list(t) for t in model.potential]},
            "levels": [dict(zip(("energy_cm1", "degeneracy", "label", "spin", "ordinal"), row))
                       for row in rows],
        }, args.out)
        return EXIT_OK
    with _output(args.out) as fh:
        if args.format == "csv":
            fh.write(LEVELS_CSV_HEADER + "\n")
            for e, d, lab, spin, ordn in rows:
                fh.write(f"{e!r},{d},{lab},{spin},{ordn}\n")
        else:
            fh.write(f"{'energy_cm1':>12s} {'deg':>4s} {'label':>6s} {'spin':>4s} {'n':>3s}\n")
            for e, d, lab, spin, ordn in rows:
                fh.write(f"{_fmt(e):>12s} {d:4d} {lab:>6s} {spin:>4s} {ordn:3d}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------------

def _sticks_csv(fh, lines):
    fh.write(STICKS_CSV_HEADER + "\n")
    for l in lines:
        fh.write(f"{l.frequency!r},{l.intensity!r},{l.lower},{l.upper},{l.activity}\n")


def _samples(freqs, amps):
    """(frequency, amplitude) of each sample as floats, converted 4096 at a time."""
    for i in range(0, len(freqs), 4096):
        yield from zip(freqs[i:i + 4096].tolist(), amps[i:i + 4096].tolist())


def _spectrum_csv(fh, freqs, amps):
    fh.write(SPECTRUM_CSV_HEADER + "\n")
    for f, a in _samples(freqs, amps):
        fh.write(f"{f!r},{a!r}\n")


def _spectrum_svg(fh, freqs, amps, lines, synth: spectrum.SpectrumConfig):
    width, height, pad = 900, 360, 45
    fmax = max(amps.max(), max((l.intensity for l in lines), default=0.0), 1e-300)
    x0, x1 = synth.start, synth.stop

    def xpix(f):
        return pad + (f - x0) / (x1 - x0) * (width - 2 * pad)

    def ypix(a):
        return height - pad - (a / fmax) * (height - 2 * pad)

    fh.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" '
        'stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>\n'
        f'<text x="{width//2}" y="{height-8}" text-anchor="middle" font-size="12">'
        "frequency / cm-1</text>\n"
    )
    for l in lines:
        if x0 <= l.frequency <= x1:
            fh.write(
                f'<line x1="{xpix(l.frequency):.2f}" y1="{ypix(0):.2f}" '
                f'x2="{xpix(l.frequency):.2f}" y2="{ypix(l.intensity):.2f}" '
                'stroke="steelblue" stroke-width="1.5"/>\n'
            )
    points = (f"{xpix(f):.2f},{ypix(a):.2f}" for f, a in _samples(freqs, amps))
    fh.write('<polyline points="' + next(points, ""))
    fh.writelines(" " + point for point in points)
    fh.write('" fill="none" stroke="crimson" stroke-width="1"/>\n</svg>\n')


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    system = rotor.diagonalize(cfg.model, max_energy=args.max_energy)
    levels = rotor.classify_levels(system, max_energy=args.max_energy)
    missing = spectrum.missing_initial_levels(levels)
    if missing:
        # the level table names the energies of those that lie above the cut
        model = cfg.model
        table = rotor.LevelGapCache(model.potential, model.Jmax).levels(model.B, model.beta)
        energy = {lev.name: lev.energy for lev in table}
        raise spectrum.SpectrumError(
            f"required ground levels missing below --max-energy {_fmt(args.max_energy)} cm-1: "
            + ", ".join(f"{name} at {_fmt(energy[name])} cm-1" if name in energy else name
                        for name in missing))
    envelope = spectrum.envelope_lines(levels, cfg.band, cfg.population)
    sticks = sorted(envelope + spectrum.rotational_raman_lines(levels, cfg.population),
                    key=lambda l: (l.frequency, l.lower, l.upper))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        freqs, amps = spectrum.synthesize(envelope, cfg.synthesis)
        clip_notes = [str(w.message) for w in caught]
    with _atomic_file(args.sticks) as fh:
        _sticks_csv(fh, sticks)
    with _atomic_file(args.out_spectrum) as fh:
        _spectrum_csv(fh, freqs, amps)
    if args.svg:
        with _atomic_file(args.svg) as fh:
            _spectrum_svg(fh, freqs, amps, envelope, cfg.synthesis)
    sys.stdout.write(
        f"lines: {len(sticks)} (sticks -> {args.sticks})\n"
        f"grid: {cfg.synthesis.start} .. {cfg.synthesis.stop} cm-1, "
        f"step {cfg.synthesis.step} (samples -> {args.out_spectrum})\n"
        f"fwhm: {_fmt(cfg.synthesis.fwhm)} cm-1 = {cfg.synthesis.fwhm_ghz:.2f} GHz "
        f"({cfg.synthesis.shape})\n"
    )
    for note in clip_notes:
        sys.stderr.write(f"warning: {note}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------------

def _peak_row(row) -> fitting.Peak:
    intensity = _finite(row[1]) if len(row) > 1 and row[1].strip() else None
    label = row[2].strip() if len(row) > 2 and row[2].strip() else None
    return fitting.Peak(_finite(row[0]), intensity, label)


def _read_peaks_csv(path: str) -> fitting.PeakList:
    peaks = tuple(_read_csv(path, PEAKS_CSV_HEADER, fitting.FitError, _peak_row))
    with _blaming(path, fitting.FitError):
        return fitting.PeakList(peaks)


def _read_envelope_csv(path: str):
    """Rows (frequencies, amplitudes) of a sampled envelope, parsed row by row;
    a sample past spectrum.MAX_GRID_SAMPLES, the most a grid holds, is an error."""
    rows = _read_csv(path, SPECTRUM_CSV_HEADER, fitting.FitError,
                     lambda row: (_finite(row[0]), _finite(row[1])))
    most = spectrum.MAX_GRID_SAMPLES
    samples = np.fromiter(itertools.islice(rows, most + 1), dtype=(float, 2))
    if len(samples) > most:
        raise fitting.FitError(f"{path}: more than {most} samples, the most a synthesis grid holds")
    return samples.T.copy()


def _fit_report_payload(report: fitting.FitReport) -> dict:
    return {
        "values": report.values,
        "free_parameters": list(report.free),
        "residuals": [
            {"transition": n, "observed_cm1": o, "modeled_cm1": m, "residual_cm1": r}
            for n, o, m, r in report.residuals
        ],
        "objective": report.objective,
        "iterations": report.iterations,
        "converged": report.converged,
        "message": report.message,
        "nearest_assigned": list(report.nearest_assigned),
        "best_start": report.best_start,
        "starts_run": report.starts_run,
        "identifiability": None if report.rank is None else {
            "rank": report.rank,
            "free_scalars": report.free_scalars,
            "unfixed": list(report.unfixed),
        },
    }


#: FitSpec field -> the `fit` flag that sets it
_FIT_FLAGS = {"free_params": "--free", "n_starts": "--starts", "max_iterations": "--max-iter",
              "tolerance": "--tol", "bounds": "--bound"}


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    free = tuple(x.strip() for x in args.free.split(",") if x.strip())
    initial = {p.key: value for p in config_mod.PARAMS
               if p.key in fitting.PARAM_DEFAULTS and (value := p.value(cfg)) is not None}
    bounds = {}
    for name, lo, hi in args.bound or ():
        if name in bounds:
            raise fitting.FitError(f"--bound: {name} given more than once")
        try:
            bounds[name] = (float(lo), float(hi))
        except ValueError as exc:
            raise fitting.FitError(f"--bound: {name}: {exc}") from None
    spec = fitting.FitSpec(free_params=free, bounds=bounds, initial=initial,
                           max_iterations=args.max_iter, tolerance=args.tol,
                           n_starts=args.starts)
    # with the flags valid, a FitError of the fit is about the observed data
    problems = spec.validate(positions=args.mode == "positions")
    if problems:
        raise fitting.FitError("; ".join(f"{_FIT_FLAGS[f]}: {msg}" for f, msg in problems))
    if args.mode == "positions":
        peaks = _read_peaks_csv(args.peaks)
        model = fitting.TransitionModel(potential=cfg.model.potential,
                                        jmax=cfg.model.Jmax)
        with _blaming(args.peaks, fitting.FitError):
            report = fitting.fit_line_positions(peaks, spec, model, seed=args.seed)
    else:
        freqs, amps = _read_envelope_csv(args.envelope)
        model = fitting.EnvelopeModel(potential=cfg.model.potential,
                                      jmax=min(cfg.model.Jmax, 8),
                                      pop=cfg.population, shape=cfg.synthesis.shape,
                                      band=cfg.band)
        with _blaming(args.envelope, fitting.FitError):
            report = fitting.fit_envelope(freqs, amps, spec, model, seed=args.seed)
    if args.out:
        _emit_json(_fit_report_payload(report), args.out)
    out = sys.stdout
    out.write(f"converged: {report.converged} (objective {report.objective:.6e}, "
              f"{report.iterations} iterations over {report.starts_run} of {spec.n_starts} "
              f"starts, best start {report.best_start})\n")
    for name in sorted(report.values):
        out.write(f"  {name:14s} = {_fmt(report.values[name])}\n")
    if report.residuals:
        out.write("residuals (cm-1):\n")
        for n, o, m, r in report.residuals:
            out.write(f"  {n:18s} obs {_fmt(o):>9s}  model {_fmt(m):>9s}  "
                      f"resid {r:+.3g}\n")
    if note := report.identifiability():
        out.write(note + "\n")
    if report.nearest_assigned:
        out.write("nearest-frequency assignments (no label given): "
                  + ", ".join(report.nearest_assigned) + "\n")
    if report.message and not report.converged:
        out.write(f"note: {report.message}\n")
    return EXIT_OK if report.converged else EXIT_NOCONV


# ----------------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------------

def _line_row(row) -> spectrum.Line:
    return spectrum.Line(frequency=_finite(row[0]), intensity=_finite(row[1]),
                         lower=row[2], upper=row[3], activity=row[4])


def _read_lines_csv(path: str, activity: str = "all", most: int | None = None) -> list:
    """The lines of `activity` ("all": every line) in a stick list; with
    `most`, the reader stops at the first line past `most`."""
    lines = _read_csv(path, STICKS_CSV_HEADER, qubitplan.PlanError, _line_row)
    if activity != "all":
        lines = (l for l in lines if l.activity == activity)
    return list(itertools.islice(lines, None if most is None else most + 1))


def _plan_payload(report: qubitplan.PlanReport, mc: dict | None) -> dict:
    payload = {
        "delta_omega_pairs": [
            {"upper_line": a, "lower_line": b, "delta_cm1": d, "delta_ghz": g}
            for a, b, d, g in report.delta_omega_pairs
        ],
        "channels": report.channels,
        "r12_nm": {
            "characteristic": report.r12_characteristic_nm,
            "poisson_mean": report.r12_poisson_mean_nm,
        },
        "couplings_hz": [
            {"at": label, "r_nm": r, "coupling_hz": hz}
            for label, r, hz in report.couplings
        ],
    }
    if mc:
        payload["monte_carlo"] = mc
    return payload


def cmd_plan(args) -> int:
    cfg = _load_config(args.config)
    most = qubitplan.MAX_LINES if args.max_pairs is None else None
    lines = _read_lines_csv(args.lines, args.activity, most)
    if most is not None and len(lines) > most:
        raise qubitplan.PlanError(f"{args.lines}: more than {most} lines make more pairs than "
                                  f"the {qubitplan.MAX_PAIRS} of a full table; keep the widest "
                                  "with --max-pairs")
    # the config is valid, so a PlanError here is about the lines
    with _blaming(args.lines, qubitplan.PlanError):
        report = qubitplan.build_plan_report(
            lines, cfg.crystal, band_fwhm_cm1=cfg.synthesis.fwhm,
            source_linewidth_ghz=cfg.source_linewidth_ghz, max_pairs=args.max_pairs)
    mc = None
    if args.mc_samples:
        mc_mean = qubitplan.nn_distance_mc(cfg.crystal, args.mc_samples, seed=args.seed)
        mc = {
            "samples": args.mc_samples,
            "seed": args.seed,
            "mean_nm": mc_mean,
            "relative_deviation": abs(mc_mean - report.r12_poisson_mean_nm)
            / report.r12_poisson_mean_nm,
        }
    if args.out:
        _emit_json(_plan_payload(report, mc), args.out)
    out = sys.stdout
    out.write(f"addressable channels per band: {report.channels} "
              f"(fwhm {_fmt(cfg.synthesis.fwhm)} cm-1 = "
              f"{units.cm1_to_ghz(cfg.synthesis.fwhm):.2f} GHz, "
              f"source {_fmt(cfg.source_linewidth_ghz)} GHz)\n")
    out.write(f"r12 characteristic: {_fmt(report.r12_characteristic_nm)} nm, "
              f"poisson mean: {_fmt(report.r12_poisson_mean_nm)} nm "
              f"(a = {_fmt(cfg.crystal.a_nm)} nm, c = {_fmt(cfg.crystal.c)})\n")
    if mc:
        out.write(f"monte carlo mean: {_fmt(mc['mean_nm'])} nm "
                  f"({mc['samples']} samples, dev {100*mc['relative_deviation']:.2f}%)\n")
    for label, r, hz in report.couplings:
        out.write(f"coupling at {label} r = {_fmt(r)} nm: {_fmt(hz/1e9)} GHz "
                  f"(mu = {_fmt(cfg.crystal.mu_debye)} D)\n")
    out.write("largest line separations:\n")
    for a, b, d, g in report.delta_omega_pairs[:10]:
        out.write(f"  {_fmt(d):>8s} cm-1 = {g:10.2f} GHz   {a}  vs  {b}\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorspec",
        description="Hindered-rotor levels, tunneling spectra and qubit planning "
                    "for tetrahedral rotors in crystal fields.",
    )
    sub = parser.add_subparsers(dest="command")

    p_sym = sub.add_parser("symmetry", help="character tables, correlations, spin weights")
    p_sym.add_argument("--json", action="store_true")
    p_sym.add_argument("--out")
    p_sym.add_argument("--raman-count", help="comma-separated irrep labels to count")
    p_sym.add_argument("--raman-group", default="Td", choices=("Td", "D2d"))
    p_sym.set_defaults(func=cmd_symmetry)

    p_lev = sub.add_parser("levels", help="labeled orientation level table")
    p_lev.add_argument("--config", required=True)
    p_lev.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p_lev.add_argument("--out")
    p_lev.add_argument("--max-energy", type=_at_least(0, float), default=150.0,
                       help="list levels up to this energy in cm-1")
    p_lev.set_defaults(func=cmd_levels)

    p_spec = sub.add_parser("spectrum", help="stick list and synthesized envelope")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--sticks", default="sticks.csv")
    p_spec.add_argument("--out-spectrum", default="spectrum.csv")
    p_spec.add_argument("--svg")
    p_spec.add_argument("--max-energy", type=_at_least(0, float), default=150.0)
    p_spec.set_defaults(func=cmd_spectrum)

    p_fit = sub.add_parser("fit", help="calibrate parameters against peaks or envelope")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--peaks", help="peak CSV (frequency_cm1,intensity,label)")
    p_fit.add_argument("--envelope", help="sampled spectrum CSV for mode=envelope")
    p_fit.add_argument("--mode", default="positions", choices=("positions", "envelope"))
    p_fit.add_argument("--free", default="B,beta,nu0,extra_offsets")
    fit_defaults = fitting.FitSpec(free_params=())
    for name, kind in (("n_starts", int), ("max_iterations", int), ("tolerance", float)):
        p_fit.add_argument(_FIT_FLAGS[name], type=kind, default=getattr(fit_defaults, name))
    p_fit.add_argument("--seed", type=_at_least(0, int), default=0)
    p_fit.add_argument("--bound", nargs=3, action="append",
                       metavar=("NAME", "LO", "HI"))
    p_fit.add_argument("--out", help="write the fit report JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_plan = sub.add_parser("plan", help="qubit-addressability report")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--lines", required=True, help="stick-list CSV")
    p_plan.add_argument("--out", help="write the plan JSON here")
    p_plan.add_argument("--activity", default="all", choices=("all", "IR", "Raman"))
    p_plan.add_argument("--max-pairs", type=_at_least(0, int), default=None)
    p_plan.add_argument("--mc-samples", type=_at_least(0, int, qubitplan.MAX_MC_SAMPLES),
                        default=0,
                        help="validate the poisson mean with this many samples")
    p_plan.add_argument("--seed", type=_at_least(0, int), default=0)
    p_plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (including unknown subcommands);
        # the contract here is exit 1 for every validation failure
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_INVALID
    if args.command == "fit":
        if args.mode == "positions" and not args.peaks:
            sys.stderr.write("fit --mode positions requires --peaks\n")
            return EXIT_INVALID
        if args.mode == "envelope" and not args.envelope:
            sys.stderr.write("fit --mode envelope requires --envelope\n")
            return EXIT_INVALID
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every input error type is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except rotor.RotorError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NOCONV


if __name__ == "__main__":
    raise SystemExit(main())
