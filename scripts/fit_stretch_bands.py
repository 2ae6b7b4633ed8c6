#!/usr/bin/env python3
"""Calibrate the rotor model against the four observed N-H stretching bands
and report the tunneling frequency the fit implies.

The bands are read from configs/atpb_peaks.csv, the peak file of the
README's `fit` example, with the reader `rotorspec fit --peaks` uses.

Usage: python scripts/fit_stretch_bands.py [--jmax N] [--seed N]
"""

import argparse
import time
from pathlib import Path

from rotorspec import cli, fitting

PEAKS_CSV = Path(__file__).resolve().parent.parent / "configs" / "atpb_peaks.csv"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jmax", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=fitting.FitSpec(free_params=()).n_starts)
    args = ap.parse_args()

    peaks = cli._read_peaks_csv(str(PEAKS_CSV))
    spec = fitting.FitSpec(free_params=("B", "beta", "nu0", "extra_offsets"),
                           n_starts=args.starts)
    model = fitting.TransitionModel(jmax=args.jmax)

    t0 = time.perf_counter()
    report = fitting.fit_line_positions(peaks, spec, model, seed=args.seed)
    dt = time.perf_counter() - t0

    print(f"converged: {report.converged} in {dt:.1f} s "
          f"({report.iterations} solver iterations over {report.starts_run} "
          f"of {args.starts} starts)")
    print(report.identifiability())
    for name in spec.scalar_free():
        print(f"  {name:12s} = {report.values[name]:.6g}")
    print(f"  omega_LA     = {model.omega_la(report.values):.4f} cm^-1")
    print("residuals:")
    for name, obs, mod, res in report.residuals:
        print(f"  {name:18s} {obs:9.2f} -> {mod:9.4f}  ({res:+.2e} cm^-1)")
    print("note: the four positions constrain only B*gap(beta); any (B, beta)")
    print("pair along that ridge reproduces them, so quote omega_LA, not B.")


if __name__ == "__main__":
    main()
