#!/usr/bin/env python3
"""Show the spin-freezing signature: the stretching-band stick spectrum under
full thermal equilibrium versus frozen spin species, over a temperature scan.

In equilibrium everything except the strongest band collapses below a few
percent at liquid-helium temperatures; with the species frozen at their
statistical fractions the secondary bands stay comparable, which is why the
observed spectra barely change between 2.6 and 20 K.

The rotor and band models are those of configs/atpb.cfg, the calibrated
config of the README, at the Jmax of --jmax.

Usage: python scripts/intensity_contrast.py [--temps 2.6,7,16,20] [--jmax N]
"""

import argparse
from dataclasses import replace
from pathlib import Path

from rotorspec import config, rotor, spectrum

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "atpb.cfg"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--temps", default="2.6,7,16,20")
    ap.add_argument("--jmax", type=int, default=8)
    args = ap.parse_args()
    temps = [float(t) for t in args.temps.split(",")]

    cfg = config.parse_config(CONFIG.read_text(encoding="utf-8"))
    model = replace(cfg.model, Jmax=args.jmax)
    levels = rotor.classify_levels(rotor.diagonalize(model), max_energy=60.0)

    for T in temps:
        print(f"\n=== T = {T} K ===")
        print(f"{'transition':26s} {'cm^-1':>9s} {'thermal':>9s} {'frozen':>9s}")
        rows = {}
        for mode in ("thermal", "spin_frozen"):
            pop = spectrum.PopulationModel(mode=mode, T=T)
            for line in spectrum.vibration_orientation_lines(levels, cfg.band, pop):
                key = (line.lower, line.upper, line.frequency)
                rows.setdefault(key, {})[mode] = line.intensity
        ref = {m: rows[("(A1)1", "(L1)1*",
                        next(k[2] for k in rows if k[:2] == ("(A1)1", "(L1)1*")))][m]
               for m in ("thermal", "spin_frozen")}
        for (lo, up, freq), vals in sorted(rows.items(), key=lambda kv: kv[0][2]):
            t_rel = 100 * vals.get("thermal", 0.0) / ref["thermal"]
            f_rel = 100 * vals.get("spin_frozen", 0.0) / ref["spin_frozen"]
            print(f"{lo + ' -> ' + up:26s} {freq:9.2f} {t_rel:8.2f}% {f_rel:8.2f}%")


if __name__ == "__main__":
    main()
