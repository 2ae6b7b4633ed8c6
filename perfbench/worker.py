"""Child-process entry points of the benchmark.

    worker.py cli OUT.json -- <rotorspec arguments>   traced CLI subcommand
    worker.py scan OUT.json --config C --jmax J --betas B1,B2,.. [--trace]
    worker.py warmup WORKDIR CONFIG STEPS              untimed warm-up pass

Each mode imports rotorspec itself, so the parent process never does, and
writes one JSON file that run.py reads back.  Timestamps are perf_counter
values, which share CLOCK_MONOTONIC with the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from tracing import Tracer, clock


def _write_json(path, payload):
    tmp = path + ".part"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def run_cli(out_path, argv) -> int:
    """One CLI subcommand in this process, with every layer traced."""
    tracer = Tracer()
    start = clock()
    from rotorspec import cli

    tracer.add_closed("setup.import", start, clock())
    tracer.install()
    index = tracer.open("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tracer.close(index)
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.flush()
    tracer.residual_checks()
    _write_json(out_path, tracer.dump())
    return rc


def _scan_one(cfg, beta, jmax, tracer):
    """The envelope fit's per-beta work: eigen-solve, classification, both
    line generators and synthesis, through the public API."""
    from rotorspec import rotor, spectrum

    index = tracer.open("scan.beta") if tracer else None
    model = rotor.RotorModel.create(B=cfg.model.B, beta=beta, potential=cfg.model.potential,
                                    Jmax=jmax)
    system = rotor.diagonalize(model)
    levels = rotor.classify_levels(system, max_energy=150.0)
    ir = spectrum.vibration_orientation_lines(levels, cfg.band, cfg.population)
    raman = spectrum.rotational_raman_lines(levels, cfg.population)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-grid Raman lines; counted by the tracer
        freqs, amps = spectrum.synthesize(ir + raman, cfg.synthesis)
    end = clock()
    if tracer:
        tracer.close(index)
        tracer.residual_checks()
    return {
        "beta": beta,
        "end": end,
        "levels": [[lev.energy, lev.degeneracy, lev.rovib_label, lev.spin_species,
                    lev.ordinal, lev.flagged] for lev in levels],
        "sticks": [[l.frequency, l.intensity, l.lower, l.upper, l.activity]
                   for l in ir + raman],
        "envelope": [len(freqs), float(freqs[0]), float(freqs[-1]), float(amps.sum()),
                     float(amps.max())],
    }


def run_scan(out_path, config_path, jmax, betas, trace) -> int:
    tracer = Tracer() if trace else None
    start = clock()
    from rotorspec import config

    if tracer:
        tracer.add_closed("setup.import", start, clock())
        tracer.install()
    with open(config_path, encoding="utf-8") as fh:
        cfg = config.parse_config(fh.read())
    results = [_scan_one(cfg, beta, jmax, tracer) for beta in betas]
    payload = {"betas": results}
    if tracer:
        tracer.uninstall()
        payload.update(tracer.dump())
    _write_json(out_path, payload)
    return 0


def run_warmup(workdir, config_path, steps) -> int:
    """Run the workload's steps at a tiny size: compiles the .pyc files, loads
    BLAS and fills the file cache.  Also records the numerical environment."""
    import numpy
    import scipy

    from rotorspec import cli

    def main(*argv):
        rc = cli.main(list(argv))
        if rc != 0:
            raise SystemExit(f"warm-up failed: rotorspec {' '.join(argv)} exited {rc}")

    w = lambda name: os.path.join(workdir, name)  # noqa: E731
    if "levels" in steps:
        main("levels", "--config", config_path, "--format", "csv", "--out", w("levels.csv"))
    if "spectrum" in steps:
        main("spectrum", "--config", config_path, "--sticks", w("sticks.csv"),
             "--out-spectrum", w("spectrum.csv"))
    if "plan" in steps:
        main("plan", "--config", config_path, "--lines", w("sticks.csv"),
             "--out", w("plan.json"), "--mc-samples", "1000")
    if "fit" in steps:
        main("fit", "--config", config_path, "--peaks", w("peaks.csv"), "--out", w("fit.json"),
             "--starts", "1", "--max-iter", "20")
    if "scan" in steps:
        run_scan(w("scan.json"), config_path, 4, [1.0], trace=False)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write_json(w("env.json"), {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    })
    return 0


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("out")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("scan")
    p.add_argument("out")
    p.add_argument("--config", required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("warmup")
    p.add_argument("workdir")
    p.add_argument("config")
    p.add_argument("steps", help="comma-separated: levels,spectrum,plan,fit,scan")
    args = ap.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.out, argv)
    if args.mode == "scan":
        betas = [float(b) for b in args.betas.split(",")]
        return run_scan(args.out, args.config, args.jmax, betas, args.trace)
    return run_warmup(args.workdir, args.config, args.steps.split(","))


if __name__ == "__main__":
    raise SystemExit(main())
