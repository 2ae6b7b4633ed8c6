#!/usr/bin/env python3
"""rotorspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (why each exists: BENCHMARK.json
and perfbench/README.md):

  cli-j10        levels, spectrum and plan on configs/atpb.cfg (Jmax 10), each
                 in a fresh process, plan reading the sticks spectrum wrote
  cli-j14        spectrum on the same config with Jmax 14
  fit-positions  fit against the four observed band maxima, 8 starts
  beta-scan      one process at Jmax 8: diagonalize, classify, both line
                 generators and synthesize for ten beta values

Every run does one untimed warm-up pass at Jmax 4.  With --trace 0 it then
takes three set-up samples and repeats whole timed passes until --seconds
have passed (at least one), and prints the end-to-end metrics: medians over
samples and passes, peak RSS over all timed processes.  With --trace 1 it
runs one untraced pass and one pass with every layer traced, and prints the
per-layer metrics.  Every operation's output is checked against
perfbench/ref/ and against earlier runs on the same sources (determinism);
`attempted` counts the operations and `failed` those whose process failed or
whose output did not pass.  The last line of stdout is the result object.

--record writes the outputs as the new reference instead of checking them;
--scale tiny shrinks every workload for perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CONFIG = os.path.join("configs", "atpb.cfg")
CLI_ENTRY = "import sys; from rotorspec.cli import main; sys.exit(main())"
DEADLINE_S = 165.0         # a run must end within 180 s
SETUP_SAMPLES = 3
MC_SAMPLES = 100_000
FIT_FREE = ["B", "beta", "nu0", "extra_offsets"]
OBSERVED_BANDS = [(3206.0, "(L1)1->(L1)1*"), (3217.0, "(A1)1->(L1)1*"),
                  (3230.0, "(L1)1->(L1)2*"), (3235.0, "(L1)1->(E3)1*")]
SCAN_FIRST = 1.0
SCAN_REST = [0.05, 0.1, 0.2, 0.3, 0.5, 1.5, 2.5, 4.0, 6.0]   # spans PARAM_BOUNDS

# per scale: Jmax of each workload, extra fit flags, the betas after the first
SCALES = {
    "full": {"cli-j10": 10, "cli-j14": 14, "fit-positions": 10, "beta-scan": 8,
             "fit_flags": [], "scan_rest": SCAN_REST},
    "tiny": {"cli-j10": 4, "cli-j14": 5, "fit-positions": 4, "beta-scan": 4,
             "fit_flags": ["--starts", "2"], "scan_rest": [0.1, 3.0]},
}

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# span name -> per-layer metric holding the sum of its self times
SELF_TIME_METRICS = {
    "workload": "trace.driver_s",
    "process": "trace.process_s",
    "setup.import": "setup.import_s",
    "trace.residual_checks": "trace.residual_checks_s",
    "cli.main": "cli.self_s",
    "config.parse_config": "config.parse_config.s",
    "rotor.hamiltonian_matrix": "rotor.hamiltonian_matrix.s",
    "rotor.diagonalize": "rotor.diagonalize.s",
    "rotor.classify_levels": "rotor.classify_levels.s",
    "rotor.rank_operator_blocks": "rotor.rank_operator_blocks.s",
    "rotor.transition_strength": "rotor.transition_strength.s",
    "rotor.gap": "rotor.gap.s",
    "rotor.eigenvalues": "rotor.eigenvalues.s",
    "spectrum.vibration_orientation_lines": "spectrum.vibration_orientation_lines.s",
    "spectrum.rotational_raman_lines": "spectrum.rotational_raman_lines.s",
    "spectrum.sum_band_lines": "spectrum.sum_band_lines.s",
    "spectrum.synthesize": "spectrum.synthesize.s",
    "fitting.fit_line_positions": "fitting.fit_line_positions.s",
    "fitting.frequencies": "fitting.frequencies.s",
    "qubitplan.build_plan_report": "qubitplan.build_plan_report.s",
    "qubitplan.nn_distance_mc": "qubitplan.nn_distance_mc.s",
    "scan.beta": "scan.self_s",
}
COUNT_METRICS = [
    "rotor.wigner3j.calls", "rotor.basis_n", "rotor.H.bytes_computed",
    "rotor.diagonalize.ops_computed", "rotor.eig_residual", "rotor.eig_ortho_defect",
    "rotor.gap.calls", "rotor.gap.solves", "rotor.eigenvalues.calls",
    "rotor.classify_levels.clusters", "rotor.classify_levels.split_clusters",
    "rotor.classify_levels.flagged", "rotor.wigner_d_matrix.calls",
    "rotor.rank_operator_blocks.nnz", "rotor.transition_strength.calls",
    "spectrum.lines.ir", "spectrum.lines.raman", "spectrum.lines.sum",
    "spectrum.synthesize.offgrid_lines", "fitting.frequencies.calls",
    "fitting.nm_iterations", "fitting.best_start", "qubitplan.pairs",
]
SPLIT_METRICS = {"levels": "untraced.levels_s", "spectrum": "untraced.spectrum_s",
                 "plan": "untraced.plan_s", "fit": "untraced.fit_s",
                 "beta": "untraced.scan_beta_s"}


def per_layer_units():
    """name -> unit of every per-layer metric, in report order."""
    units = {m: "s" for m in SELF_TIME_METRICS.values()}
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({"rotor.H.bytes_computed": "B", "rotor.diagonalize.ops_computed": "flop",
                  "rotor.eig_residual": "ratio", "rotor.eig_ortho_defect": "ratio",
                  "rotor.gap.hit_ratio": "ratio", "rotor.classify_levels.resolved_ratio": "ratio",
                  "spectrum.synthesize.ongrid_ratio": "ratio",
                  "cli.bytes_written": "B", "cli.stderr_bytes": "B"})
    units.update({m: "s" for m in SPLIT_METRICS.values()})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.self_sum_s": "s"})
    return units


class Failure(Exception):
    """The benchmark cannot run here at all: no result is printed."""


def basis_record(jmax):
    blocks = [0, 0, 0, 0]
    for J in range(jmax + 1):
        for k in range(-J, J + 1):
            for m in range(-J, J + 1):
                blocks[2 * (k % 2) + m % 2] += 1
    return {"jmax": jmax, "n": sum(blocks), "parity_blocks": blocks}


class Context:
    def __init__(self, args):
        self.workload, self.seed = args.workload, args.seed
        self.scale = SCALES[args.scale]
        self.jmax = self.scale[self.workload]
        self.record = args.record
        self.ref_dir = os.path.join(args.ref_dir, self.workload)
        base = os.path.join(ROOT, ".perfbench")
        self.work = os.path.join(base, args.scale, self.workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if self.record:
            os.makedirs(self.ref_dir, exist_ok=True)
        self.digests = checks.Digests(os.path.join(base, "digests.json"),
                                      checks.tree_digest(ROOT))
        self.env = dict(os.environ)
        # an installed package has its .pyc files; the warm-up writes them here
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.spans: list[list] = []     # merged spans of the traced pass
        self.counts: dict = {}
        self.outputs: list[str] = []    # files written by the traced pass
        self.deadline = tracing.clock() + DEADLINE_S

    def path(self, name):
        return os.path.join(self.work, name)

    # -- processes -------------------------------------------------------------
    def spawn(self, argv, tag, traced=False):
        """Run one child to completion; returns (rc, start, end, maxrss_kb)."""
        out, err = self.path(tag + ".out"), self.path(tag + ".err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = tracing.clock()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
        timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = tracing.clock()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc == -signal.SIGKILL and end >= self.deadline:
            self.problems.append(f"{tag}: killed at the {DEADLINE_S:.0f} s deadline")
        if traced:
            self.spans.append(["process", start, end, 0])
        return rc, start, end, usage.ru_maxrss

    def merge_trace(self, path):
        """Append a traced child's spans under its process span."""
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        offset, parent = len(self.spans), len(self.spans) - 1
        for name, start, end, up in dump["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset])
        for key, value in dump["counts"].items():
            if key in ("rotor.basis_n", "rotor.eig_residual", "rotor.eig_ortho_defect"):
                self.counts[key] = max(self.counts.get(key, 0), value)
            elif key == "fitting.best_start":
                self.counts[key] = value
            else:
                self.counts[key] = self.counts.get(key, 0) + value
        return dump

    def op(self, tag, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag}: {p}" for p in problems)

    def outcome(self, tag, rc, check=None):
        """Book one operation: exit status, then the output check."""
        problems = [f"exit status {rc}"] if rc != 0 else []
        if not problems and check is not None:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        self.op(tag, problems)

    def output(self, name, check=None, record=shutil.copyfile, seeded=False):
        """Determinism check of one output file, then check(path, ref_path)
        against the reference; under --record, record(path, ref_path) writes
        the reference instead."""
        path = self.path(name)
        self.outputs.append(path)
        key = f"{self.workload}:{self.jmax}:{self.seed if seeded else '*'}:{name}"
        with open(path, "rb") as fh:
            problems = self.digests.check(key, fh.read())
        ref_path = os.path.join(self.ref_dir, name)
        if self.record:
            if record is not None:
                record(path, ref_path)
            return problems
        return problems + (check(path, ref_path) if check else [])

    # -- operations ------------------------------------------------------------
    def rotorspec(self, tag, cli_args, traced):
        """One CLI subcommand in a fresh process; returns (rc, wall, maxrss)."""
        if traced:
            trace_out = self.path(tag + ".trace.json")
            argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli", trace_out, "--"]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY]
        rc, start, end, rss = self.spawn(argv + cli_args, tag, traced)
        if traced and rc == 0:
            self.merge_trace(trace_out)
        return rc, end - start, rss

    def setup_sample(self):
        rc, start, end, _ = self.spawn([sys.executable, "-c", "import rotorspec.cli"], "setup")
        self.outcome("setup", rc)
        return end - start

    def config(self, jmax):
        """The shipped config, with [model] Jmax replaced when it differs."""
        if jmax == 10:
            return CONFIG
        with open(os.path.join(ROOT, CONFIG), encoding="utf-8") as fh:
            text, n = re.subn(r"(?m)^Jmax\s*=\s*\d+\s*$", f"Jmax = {jmax}", fh.read())
        if n != 1:
            raise Failure(f"{CONFIG}: expected one 'Jmax =' line, found {n}")
        path = self.path(f"atpb_j{jmax}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ----------------------------------------------------------------------------
# passes: one pass of each workload; returns {"op_s": ..., "split": {...}}
# ----------------------------------------------------------------------------

def pass_cli(ctx, traced, commands):
    cfg = ctx.config(ctx.jmax)
    split, rss = {}, 0
    w = ctx.path
    if "levels" in commands:
        rc, split["levels"], r = ctx.rotorspec(
            "levels", ["levels", "--config", cfg, "--format", "csv", "--out", w("levels.csv")],
            traced)
        ctx.outcome("levels", rc, lambda: ctx.output("levels.csv", checks.check_levels_csv))
        rss = max(rss, r)
    rc, split["spectrum"], r = ctx.rotorspec(
        "spectrum", ["spectrum", "--config", cfg, "--sticks", w("sticks.csv"),
                     "--out-spectrum", w("spectrum.csv")], traced)
    ctx.outcome("spectrum", rc, lambda: ctx.output("sticks.csv", checks.check_sticks_csv)
                + ctx.output("spectrum.csv", checks.check_envelope_csv))
    rss = max(rss, r)
    if "plan" in commands:
        rc, split["plan"], r = ctx.rotorspec(
            "plan", ["plan", "--config", cfg, "--lines", w("sticks.csv"), "--out",
                     w("plan.json"), "--mc-samples", str(MC_SAMPLES), "--seed", str(ctx.seed)],
            traced)

        def plan_check(path, ref_path):
            return checks.check_plan(path, w("sticks.csv"), ref_path, MC_SAMPLES, ctx.seed)

        def plan_record(path, ref_path):
            with open(path, encoding="utf-8") as fh:
                summary = checks.plan_summary(json.load(fh))
            with open(ref_path, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)

        ctx.outcome("plan", rc, lambda: ctx.output("plan.json", plan_check, plan_record,
                                                   seeded=True))
        rss = max(rss, r)
    return {"op_s": sum(split.values()), "split": split, "rss": rss}


def pass_fit(ctx, traced):
    # The fit's own seed draws its 7 random starts, and with them 2300-3100
    # simplex iterations (seeds 0-5): a seed-dependent fit would spread op_s
    # past its bound by the seed alone.  It keeps seed 0, the seed of
    # acceptance criterion 1; the workload seed orders the peak rows.
    rc, wall, rss = ctx.rotorspec(
        "fit", ["fit", "--config", ctx.config(ctx.jmax), "--peaks", ctx.path("peaks.csv"),
                "--out", ctx.path("fit.json"), "--seed", "0"]
        + ctx.scale["fit_flags"], traced)
    ctx.outcome("fit", rc, lambda: ctx.output(
        "fit.json", lambda path, _: checks.check_fit(path, FIT_FREE), None, seeded=True))
    return {"op_s": wall, "split": {"fit": wall}, "rss": rss}


def scan_betas(ctx):
    rest = list(ctx.scale["scan_rest"])
    random.Random(ctx.seed).shuffle(rest)
    return [SCAN_FIRST] + rest


def run_scan(ctx, betas, tag, traced=False):
    """One scan process; books one operation per beta.  Returns (set-up time,
    per-beta times after the first, maxrss)."""
    out = ctx.path(tag + ".json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "scan", out,
            "--config", ctx.config(10), "--jmax", str(ctx.jmax),
            "--betas", ",".join(repr(b) for b in betas)]
    rc, start, end, rss = ctx.spawn(argv + (["--trace"] if traced else []), tag, traced)
    if rc != 0:
        for beta in betas:
            ctx.outcome(f"{tag} beta {beta:g}", rc)
        return None, [], rss
    if traced:
        dump = ctx.merge_trace(out)
    else:
        with open(out, encoding="utf-8") as fh:
            dump = json.load(fh)
    results = dump["betas"]
    for res in results:
        name = f"beta_{res['beta']:g}.json"
        ctx.outcome(f"{tag} beta {res['beta']:g}", 0, lambda: _check_beta(ctx, name, res))
    ends = [start] + [res["end"] for res in results]
    return ends[1] - start, [b - a for a, b in zip(ends[1:], ends[2:])], rss


def _check_beta(ctx, name, res):
    body = json.dumps({k: v for k, v in res.items() if k != "end"}, sort_keys=True)
    problems = ctx.digests.check(f"{ctx.workload}:{ctx.jmax}:*:{name}", body.encode())
    ref_path = os.path.join(ctx.ref_dir, name)
    if ctx.record:
        with open(ref_path, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
        return problems
    with open(ref_path, encoding="utf-8") as fh:
        return problems + checks.check_scan_beta(res, json.load(fh))


def pass_scan(ctx, traced):
    setup, times, rss = run_scan(ctx, scan_betas(ctx), "scan", traced)
    beta_s = statistics.median(times) if times else None
    return {"op_s": beta_s, "setup_s": setup, "split": {"beta": beta_s}, "rss": rss}


PASSES = {
    "cli-j10": lambda ctx, traced: pass_cli(ctx, traced, ("levels", "spectrum", "plan")),
    "cli-j14": lambda ctx, traced: pass_cli(ctx, traced, ("spectrum",)),
    "fit-positions": pass_fit,
    "beta-scan": pass_scan,
}
WARMUP_STEPS = {"cli-j10": "levels,spectrum,plan", "cli-j14": "spectrum",
                "fit-positions": "fit", "beta-scan": "scan"}


def timed_pass(ctx, traced):
    """One pass, with its wall time from first spawn to last check."""
    start = tracing.clock()
    result = PASSES[ctx.workload](ctx, traced)
    result["wall"] = tracing.clock() - start
    return result


# ----------------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------------

def warmup(ctx):
    """Write the peak list (rows ordered by the seed), then run the untimed
    pass of the workload's steps at Jmax 4; returns the environment the
    warm-up process recorded."""
    warm = ctx.path("warmup")
    os.makedirs(warm)
    bands = list(OBSERVED_BANDS)
    random.Random(ctx.seed).shuffle(bands)
    for directory in (ctx.work, warm):
        with open(os.path.join(directory, "peaks.csv"), "w", encoding="utf-8") as fh:
            fh.write("frequency_cm1,intensity,label\n")
            fh.writelines(f"{f},,{label}\n" for f, label in bands)
    rc, _, _, _ = ctx.spawn([sys.executable, os.path.join(HERE, "worker.py"), "warmup", warm,
                             ctx.config(4), WARMUP_STEPS[ctx.workload]], "warmup")
    ctx.outcome("warm-up", rc)
    if rc != 0:
        raise Failure("warm-up failed; see .perfbench/*/*/warmup.err")
    with open(os.path.join(warm, "env.json"), encoding="utf-8") as fh:
        return json.load(fh)


def timed_run(ctx, seconds):
    """End-to-end metrics: medians over set-up samples and over whole passes,
    repeated until `seconds` have passed."""
    if ctx.workload == "beta-scan":
        setups = [run_scan(ctx, [SCAN_FIRST], f"setup{i}")[0] for i in range(SETUP_SAMPLES - 1)]
    else:
        setups = [ctx.setup_sample() for _ in range(SETUP_SAMPLES)]
    passes = []
    start = tracing.clock()
    while True:
        passes.append(timed_pass(ctx, False))
        now = tracing.clock()
        if now - start >= seconds or now + passes[-1]["wall"] > ctx.deadline:
            break
    if ctx.workload == "beta-scan":
        setups += [p["setup_s"] for p in passes]
    ops = [p["op_s"] for p in passes if p["op_s"] is not None]
    setups = [s for s in setups if s is not None]
    if not ops or not setups:
        raise Failure("no timed pass completed: " + "; ".join(ctx.problems[:3]))
    return {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(ops),
        "peak_rss_mb": max(p["rss"] for p in passes) * 1024 / 1e6,
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def trace_run(ctx):
    """Per-layer metrics: one untraced pass, then one pass with every layer
    traced; the difference of their wall times is the tracing overhead."""
    untraced = timed_pass(ctx, False)
    ctx.outputs.clear()
    ctx.spans.append(["workload", tracing.clock(), None, -1])
    traced = timed_pass(ctx, True)
    ctx.spans[0][2] = tracing.clock()
    with open(ctx.path("spans.json"), "w", encoding="utf-8") as fh:
        json.dump(ctx.spans, fh)
    self_s = tracing.self_times(ctx.spans)
    c = ctx.counts
    metrics = {m: self_s.get(span, 0.0) for span, m in SELF_TIME_METRICS.items()}
    metrics.update({m: c.get(m, 0) for m in COUNT_METRICS})
    metrics["rotor.gap.hit_ratio"] = 1.0 - _ratio(c.get("rotor.gap.solves", 0),
                                                  c.get("rotor.gap.calls", 0))
    metrics["rotor.classify_levels.resolved_ratio"] = 1.0 - _ratio(
        c.get("rotor.classify_levels.flagged", 0), c.get("rotor.classify_levels.levels", 0))
    metrics["spectrum.synthesize.ongrid_ratio"] = 1.0 - _ratio(
        c.get("spectrum.synthesize.offgrid_lines", 0), c.get("spectrum.synthesize.lines", 0))
    streams = [ctx.path(f"{tag}.{ext}") for tag in ("levels", "spectrum", "plan", "fit")
               for ext in ("out", "err")]
    metrics["cli.bytes_written"] = sum(os.path.getsize(p) for p in ctx.outputs
                                       + [s for s in streams if s.endswith(".out")]
                                       if os.path.exists(p))
    metrics["cli.stderr_bytes"] = sum(os.path.getsize(p) for p in streams
                                      if p.endswith(".err") and os.path.exists(p))
    metrics.update({m: untraced["split"].get(k) or 0.0 for k, m in SPLIT_METRICS.items()})
    metrics["trace.wall_s"] = ctx.spans[0][2] - ctx.spans[0][1]
    metrics["trace.untraced_wall_s"] = untraced["wall"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall"]
    metrics["trace.self_sum_s"] = sum(self_s.values())
    if traced["op_s"] is None:
        raise Failure("the traced pass did not complete: " + "; ".join(ctx.problems[:3]))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--ref-dir", default=os.path.join(HERE, "ref"))
    ap.add_argument("--record", action="store_true",
                    help="write outputs as the reference instead of checking them")
    args = ap.parse_args(argv)
    missing = [p for p in ("src/rotorspec/cli.py", CONFIG) if not os.path.isfile(p)]
    if missing:
        sys.stderr.write(f"perfbench: run from a rotorspec checkout; missing {missing}\n")
        return 2
    ctx = Context(args)
    try:
        env = warmup(ctx)
        metrics = trace_run(ctx) if args.trace else timed_run(ctx, args.seconds)
    except Failure as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    ctx.digests.save()
    for problem in ctx.problems:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    env["nproc"] = os.cpu_count()
    print(json.dumps({"workload": ctx.workload, "seed": ctx.seed, "trace": args.trace,
                      "environment": env, "basis": basis_record(ctx.jmax)}, sort_keys=True))
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": ctx.failed == 0 and not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
