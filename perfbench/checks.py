"""Output checks against reference outputs, and the determinism record.

The references under perfbench/ref/ were produced by `run.py --record` at the
commit that introduced the benchmark.  Discrete fields (labels, degeneracies,
spins, ordinals, flags, stick lower/upper/activity, line and pair counts,
pair names, plan channels) must match exactly; floats must match within the
tolerances below.  Every check returns a list of problems, empty when the
output passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

ENERGY_TOL = 1e-6          # cm^-1: level energies, stick frequencies, pair deltas
INTENSITY_RTOL = 1e-6      # relative, stick intensities (plus 1e-12 absolute)
ENVELOPE_RTOL = 1e-6       # of the largest reference amplitude
CLOSED_FORM_RTOL = 1e-9    # plan quantities computed in closed form
MC_DEVIATION = 0.02        # Monte Carlo mean nearest-neighbour distance vs Poisson mean
FIT_RESIDUAL = 1e-2        # cm^-1, largest position residual of the four-band fit
OMEGA_LA = (10.0, 12.0)    # cm^-1, acceptance criterion 1: 11 +- 1
GHZ_PER_CM1 = 29.9792458


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, atol, rtol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_levels(rows, ref, what, discrete=True):
    """rows/ref: [energy, degeneracy, label, spin, ordinal, ...] sequences."""
    if len(rows) != len(ref):
        return [f"{what}: {len(rows)} levels, reference has {len(ref)}"]
    problems = []
    for i, (got, exp) in enumerate(zip(rows, ref)):
        if not _close(float(got[0]), float(exp[0]), ENERGY_TOL):
            problems.append(f"{what} row {i}: energy {got[0]} != {exp[0]}")
        fields = range(1, len(exp)) if discrete else (1,)
        if any(str(got[k]) != str(exp[k]) for k in fields):
            problems.append(f"{what} row {i}: {got[1:]} != {exp[1:]}")
    return problems[:5]


def check_levels_csv(path, ref_path):
    header, rows = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    if header != ref_header:
        return [f"levels header {header} != {ref_header}"]
    return _compare_levels(rows, ref, "levels")


def _compare_sticks(rows, ref, what):
    """rows/ref: [frequency, intensity, lower, upper, activity]; matched by
    (lower, upper, activity), which is unique within a stick list."""
    got = {tuple(r[2:5]): r for r in rows}
    exp = {tuple(r[2:5]): r for r in ref}
    if len(got) != len(rows) or len(exp) != len(ref):
        return [f"{what}: duplicate (lower, upper, activity) keys"]
    if got.keys() != exp.keys():
        missing = sorted(exp.keys() - got.keys())[:3]
        extra = sorted(got.keys() - exp.keys())[:3]
        return [f"{what}: {len(rows)} lines vs {len(ref)}; missing {missing}, extra {extra}"]
    problems = []
    for key, e in exp.items():
        g = got[key]
        if not _close(float(g[0]), float(e[0]), ENERGY_TOL):
            problems.append(f"{what} {key}: frequency {g[0]} != {e[0]}")
        if not _close(float(g[1]), float(e[1]), 1e-12, INTENSITY_RTOL):
            problems.append(f"{what} {key}: intensity {g[1]} != {e[1]}")
    return problems[:5]


def check_sticks_csv(path, ref_path):
    header, rows = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    if header != ref_header:
        return [f"sticks header {header} != {ref_header}"]
    return _compare_sticks(rows, ref, "sticks")


def check_envelope_csv(path, ref_path):
    header, rows = read_csv(path)
    ref_header, ref = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref):
        return [f"envelope: {len(rows)} samples, reference has {len(ref)}"]
    scale = max(abs(float(r[1])) for r in ref) or 1.0
    for i, (g, e) in enumerate(zip(rows, ref)):
        if not _close(float(g[0]), float(e[0]), 1e-9):
            return [f"envelope sample {i}: frequency {g[0]} != {e[0]}"]
        if not _close(float(g[1]), float(e[1]), ENVELOPE_RTOL * scale):
            return [f"envelope sample {i}: amplitude {g[1]} != {e[1]}"]
    return []


def _pair_names_digest(pairs):
    names = sorted("|".join(sorted((p["upper_line"], p["lower_line"]))) for p in pairs)
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


def plan_summary(plan):
    """The seed-independent part of a plan report that the reference keeps."""
    return {
        "channels": plan["channels"],
        "r12_nm": plan["r12_nm"],
        "couplings_hz": plan["couplings_hz"],
        "pair_count": len(plan["delta_omega_pairs"]),
        "pair_names_sha256": _pair_names_digest(plan["delta_omega_pairs"]),
    }


def check_plan(path, sticks_path, ref_path, mc_samples, seed):
    """Closed-form fields against the reference; every pair separation
    against the stick list the plan read; the Monte Carlo mean against the
    Poisson mean."""
    with open(path, encoding="utf-8") as fh:
        plan = json.load(fh)
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    problems = []
    got = plan_summary(plan)
    for key in ("channels", "pair_count", "pair_names_sha256"):
        if got[key] != ref[key]:
            problems.append(f"plan {key}: {got[key]} != {ref[key]}")
    for key in ("characteristic", "poisson_mean"):
        if not _close(got["r12_nm"][key], ref["r12_nm"][key], 0.0, CLOSED_FORM_RTOL):
            problems.append(f"plan r12_nm.{key}: {got['r12_nm'][key]} != {ref['r12_nm'][key]}")
    if [c["at"] for c in got["couplings_hz"]] != [c["at"] for c in ref["couplings_hz"]]:
        problems.append("plan coupling labels differ")
    else:
        for g, e in zip(got["couplings_hz"], ref["couplings_hz"]):
            if not (_close(g["r_nm"], e["r_nm"], 0.0, CLOSED_FORM_RTOL)
                    and _close(g["coupling_hz"], e["coupling_hz"], 0.0, CLOSED_FORM_RTOL)):
                problems.append(f"plan coupling at {g['at']}: {g} != {e}")
    _, sticks = read_csv(sticks_path)
    freq = {f"{r[2]}->{r[3]}": float(r[0]) for r in sticks}
    last = math.inf
    for p in plan["delta_omega_pairs"]:
        up, lo = freq.get(p["upper_line"]), freq.get(p["lower_line"])
        if up is None or lo is None:
            problems.append(f"plan pair {p['upper_line']} / {p['lower_line']}: unknown line")
            break
        if not (_close(p["delta_cm1"], up - lo, ENERGY_TOL) and p["delta_cm1"] <= last + ENERGY_TOL
                and _close(p["delta_ghz"], p["delta_cm1"] * GHZ_PER_CM1, 1e-9, CLOSED_FORM_RTOL)):
            problems.append(f"plan pair {p}: separation or order wrong")
            break
        last = p["delta_cm1"]
    mc = plan.get("monte_carlo") or {}
    if mc.get("samples") != mc_samples or mc.get("seed") != seed:
        problems.append(f"plan monte_carlo {mc} does not echo {mc_samples} samples, seed {seed}")
    elif abs(mc["mean_nm"] / got["r12_nm"]["poisson_mean"] - 1.0) > MC_DEVIATION:
        problems.append(f"plan monte_carlo mean {mc['mean_nm']} off the Poisson mean")
    return problems


FIT_TRANSITIONS = ["(L1)1->(L1)1*", "(A1)1->(L1)1*", "(L1)1->(L1)2*", "(L1)1->(E3)1*"]


def check_fit(path, free):
    """The four bands fix only B*gap(beta), so (B, beta) is a ridge, not a
    point: check convergence, residuals and omega_LA, not the parameters."""
    with open(path, encoding="utf-8") as fh:
        fit = json.load(fh)
    problems = []
    if fit["converged"] is not True:
        problems.append(f"fit did not converge: {fit['message']}")
    if fit["free_parameters"] != free:
        problems.append(f"fit free parameters {fit['free_parameters']} != {free}")
    names = [r["transition"] for r in fit["residuals"]]
    if names != FIT_TRANSITIONS:
        return problems + [f"fit transitions {names} != {FIT_TRANSITIONS}"]
    worst = max(abs(r["residual_cm1"]) for r in fit["residuals"])
    if not worst <= FIT_RESIDUAL:
        problems.append(f"fit max |residual| {worst:.3g} cm-1 > {FIT_RESIDUAL}")
    modeled = {r["transition"]: r["modeled_cm1"] for r in fit["residuals"]}
    omega_la = modeled["(A1)1->(L1)1*"] - modeled["(L1)1->(L1)1*"]
    if not OMEGA_LA[0] <= omega_la <= OMEGA_LA[1]:
        problems.append(f"fit omega_LA {omega_la:.4f} cm-1 outside {OMEGA_LA}")
    return problems


def check_scan_beta(result, ref):
    """Energies and degeneracies always; the full level table, the sticks and
    the envelope only where the reference flags no level."""
    what = f"beta {result['beta']:g}"
    key = lambda lev: (lev[0], lev[1])  # noqa: E731
    problems = _compare_levels(sorted(result["levels"], key=key),
                               sorted(ref["levels"], key=key), what, discrete=False)
    if problems or any(lev[5] or lev[2] == "?" for lev in ref["levels"]):
        return problems
    problems += _compare_levels(result["levels"], ref["levels"], what)
    problems += _compare_sticks(result["sticks"], ref["sticks"], what + " sticks")
    got, exp = result["envelope"], ref["envelope"]
    if got[0] != exp[0] or not all(_close(g, e, 1e-9, ENVELOPE_RTOL)
                                   for g, e in zip(got[1:], exp[1:])):
        problems.append(f"{what} envelope (n, start, stop, sum, max) {got} != {exp}")
    return problems


class Digests:
    """sha256 of every output file, kept across runs in one checkout and keyed
    by a digest of the program's sources: a repeated run of one command on
    one commit must write byte-identical files."""

    def __init__(self, path, tree):
        self.path, self.tree = path, tree
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check(self, key, data: bytes):
        digest = hashlib.sha256(data).hexdigest()
        key = f"{self.tree}:{key}"
        previous = self.known.setdefault(key, digest)
        if previous != digest:
            return [f"{key}: output differs from an earlier run of the same command"]
        return []

    def save(self):
        tmp = self.path + ".part"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


def tree_digest(root, subdirs=("src", "configs")):
    """Digest of the program's source files: identifies the commit under test."""
    h = hashlib.sha256()
    for sub in subdirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]
