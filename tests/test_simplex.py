"""The numpy Nelder-Mead: step-for-step equal to scipy's, the bits it pins in
the potential normalization, the four-band fit that no longer needs it, and
no scipy.optimize import on any command path."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from rotorspec import cli, rotor
from rotorspec.simplex import nelder_mead

ROOT = Path(__file__).resolve().parents[1]


def _problem(rng, kind, n):
    A, c = rng.normal(size=(n, n)), rng.normal(size=n)
    return [
        lambda x: float(np.sum((A @ (x - c)) ** 2)),
        lambda x: float(np.sum(np.cos(3 * x) + 0.1 * (x - c) ** 2)),
        lambda x: float(100 * np.sum((x[1:] - x[:-1] ** 2) ** 2) + np.sum((1 - x) ** 2)),
        lambda x: float(np.sum(np.floor(2 * (x - c)) ** 2)),  # plateaus: tied vertices
    ][kind]


def test_nelder_mead_takes_scipys_steps():
    rng = np.random.default_rng(0)
    seen = set()
    for trial in range(160):
        n = trial % 5 + 1
        fun = _problem(rng, trial % 4, n)
        x0 = 2 * rng.normal(size=n)
        x0[rng.random(n) < 0.3] = 0.0
        bounds = None
        if trial % 2:
            bounds = (-3 * rng.random(n), 3 * rng.random(n))
            seen.add("outside" if np.any((x0 < bounds[0]) | (x0 > bounds[1])) else "inside")
        maxiter = int(rng.integers(1, 300))
        xatol, fatol = 10.0 ** rng.integers(-10, -3), 10.0 ** rng.integers(-12, -3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on an x0 outside the bounds
            ref = scipy.optimize.minimize(
                fun, x0, method="Nelder-Mead",
                bounds=None if bounds is None else list(zip(*bounds)),
                options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter, "adaptive": False})
        res = nelder_mead(fun, x0, xatol=xatol, fatol=fatol, maxiter=maxiter, bounds=bounds)
        assert np.array_equal(res.x, ref.x), trial
        assert (res.fun, res.nit, res.success, res.message) == \
            (ref.fun, ref.nit, ref.success, ref.message), trial
        seen.add("converged" if res.success else "maxiter")
        if not np.all(x0):
            seen.add("zero component")
    assert seen == {"outside", "inside", "converged", "maxiter", "zero component"}


def test_potential_range_bits():
    # recorded with scipy's Nelder-Mead before the port
    pinned = {
        ((3, -1.0),): ("-0x1.0000000000003p+0", "0x1.0000000000003p+0"),
        ((4, -1.0),): ("-0x1.0000000000002p+0", "0x1.ed097b425ed0ap-2"),
        ((3, -1.0), (4, 0.3)): ("-0x1.666666666666ep-1", "0x1.4cccccccccccep+0"),
    }
    for potential, bits in pinned.items():
        assert tuple(v.hex() for v in rotor.potential_range(potential)) == bits


def test_four_band_fit_bits(tmp_path, capsys, monkeypatch):
    # the four bands fix only B*gap(beta): at the start beta the linear solve
    # fits them exactly, so no simplex runs and A1 and L1 are solved once
    # each, and once more for their beta slopes in the rank's Jacobian
    solves = {"eigenvalues": [], "slopes": []}
    for method, labels in solves.items():
        inner = getattr(rotor.LevelGapCache, method)
        monkeypatch.setattr(rotor.LevelGapCache, method,
                            lambda self, beta, label, inner=inner, labels=labels:
                            labels.append(label) or inner(self, beta, label))
    out = tmp_path / "fit.json"
    assert cli.main(["fit", "--config", str(ROOT / "configs/atpb.cfg"),
                     "--peaks", str(ROOT / "configs/atpb_peaks.csv"), "--out", str(out)]) == 0
    assert ("rank 4 of 5 free scalars: the peaks fix only a combination of B, beta\n"
            in capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert {k: sorted(v) for k, v in solves.items()} == {"eigenvalues": ["A1", "L1"],
                                                          "slopes": ["A1", "L1"]}
    assert report["iterations"] == 0 and report["starts_run"] == 1
    assert report["values"]["beta"] == 1.0
    gap = rotor.LevelGapCache(rotor.normalize_potential(((3, -1.0),)), 10).gap(1.0)
    assert report["values"]["B"] == pytest.approx(11.0 / gap, rel=1e-12)
    assert report["identifiability"] == {"rank": 4, "free_scalars": 5, "unfixed": ["B", "beta"]}


def test_no_command_imports_scipy_optimize(tmp_path):
    cfg = tmp_path / "j4.cfg"
    cfg.write_text(re.sub(r"(?m)^Jmax = \d+$", "Jmax = 4",
                          (ROOT / "configs/atpb.cfg").read_text()))
    script = f"""
import contextlib, io, sys
from rotorspec.cli import main
d, cfg = {str(tmp_path)!r}, {str(cfg)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (["levels", "--config", cfg, "--out", d + "/levels.txt"],
                 ["spectrum", "--config", cfg, "--sticks", d + "/sticks.csv",
                  "--out-spectrum", d + "/spectrum.csv"],
                 ["plan", "--config", cfg, "--lines", d + "/sticks.csv", "--mc-samples", "1000"],
                 ["fit", "--config", cfg, "--peaks", {str(ROOT / "configs/atpb_peaks.csv")!r},
                  "--starts", "1", "--max-iter", "20"])]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0] []"
    imports = re.compile(r"^\s*(import|from)\s+scipy(\.optimize|\s+import\s+.*\boptimize\b)", re.M)
    for path in (ROOT / "src").rglob("*.py"):
        assert not imports.search(path.read_text()), path
