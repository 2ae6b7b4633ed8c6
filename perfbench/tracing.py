"""Spans and counters recorded around the public calls of rotorspec.

The tracer patches module attributes and class methods from outside; nothing
under src/ knows about it.  Calls from cli, spectrum and fitting reach rotor
through `rotor.X` and calls inside rotor go through its module globals, so
replacing the module attribute catches both.  `fitting` binds LevelGapCache
and the model classes by name, so their methods are patched on the class.

Functions called more than about ten thousand times per run (wigner3j,
wigner_d_matrix) are counted, not timed.  A span records its name, start,
end and parent index; spans stay in memory and are written out once, when
the traced process ends.  A span's self time is its duration minus the time
its direct children cover.
"""

from __future__ import annotations

import time
from collections import Counter

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.enabled = True
        self.last_system = None       # newest Eigensystem, for residual checks

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = clock()
        self._stack.pop()

    def add_closed(self, name: str, start: float, end: float):
        """Record a span that has no children, after the fact."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def timed(self, owner, attr, name, after=None):
        """Replace owner.attr with a wrapper that records a span per call and
        hands (args, result) to `after` for counters."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._set(owner, attr, wrapper)

    def counted(self, owner, attr, name):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        self._set(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self):
        """Patch every layer of rotorspec that the per-layer metrics name."""
        import scipy.sparse.linalg

        from rotorspec import config, fitting, qubitplan, rotor, spectrum

        c = self.counts
        self.timed(config, "parse_config", "config.parse_config")

        def after_h(args, kwargs, H):
            c["rotor.H.bytes_computed"] += H.nbytes
            c["rotor.basis_n"] = max(c["rotor.basis_n"], H.shape[0])

        self.timed(rotor, "hamiltonian_matrix", "rotor.hamiltonian_matrix", after_h)

        def after_diag(args, kwargs, system):
            blocks = Counter((s.k % 2, s.m % 2) for s in system.basis)
            c["rotor.diagonalize.ops_computed"] += sum(b ** 3 for b in blocks.values())
            self.last_system = system

        self.timed(rotor, "diagonalize", "rotor.diagonalize", after_diag)

        def after_classify(args, kwargs, levels):
            labels_at: dict[float, set] = {}
            for lev in levels:
                labels_at.setdefault(lev.energy, set()).add(lev.rovib_label)
            unresolved = sum(1 for lev in levels if lev.flagged or lev.rovib_label == "?")
            c["rotor.classify_levels.levels"] += len(levels)
            c["rotor.classify_levels.clusters"] += len(labels_at)
            c["rotor.classify_levels.split_clusters"] += sum(
                1 for labels in labels_at.values() if len(labels) > 1)
            c["rotor.classify_levels.flagged"] += unresolved

        self.timed(rotor, "classify_levels", "rotor.classify_levels", after_classify)
        self.counted(rotor, "wigner3j", "rotor.wigner3j.calls")
        self.counted(rotor, "wigner_d_matrix", "rotor.wigner_d_matrix.calls")

        # only builds that miss its cache count: a hit is part of the caller
        build = rotor.rank_operator_blocks
        cache_info = getattr(build, "cache_info", None)

        def rank_operator_blocks(*args, **kwargs):
            if not self.enabled:
                return build(*args, **kwargs)
            misses = cache_info().misses if cache_info else None
            start = clock()
            result = build(*args, **kwargs)
            end = clock()
            if cache_info is None or cache_info().misses != misses:
                self.add_closed("rotor.rank_operator_blocks", start, end)
                c["rotor.rank_operator_blocks.builds"] += 1
                c["rotor.rank_operator_blocks.nnz"] += sum(
                    getattr(m, "nnz", 0) for m in result.values())
            return result

        self._set(rotor, "rank_operator_blocks", rank_operator_blocks)

        self.timed(rotor, "transition_strength", "rotor.transition_strength",
                   lambda a, k, r: c.update(["rotor.transition_strength.calls"]))

        # a gap call that reaches an eigen-solver is a cache miss
        self.counted(scipy.sparse.linalg, "eigsh", "scipy.eigsh.calls")
        self.timed(rotor.LevelGapCache, "eigenvalues", "rotor.eigenvalues",
                   lambda a, k, r: c.update(["rotor.eigenvalues.calls"]))
        gap = rotor.LevelGapCache.gap

        def gap_wrapper(cache, *args, **kwargs):
            if not self.enabled:
                return gap(cache, *args, **kwargs)
            before = c["scipy.eigsh.calls"] + c["rotor.eigenvalues.calls"]
            index = self.open("rotor.gap")
            try:
                result = gap(cache, *args, **kwargs)
            finally:
                self.close(index)
            c["rotor.gap.calls"] += 1
            if c["scipy.eigsh.calls"] + c["rotor.eigenvalues.calls"] != before:
                c["rotor.gap.solves"] += 1
            return result

        self._set(rotor.LevelGapCache, "gap", gap_wrapper)

        def after_fit(args, kwargs, report):
            c["fitting.nm_iterations"] += report.iterations
            c["fitting.best_start"] = report.best_start

        self.timed(fitting, "fit_line_positions", "fitting.fit_line_positions", after_fit)
        self.timed(fitting.TransitionModel, "frequencies", "fitting.frequencies",
                   lambda a, k, r: c.update(["fitting.frequencies.calls"]))

        def line_counter(key):
            return lambda a, k, lines: c.update({key: len(lines)})

        self.timed(spectrum, "vibration_orientation_lines",
                   "spectrum.vibration_orientation_lines", line_counter("spectrum.lines.ir"))
        self.timed(spectrum, "rotational_raman_lines", "spectrum.rotational_raman_lines",
                   line_counter("spectrum.lines.raman"))
        self.timed(spectrum, "sum_band_lines", "spectrum.sum_band_lines",
                   line_counter("spectrum.lines.sum"))

        def after_synth(args, kwargs, result):
            lines, cfg = args[0], args[1] if len(args) > 1 else kwargs["config"]
            off = sum(1 for l in lines if not cfg.start <= l.frequency <= cfg.stop)
            c["spectrum.synthesize.lines"] += len(lines)
            c["spectrum.synthesize.offgrid_lines"] += off

        self.timed(spectrum, "synthesize", "spectrum.synthesize", after_synth)
        self.timed(qubitplan, "build_plan_report", "qubitplan.build_plan_report",
                   lambda a, k, report: c.update(
                       {"qubitplan.pairs": len(report.delta_omega_pairs)}))
        self.timed(qubitplan, "nn_distance_mc", "qubitplan.nn_distance_mc")

    def residual_checks(self):
        """Eigen residuals of the newest Eigensystem.  The calls inside are not
        traced; their time is booked to the span trace.residual_checks."""
        if self.last_system is not None:
            index = self.open("trace.residual_checks")
            self.enabled = False
            try:
                ortho, resid = self.last_system.residual_checks()
            finally:
                self.enabled = True
                self.close(index)
            self.counts["rotor.eig_ortho_defect"] = max(
                self.counts["rotor.eig_ortho_defect"], ortho)
            self.counts["rotor.eig_residual"] = max(self.counts["rotor.eig_residual"], resid)
            self.last_system = None

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name; spans are [name, start, end, parent]."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
