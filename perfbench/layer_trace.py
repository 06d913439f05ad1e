"""Outside-in layer tracing for the benchmark.

Each layer is one levyflow module.  The tracer replaces the module's public
functions with timing wrappers *in place*: every levyflow namespace that holds
the original function object (the defining module, the package, and modules
such as ``cli`` that bound it with ``from ... import``) gets the wrapper, so
calls are seen wherever they are looked up.  Nothing under ``src/`` changes.

Spans are kept in memory as ``(name, layer, start, end, parent)`` tuples and
reduced to per-layer metrics when a round ends.  A layer's self time is its
spans' time minus the time covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

# Metric prefix for each levyflow module; ``_engine`` is reported as
# ``engine`` because metric names must start with a letter.
LAYERS = {
    "cli": "cli",
    "levy_model": "levy_model",
    "_engine": "engine",
    "path_sampler": "path_sampler",
    "determinant": "determinant",
    "projective": "projective",
    "limits": "limits",
    "geometry": "geometry",
}

# Public functions wrapped per module: those the workloads reach.  The
# ``_StepScheme`` methods are the engine's per-step calls; they give step,
# jump-round and jump counts.
FUNCTIONS = {
    "cli": ["run_scenario"],
    "levy_model": ["builtin_triplet", "triplet_from_config", "triplet_to_config",
                   "validate"],
    "_engine": ["evolve_vectors", "evolve_matrices",
                "_StepScheme.cont_factors", "_StepScheme.jump_plan"],
    "path_sampler": ["sample_levy_path", "exact_cpp_exponential",
                     "emery_exponential", "skorokhod_reconstruct", "mean_check"],
    "determinant": ["det_closed_form", "det_log_series", "check_characteristics",
                    "sl_membership"],
    "projective": ["estimate_invariant_measure", "mixing_rate"],
    "limits": ["lyapunov_estimate", "clt_diagnostic", "berry_esseen_curve"],
    "geometry": ["generator_mc_check", "ip_certify"],
}


def _count_cont_factors(counts, args, result):
    counts["engine.path_steps"] += args["n"]


def _count_jump_plan(counts, args, result):
    counts["engine.jump_rounds"] += len(result)
    counts["engine.jumps"] += sum(int(np.size(act)) for act, _ in result)


def _count_snapshot(counts, args, result):
    counts["engine.snapshot_mb"] += sum(np.asarray(a).nbytes for a in result) / 1e6


def _count_path(counts, args, result):
    counts["path_sampler.paths"] += 1


def _count_cells(counts, args, result):
    counts["path_sampler.cells"] += len(result.grid) - 1


def _count_reconstruct(counts, args, result):
    eps = args["eps"]
    n_big = sum(1 for _, a in args["path"].jumps if np.linalg.norm(a, 2) >= eps)
    counts["path_sampler.reconstruct_terms"] += 2 ** n_big


def _count_measure(counts, args, result):
    counts["projective.points"] += len(result.points)


def _count_mixing(counts, args, result):
    counts["projective.points"] += (args["n_paths"] * len(args["starts"])
                                    * len(args["t_grid"]))


def _count_csv(counts, args, result):
    out = Path(result.output_dir)
    counts["cli.csv_bytes"] += sum((out / f).stat().st_size for f in result.files)


# (module, function) -> (counter, whether it reads the call's arguments);
# a counter is fed the bound arguments (or None) and the result.
COUNTERS = {
    ("_engine", "_StepScheme.cont_factors"): (_count_cont_factors, True),
    ("_engine", "_StepScheme.jump_plan"): (_count_jump_plan, False),
    ("_engine", "evolve_vectors"): (_count_snapshot, False),
    ("_engine", "evolve_matrices"): (_count_snapshot, False),
    ("path_sampler", "sample_levy_path"): (_count_path, False),
    ("path_sampler", "exact_cpp_exponential"): (_count_cells, False),
    ("path_sampler", "emery_exponential"): (_count_cells, False),
    ("path_sampler", "skorokhod_reconstruct"): (_count_reconstruct, True),
    ("projective", "estimate_invariant_measure"): (_count_measure, False),
    ("projective", "mixing_rate"): (_count_mixing, True),
    ("cli", "run_scenario"): (_count_csv, False),
}


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


COUNT_METRICS = [
    "engine.path_steps", "engine.jump_rounds", "engine.jumps",
    "engine.snapshot_mb", "path_sampler.paths", "path_sampler.cells",
    "path_sampler.reconstruct_terms", "projective.points", "cli.csv_bytes",
]


class Tracer:
    """Installs timing wrappers on levyflow and turns spans into metrics."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"levyflow.{m}") for m in LAYERS}
        namespaces = [importlib.import_module("levyflow"), *modules.values()]
        for mod_name, names in FUNCTIONS.items():
            mod = modules[mod_name]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                if not hasattr(owner, attr):
                    # a renamed layer must break the traced run, not read 0
                    raise AttributeError(f"levyflow.{mod_name} has no {name}; "
                                         "update FUNCTIONS in layer_trace.py")
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, LAYERS[mod_name], f"{LAYERS[mod_name]}.{attr}",
                                     *COUNTERS.get((mod_name, name), (None, False)))
                targets = [owner] if owner_name else namespaces
                for ns in targets:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._undo.append((ns, key, val))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._undo):
            setattr(ns, key, val)
        self._undo.clear()

    def _wrap(self, fn, layer: str, name: str, counter, needs_args: bool):
        sig = inspect.signature(fn) if needs_args else None
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent)
            if counter is not None:
                bound = None
                if needs_args:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                counter(counts, bound, result)
            return result

        return wrapper

    # -- reduction ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        for k in self.counts:
            self.counts[k] = 0

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        incl: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS.values(), 0.0)
        child_time = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for (name, layer, t0, t1, _), kids in zip(self.spans, child_time):
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            self_s[layer] += (t1 - t0) - kids

        def t(name):
            return incl.get(name, 0.0)

        def rate(n, secs):
            return n / secs if secs > 0 else 0.0

        c = self.counts
        evolve_s = t("engine.evolve_vectors") + t("engine.evolve_matrices")
        walk_s = t("path_sampler.exact_cpp_exponential") + t("path_sampler.emery_exponential")
        out = {
            "engine.evolve_vectors_s": t("engine.evolve_vectors"),
            "engine.evolve_matrices_s": t("engine.evolve_matrices"),
            "engine.cont_factors_s": t("engine.cont_factors"),
            "engine.jump_plan_s": t("engine.jump_plan"),
            "path_sampler.sample_levy_path_s": t("path_sampler.sample_levy_path"),
            "path_sampler.walk_s": walk_s,
            "path_sampler.mean_check_s": t("path_sampler.mean_check"),
            "path_sampler.skorokhod_reconstruct_s": t("path_sampler.skorokhod_reconstruct"),
            "determinant.det_closed_form_s": t("determinant.det_closed_form"),
            "determinant.det_log_series_s": t("determinant.det_log_series"),
            "projective.estimate_invariant_measure_s": t("projective.estimate_invariant_measure"),
            "projective.mixing_rate_s": t("projective.mixing_rate"),
            "limits.lyapunov_estimate_s": t("limits.lyapunov_estimate"),
            "limits.clt_diagnostic_s": t("limits.clt_diagnostic"),
            "limits.berry_esseen_curve_s": t("limits.berry_esseen_curve"),
            "geometry.generator_mc_check_s": t("geometry.generator_mc_check"),
            "geometry.ip_certify_s": t("geometry.ip_certify"),
            "cli.run_scenario_s": t("cli.run_scenario"),
            **{f"{layer}.self_s": v for layer, v in self_s.items()},
            **{k: float(v) for k, v in c.items()},
            "engine.path_steps_per_s": rate(c["engine.path_steps"], evolve_s),
            "path_sampler.cells_per_s": rate(c["path_sampler.cells"], walk_s),
            "projective.points_per_s": rate(c["projective.points"], self_s["projective"]),
            "traced.wall_s": wall_s,
            "traced.unattributed_s": wall_s - sum(self_s.values()),
        }
        return out

    def dump(self, path: Path) -> None:
        """Write the spans recorded since the last reset as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, layer, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
