"""Scenario runner: JSON configs in, deterministic CSVs and a manifest out.

One experiment per invocation; the (config, seed) pair is the reproducibility
unit and identical pairs produce byte-identical CSV files (floats are written
with 17 significant digits, which round-trips IEEE doubles exactly).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from importlib import metadata
from pathlib import Path

import numpy as np

from ._csvfmt import format_rows
from ._engine import DEFAULT_DT, child_seeds
from ._linalg import InvalidStep, OffGrid, unit_vectors
from .geometry import SmoothFunction, generator_mc_check, ip_certify
from .levy_model import (MatrixLevyTriplet, builtin_triplet, triplet_from_config,
                         triplet_to_config, validate)
from .limits import FunctionalSpec, berry_esseen_curve, clt_diagnostic, lyapunov_estimate
from .determinant import check_characteristics, det_closed_form, sl_membership
from .path_sampler import (auto_exponential, emery_exponential, exact_cpp_exponential,
                           mean_check, sample_levy_path)
from .projective import HolderFn, estimate_invariant_measure, mixing_rate

__all__ = [
    "ConfigError", "ValidationError", "MixedKinds", "Scenario", "RunManifest",
    "run_scenario", "load_manifest", "emit_report", "main",
]

_MISSING = object()
_F_KINDS = ("op_norm", "vector_norm", "entry", "abs_inner")


class ConfigError(ValueError):
    """A config key is missing or has the wrong type; names the key path."""

    def __init__(self, path: str, msg: str):
        self.path = path
        super().__init__(f"config error at '{path}': {msg}")


class ValidationError(ValueError):
    """The configured triplet failed validation; carries the report."""

    def __init__(self, report):
        self.report = report
        detail = "; ".join(f"{rule}: {msg}" for rule, msg, _ in report.violations)
        super().__init__(f"triplet failed validation: {detail}")


class MixedKinds(ValueError):
    """emit_report was handed manifests from different experiments."""


@dataclass(frozen=True)
class Scenario:
    """Parsed run request: what to simulate, how, and where results go."""

    triplet: MatrixLevyTriplet
    experiment: str
    parameters: dict
    output_dir: str


@dataclass(frozen=True)
class RunManifest:
    """Record of one completed scenario run.

    Re-running the same scenario and seed regenerates every listed CSV
    byte-identically; wall_clock_s is informational and excluded from that
    guarantee.
    """

    scenario_hash: str
    version: str
    experiment: str
    seed: int
    wall_clock_s: float
    summary: dict
    files: tuple[str, ...]
    output_dir: str


def _version() -> str:
    try:
        return metadata.version("levyflow")
    except metadata.PackageNotFoundError:
        return "0+unknown"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


_CSV_CHUNK = 512  # float rows formatted and written at a time


def _write_csv(path: Path, header, rows) -> None:
    """rows: a list of rows of mixed cells, each formatted by ``_fmt``, or a
    float ndarray, whose cells ``_csvfmt.format_rows`` formats with numpy,
    ``_CSV_CHUNK`` rows at a time; both give the same bytes for floats,
    ``'%.17g' % x``."""
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            for i in range(0, len(rows), _CSV_CHUNK):
                fh.write(format_rows(rows[i:i + _CSV_CHUNK]).decode("ascii"))
        else:
            fh.writelines(",".join(_fmt(x) for x in row) + "\n" for row in rows)


def _param(params: dict, key: str, kind, default=_MISSING, least=None, above=None):
    """``parameters[key]`` as ``kind`` (float, int, str or list), or
    ``default`` when absent.  A number, or every entry of a list, must be
    finite and, where given, >= ``least`` and > ``above``; else a
    ConfigError names the key."""
    where = f"parameters.{key}"
    if key not in params:
        if default is not _MISSING:
            return default
        raise ConfigError(where, "missing required key")
    val = params[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(where, f"expected a number, got {type(val).__name__}")
        val = float(val)
    elif kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(where, f"expected an integer, got {type(val).__name__}")
    elif kind is str:
        if not isinstance(val, str):
            raise ConfigError(where, f"expected a string, got {type(val).__name__}")
        return val
    else:  # list
        if not isinstance(val, list) or not val:
            raise ConfigError(where, "expected a nonempty list")
        try:
            val = [float(v) for v in val]
        except (TypeError, ValueError):
            raise ConfigError(where, "expected a list of numbers") from None
    for v in val if kind is list else [val]:
        if not math.isfinite(v):
            raise ConfigError(where, f"expected a finite number, got {v}")
        if least is not None and not v >= least:
            raise ConfigError(where, f"expected a number >= {least}, got {v}")
        if above is not None and not v > above:
            raise ConfigError(where, f"expected a number > {above}, got {v}")
    return val


def _direction(raw, where: str, d: int) -> np.ndarray:
    """The unit vector of a length-d direction (``unit_vectors``), else a
    ConfigError at ``where``."""
    try:
        v = np.asarray(raw, dtype=float)
        if v.shape != (d,):
            raise ValueError(f"expected a vector of {d} numbers")
        return unit_vectors(v)[0]
    except (TypeError, ValueError) as exc:
        raise ConfigError(where, str(exc)) from None


def _index(raw, where: str, d: int) -> int:
    """An integer entry index in [0, d), else a ConfigError at ``where``."""
    if isinstance(raw, bool) or not isinstance(raw, int) or not 0 <= raw < d:
        raise ConfigError(where, f"expected an integer index in [0, {d})")
    return raw


def _functional(params: dict, d: int, kinds=_F_KINDS) -> FunctionalSpec:
    """The F spec, op_norm when absent; its kind must be one of ``kinds``, its
    indices must fit d, and its y and z are ``_direction``'s unit vectors."""
    spec = params.get("F")
    if spec is None:
        spec = {"kind": "op_norm"}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("parameters.F", "expected an object with a 'kind' key")
    kind = spec["kind"]
    if kind not in kinds:
        raise ConfigError("parameters.F.kind",
                          f"expected one of {', '.join(kinds)}, got {kind!r}")
    try:
        if kind == "op_norm":
            return FunctionalSpec.op_norm()
        if kind == "vector_norm":
            return FunctionalSpec(kind, y=_direction(spec["y"], "parameters.F.y", d))
        if kind == "entry":
            return FunctionalSpec.entry(_index(spec["i"], "parameters.F.i", d),
                                        _index(spec["j"], "parameters.F.j", d))
        return FunctionalSpec(kind, y=_direction(spec["y"], "parameters.F.y", d),
                              z=_direction(spec["z"], "parameters.F.z", d))
    except KeyError as exc:
        raise ConfigError(f"parameters.F.{exc.args[0]}", "missing key") from None


def _holder_fn(params: dict, d: int) -> HolderFn:
    spec = params.get("f", {"kind": "coord_sq"})
    if not isinstance(spec, dict) or spec.get("kind") != "coord_sq":
        raise ConfigError("parameters.f", "supported kind: coord_sq (optional 'u' vector)")
    u = _direction(spec.get("u", np.eye(d)[0]), "parameters.f.u", d)
    return HolderFn(eval=lambda p: (u @ p.v) ** 2, gamma=1.0)


def _gauss_bump(center: np.ndarray, width: float) -> SmoothFunction:
    """exp(-||x - c||_F^2 / (2 w^2)) with analytic gradient and Hessian."""
    c = np.asarray(center, dtype=float)
    w2 = width * width
    d = c.shape[0]
    eye4 = np.einsum("ik,jl->ijkl", np.eye(d), np.eye(d))

    def value(x):
        y = x - c
        return np.exp(-np.sum(y * y, axis=(-2, -1)) / (2.0 * w2))

    def grad(x):
        y = x - c
        return -value(x) / w2 * y

    def hess(x):
        y = x - c
        return value(x) * (np.einsum("ij,kl->ijkl", y, y) / (w2 * w2) - eye4 / w2)

    return SmoothFunction(value=value, grad=grad, hess=hess)


# -- experiment implementations (each returns (summary, header, rows)) ---------

def _horizon(params: dict, default=DEFAULT_DT):
    """(T, dt): parameters.dt > 0 (``default`` when absent) and T >= dt."""
    dt = _param(params, "dt", float, default=default, above=0.0)
    return _param(params, "T", float, least=dt), dt


def _levy_path(triplet, params, seed):
    """(T, path): a required dt, T >= dt and the path of L they draw."""
    T, dt = _horizon(params, _MISSING)
    return T, sample_levy_path(triplet, T, dt, seed)


def _run_simulate(triplet, params, seed):
    method = _param(params, "method", str, default="auto")
    if method not in ("auto", "emery", "exact"):
        raise ConfigError("parameters.method", "expected auto, emery, or exact")
    if method == "exact" and triplet.has_gaussian_part():
        raise ConfigError("parameters.method", "exact needs a triplet with sigma = 0")
    T, path = _levy_path(triplet, params, seed)
    if method == "emery":
        ep = emery_exponential(path)
    elif method == "exact":
        ep = exact_cpp_exponential(path, triplet)
    else:
        ep = auto_exponential(path, triplet)
    rows = np.column_stack([ep.grid, ep.X.reshape(len(ep.grid), -1)])
    summary = {
        "T": T, "n_grid": len(ep.grid), "method": ep.method,
        "final_det": float(np.linalg.det(ep.X[-1])),
    }
    d = triplet.d
    return summary, ["t", *(f"X{i + 1}{j + 1}" for i in range(d) for j in range(d))], rows


def _run_determinant(triplet, params, seed):
    _, path = _levy_path(triplet, params, seed)
    ep = auto_exponential(path, triplet)
    closed = det_closed_form(path, triplet)
    direct = np.linalg.det(ep.X)
    err = np.abs(direct - closed[:, 1])
    ct = check_characteristics(triplet)
    member, failed = sl_membership(triplet)
    rows = np.column_stack([closed, direct, err])
    summary = {
        "sigma_D": ct.sigma_D, "gamma_D": ct.gamma_D, "growth_mean": ct.mean,
        "max_abs_err": float(err.max()), "sl_member": member,
        "sl_failed_rules": " ".join(failed),
    }
    return summary, ["t", "det_closed_form", "det_state", "abs_err"], rows


def _one_row(summary: dict):
    """A scalar experiment's outputs: its summary, and the same as one CSV row."""
    return summary, list(summary), [list(summary.values())]


def _horizons(params: dict) -> list:
    """parameters.t_grid: two or more distinct positive horizons."""
    t_grid = _param(params, "t_grid", list, above=0.0)
    if len(set(t_grid)) < 2:
        raise ConfigError("parameters.t_grid", "needs two or more distinct horizons")
    return t_grid


def _run_lyapunov(triplet, params, seed):
    T, dt = _horizon(params)
    n_paths = _param(params, "n_paths", int, least=2)
    F = _functional(params, triplet.d, ("op_norm", "vector_norm"))
    lam, se = lyapunov_estimate(triplet, F, T, n_paths, seed, dt=dt)
    return _one_row({"lambda_hat": lam, "lambda_se": se, "T": T, "n_paths": n_paths})


def _run_clt(triplet, params, seed):
    T, dt = _horizon(params)
    n_paths = _param(params, "n_paths", int, least=2)
    F = _functional(params, triplet.d)
    return _one_row(asdict(clt_diagnostic(triplet, F, T, n_paths, seed, dt=dt)))


def _run_berry_esseen(triplet, params, seed):
    t_grid = _horizons(params)
    n_paths = _param(params, "n_paths", int, least=2)
    dt = _param(params, "dt", float, default=DEFAULT_DT, above=0.0)
    spec = params.get("F", {"kind": "vector_norm", "y": list(np.eye(triplet.d)[0])})
    F = _functional({"F": spec}, triplet.d, ("vector_norm",))
    z_grid = params.get("z_grid")
    if z_grid is not None:
        z_grid = np.asarray(_param(params, "z_grid", list), dtype=float)
    try:
        rep = berry_esseen_curve(triplet, F, t_grid, n_paths, z_grid=z_grid,
                                 seed=seed, dt=dt)
    except (OffGrid, InvalidStep) as exc:
        raise ConfigError("parameters.t_grid", str(exc)) from None
    rows = np.array(rep.rows, dtype=float)
    summary = {"slope": rep.slope, "intercept": rep.intercept,
               "lambda_hat": rep.lambda_hat, "sigma_hat": rep.sigma_hat}
    return summary, ["t", "sup_dist", "n_paths"], rows


def _run_invariant_measure(triplet, params, seed):
    h = _param(params, "h", float, above=0.0)
    burn_in = _param(params, "burn_in", int, least=0)
    n_steps = _param(params, "n_steps", int, least=burn_in + 1)
    n_chains = _param(params, "n_chains", int, least=1)
    dt = _param(params, "dt", float, default=None, above=0.0)
    if dt is not None and dt > h:
        raise ConfigError("parameters.dt", f"expected a number <= h = {h}, got {dt}")
    measure = estimate_invariant_measure(triplet, h, n_steps, burn_in, n_chains,
                                         seed, dt=dt)
    d = triplet.d
    header = [f"v{i + 1}" for i in range(d)] + ["weight"]
    columns = [measure.points, measure.weights]
    if d == 2:
        header = ["angle", *header]
        columns.insert(0, measure.angles())
    summary = {"n_points": len(measure.points), "h": h,
               "n_chains": n_chains, "burn_in": burn_in}
    return summary, header, np.column_stack(columns)


def _run_mixing(triplet, params, seed):
    t_grid = _horizons(params)
    n_paths = _param(params, "n_paths", int, least=2)
    dt = _param(params, "dt", float, default=DEFAULT_DT, above=0.0)
    d = triplet.d
    n_starts = _param(params, "n_starts", int, default=6, least=d)
    f = _holder_fn(params, d)
    s_starts, s_engine = child_seeds(seed, 2)
    starts = list(np.eye(d))
    rng = np.random.default_rng(s_starts)
    while len(starts) < n_starts:
        g = rng.standard_normal(d)
        starts.append(g / np.linalg.norm(g))
    try:
        rep = mixing_rate(triplet, f, starts, t_grid, n_paths, s_engine, dt=dt)
    except (OffGrid, InvalidStep) as exc:
        raise ConfigError("parameters.t_grid", str(exc)) from None
    rows = np.column_stack([rep.t_grid, rep.sup_diffs])
    summary = {"D_hat": rep.D_hat, "d_hat": rep.d_hat, "r2": rep.r2,
               "flagged_no_decay": rep.flagged_no_decay}
    return summary, ["t", "sup_diff"], rows


def _run_ip_certify(triplet, params, seed):
    search_depth = _param(params, "search_depth", int, default=6, least=1)
    n_samples = _param(params, "n_samples", int, default=32, least=8)
    cert = ip_certify(triplet, search_depth=search_depth,
                      n_samples=n_samples, seed=seed)
    word = ""
    if cert.witness is not None:
        word = " ".join(str(k) for k in cert.witness["word"])
    counter = cert.counterexample["kind"] if cert.counterexample else ""
    summary = {"status": cert.status, "route": cert.route}
    rows = [[cert.status, cert.route, word, counter]]
    return summary, ["status", "route", "witness_word", "counterexample_kind"], rows


def _run_generator_check(triplet, params, seed):
    h_grid = _param(params, "h_grid", list, above=0.0)
    n_paths = _param(params, "n_paths", int, least=2)
    n_substeps = _param(params, "n_substeps", int, default=8, least=1)
    width = _param(params, "bump_width", float, default=1.0, above=0.0)
    d = triplet.d
    x = _param(params, "x", list, default=None)
    if x is not None and len(x) != d * d:
        raise ConfigError("parameters.x", f"expected {d * d} numbers, got {len(x)}")
    x = np.eye(d) if x is None else np.asarray(x).reshape(d, d)
    f = _gauss_bump(np.eye(d), width)
    rows_raw, a_val = generator_mc_check(triplet, f, x, h_grid, n_paths, seed,
                                         n_substeps=n_substeps)
    rows = np.array(rows_raw, dtype=float)
    summary = {"generator_value": a_val,
               "max_abs_z": max(abs(r[3]) for r in rows_raw)}
    return summary, ["h", "quotient", "se", "z"], rows


def _run_mean_check(triplet, params, seed):
    t = _param(params, "t", float, above=0.0)
    n_paths = _param(params, "n_paths", int, least=2)
    rep = mean_check(triplet, t, n_paths, seed)
    d = triplet.d
    i, j = np.divmod(np.arange(d * d), d)
    rows = np.column_stack([i + 1, j + 1, rep.mc_mean.ravel(), rep.target.ravel(),
                            rep.z.ravel()])
    summary = {"max_abs_z": rep.max_abs_z, "t": t, "n_paths": n_paths}
    return summary, ["i", "j", "mc_mean", "target", "z"], rows


_RUNNERS = {
    "simulate": _run_simulate,
    "determinant": _run_determinant,
    "lyapunov": _run_lyapunov,
    "clt": _run_clt,
    "berry_esseen": _run_berry_esseen,
    "invariant_measure": _run_invariant_measure,
    "mixing": _run_mixing,
    "ip_certify": _run_ip_certify,
    "generator_check": _run_generator_check,
    "mean_check": _run_mean_check,
}
EXPERIMENTS = tuple(_RUNNERS)


# -- scenario plumbing ----------------------------------------------------------

def _read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``; a missing file, invalid JSON
    or a top level that is not an object raises ``ConfigError`` naming the
    file (``what`` names its role in the not-found message)."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), f"{what} file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    return doc


def _parse_scenario(config_path, seed=None, out_dir=None, experiment=None) -> Scenario:
    doc = _read_json(config_path, "config")
    exp = doc.get("experiment", experiment)
    if exp is None:
        raise ConfigError("experiment", "missing required key")
    if experiment is not None and exp != experiment:
        raise ConfigError("experiment",
                          f"config says {exp!r} but the subcommand is {experiment!r}")
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {exp!r}")

    if "triplet" not in doc:
        raise ConfigError("triplet", "missing required key")
    tdoc = doc["triplet"]
    if not isinstance(tdoc, (str, dict)):
        raise ConfigError("triplet", "expected a builtin name or an object")
    try:
        triplet = builtin_triplet(tdoc) if isinstance(tdoc, str) else triplet_from_config(tdoc)
    except (KeyError, TypeError, ValueError) as exc:  # UnknownName is a ValueError
        raise ConfigError("triplet", str(exc)) from None

    report = validate(triplet)
    if not report.valid:
        raise ValidationError(report)

    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters", "expected an object")
    if seed is not None:
        params = {**params, "seed": int(seed)}
    if "seed" not in params:
        raise ConfigError("parameters.seed", "missing required key")
    if isinstance(params["seed"], bool) or not isinstance(params["seed"], int):
        raise ConfigError("parameters.seed", "expected an integer")

    out = out_dir or doc.get("output_dir")
    if out is None:
        raise ConfigError("output_dir", "missing required key (or pass --out)")
    return Scenario(triplet=triplet, experiment=exp, parameters=params,
                    output_dir=str(out))


def _scenario_hash(scenario: Scenario) -> str:
    payload = {
        "triplet": triplet_to_config(scenario.triplet),
        "experiment": scenario.experiment,
        "parameters": scenario.parameters,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_scenario(config_path, seed=None, out_dir=None, experiment=None) -> RunManifest:
    """Parse a config, run its experiment, persist CSV + manifest.

    ``seed``/``out_dir`` override the config; ``experiment`` (from the CLI
    subcommand) must agree with the config when both are present.
    """
    scenario = _parse_scenario(config_path, seed=seed, out_dir=out_dir,
                               experiment=experiment)
    eff_seed = int(scenario.parameters["seed"])
    out = Path(scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    summary, header, rows = _RUNNERS[scenario.experiment](
        scenario.triplet, scenario.parameters, eff_seed)
    wall = time.perf_counter() - start

    csv_name = f"{scenario.experiment}.csv"
    _write_csv(out / csv_name, header, rows)
    manifest = RunManifest(
        scenario_hash=_scenario_hash(scenario), version=_version(),
        experiment=scenario.experiment, seed=eff_seed,
        wall_clock_s=float(wall), summary=summary, files=(csv_name,),
        output_dir=str(out),
    )
    (out / "manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True, default=str) + "\n")
    return manifest


def load_manifest(path) -> RunManifest:
    """Read a manifest.json back; falls back to the file's own directory when
    the recorded output_dir has moved.  A missing or malformed file, or a
    missing or wrongly typed field, raises ``ConfigError`` naming the file
    and the field."""
    p = Path(path)
    doc = _read_json(p, "manifest")
    for f in fields(RunManifest):
        if f.name not in doc and f.name != "output_dir":
            raise ConfigError(f"{p}: {f.name}", "missing required key")
    doc = {f.name: doc[f.name] for f in fields(RunManifest) if f.name in doc}
    for key, kind in (("scenario_hash", str), ("version", str), ("experiment", str),
                      ("seed", int), ("wall_clock_s", (int, float)), ("summary", dict),
                      ("files", list)):
        if not isinstance(doc[key], kind):
            raise ConfigError(f"{p}: {key}", f"wrong type ({type(doc[key]).__name__})")
    if not all(isinstance(name, str) for name in doc["files"]):
        raise ConfigError(f"{p}: files", "expected a list of file names")
    out = doc.get("output_dir", str(p.parent))
    if not Path(out).is_dir():
        out = str(p.parent)
    return RunManifest(**{**doc, "files": tuple(doc["files"]), "output_dir": out})


def emit_report(manifests: list) -> str:
    """Comparison CSV across scenarios of one experiment kind.

    Scalar experiments give one row per scenario; berry_esseen manifests are
    merged into a long-format (scenario_hash, t, sup_dist) table read back
    from their per-run CSVs.
    """
    if not manifests:
        return "scenario_hash,experiment,seed\n"
    kinds = {m.experiment for m in manifests}
    if len(kinds) > 1:
        raise MixedKinds(f"cannot mix experiments in one report: {sorted(kinds)}")
    kind = kinds.pop()

    if kind == "berry_esseen":
        lines = ["scenario_hash,t,sup_dist"]
        for m in manifests:
            src = Path(m.output_dir) / "berry_esseen.csv"
            with src.open(newline="") as fh:
                for rec in csv.DictReader(fh):
                    lines.append(f"{m.scenario_hash},{rec['t']},{rec['sup_dist']}")
        return "\n".join(lines) + "\n"

    keys = sorted({k for m in manifests for k in m.summary})
    lines = [",".join(["scenario_hash", "experiment", "seed", *keys])]
    for m in manifests:
        cells = [m.scenario_hash, m.experiment, str(m.seed)]
        cells.extend(_fmt(m.summary[k]) if k in m.summary else "" for k in keys)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyflow",
        description="Simulation lab for stochastic exponentials of matrix Levy processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS:
        p = sub.add_parser(exp, help=f"run the {exp} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to the scenario JSON")
        p.add_argument("--seed", type=int, default=None, help="override parameters.seed")
        p.add_argument("--out", default=None, help="override output_dir")
    rp = sub.add_parser("report", help="merge manifests into a comparison CSV")
    rp.add_argument("manifests", nargs="+", help="manifest.json paths")
    rp.add_argument("--out", default=None, help="write the table here (default: stdout)")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            table = emit_report([load_manifest(p) for p in args.manifests])
            if args.out:
                Path(args.out).write_text(table, newline="\n")
            else:
                sys.stdout.write(table)
            return 0
        manifest = run_scenario(args.config, seed=args.seed, out_dir=args.out,
                                experiment=args.command)
        scalars = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(manifest.summary.items()))
        print(f"{manifest.experiment}: wrote {', '.join(manifest.files)} and "
              f"manifest.json to {manifest.output_dir} ({scalars})")
        return 0
    except (ConfigError, ValidationError, MixedKinds, InvalidStep) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
