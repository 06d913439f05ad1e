"""levyflow benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload gaussian_limits --seed 1 --seconds 40 --trace 0

Run from the root of a levyflow checkout; levyflow is imported from its
``src/`` directory.  The run repeats whole rounds of the workload's pinned
operations (see workloads.py) for as long as another round is expected to end
within ``--seconds`` (at least one round), checks every round's outputs (see
checks.py), and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of one
round), ``setup_s`` (median, over fresh processes started between operations
all through the run, of the time from process start until the first scenario
can run) and ``peak_rss_mb`` (peak memory of the first round, read before any
check has run).  ``--trace 1`` wraps levyflow's layers (see layer_trace.py)
and reports per-layer metrics, each the median over rounds; the spans of the
last round are written to ``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread: set before numpy loads, inherited by set-up probes.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# A set-up probe runs before the next operation once this much time has
# passed since the last one, so the probes sample the whole run.
PROBE_EVERY_S = 1.5
PROBE_TIMEOUT_S = 60.0


def import_levyflow():
    """Import levyflow from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import levyflow

    where = Path(levyflow.__file__).resolve().parent
    if where != (SRC / "levyflow").resolve():
        raise SystemExit(f"levyflow was imported from {where}, not from {SRC}")
    return levyflow


def parse_triplets(lf, ops) -> None:
    """Parse and validate every triplet a workload's scenarios name."""
    for op in ops:
        if op.config is None:
            continue
        doc = op.config["triplet"]
        trip = lf.builtin_triplet(doc) if isinstance(doc, str) else lf.triplet_from_config(doc)
        if not lf.validate(trip).valid:
            raise SystemExit(f"{op.name}: triplet fails validation")


def setup_probe(workload: str) -> int:
    """Child process: import, parse and validate, then report ready."""
    lf = import_levyflow()
    from workloads import WORKLOADS

    parse_triplets(lf, WORKLOADS[workload](0))
    print("ready", flush=True)
    return 0


def time_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it is ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_round(ops, configs, before_op) -> tuple[dict, dict, int, float]:
    """Run every operation once: (outputs, seconds per operation, operations
    that raised, wall time of the round).  ``before_op`` is called before each
    operation, outside the timed region."""
    import levyflow.cli

    outputs, times, raised = {}, {}, 0
    for op in ops:
        before_op()
        t_op = time.perf_counter()
        try:
            if op.config is not None:
                outputs[op.name] = levyflow.cli.run_scenario(configs[op.name])
            else:
                outputs[op.name] = op.call()
        except Exception:
            raised += 1
            traceback.print_exc()
        times[op.name] = time.perf_counter() - t_op
    return outputs, times, raised, sum(times.values())


def check_round(ops, outputs) -> int:
    """Check the outputs of the operations that did not raise; returns the
    number whose check failed."""
    failed = 0
    for op in ops:
        if op.name not in outputs:
            continue
        try:
            problems = op.check(outputs[op.name])
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            print(f"CHECK FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def run(args) -> dict:
    import_levyflow()
    from layer_trace import Tracer, unit
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for op in ops:
        if op.config is not None:
            configs[op.name] = run_dir / f"{op.name}.json"
            configs[op.name].write_text(json.dumps(
                {**op.config, "output_dir": str(run_dir / op.name)}))
    setup, last_probe = [], -math.inf

    def probe_if_due():
        nonlocal last_probe
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            setup.append(time_setup(args.workload))
            last_probe = time.perf_counter()

    tracer = Tracer() if args.trace else None
    walls, layer_rounds = [], []
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    try:
        if tracer:
            tracer.install()
        while True:
            if tracer:
                tracer.reset()
            outputs, times, raised, wall = run_round(ops, configs, probe_if_due)
            walls.append(wall)
            if peak_rss_mb is None:  # the program's peak, before any check ran
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                layer_rounds.append(tracer.metrics(wall))
            t_check = time.perf_counter()
            n_bad = check_round(ops, outputs)
            attempted += len(ops)
            failed += raised + n_bad
            print(f"round {len(walls)}: wall {wall:.3f}s, probes {len(setup)}, checks "
                  f"{time.perf_counter() - t_check:.3f}s  "
                  + "  ".join(f"{k}={v:.3f}" for k, v in times.items()), file=sys.stderr)
            # stop unless another round, probes and checks included, would
            # still end within --seconds
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"peak RSS {peak_rss_mb:.1f} MB after round 1, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB with checks; "
          f"{len(setup)} set-up probes", file=sys.stderr)
    if tracer:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds),
                          "unit": unit(name)}
                   for name in layer_rounds[0]}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # an operation that raised has no output to check, so it makes the run
    # incorrect just as a failed check does
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["gaussian_limits", "jump_paths",
                                               "projective_chain"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
