"""Benchmark of exitmoment: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload brownian --seed 1 --seconds 10 --trace 0

Workloads are ``brownian``, ``pendulum`` and ``mc`` (see workloads.py and
NOTES.md).  With ``--trace 0`` the run repeats untraced passes until
``--seconds`` have elapsed and the workload's minimum number of passes
has run (``workloads.MIN_PASSES``), then reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics, writing the spans to
``perfbench/out/``.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the result as one JSON object.

The library is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("brownian", "pendulum", "mc")
# Fresh-process setup probes, split before and after the measured passes
# so that one slow spell of the machine does not set the whole median.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Run BLAS single-threaded; call before numpy loads.

    The largest dense matrices here are PSD blocks of side <= 252.  At
    these sizes a second BLAS thread made solves no faster on a 2-CPU
    machine but kept a second core busy spinning, so every workload uses
    one thread (never more than nproc).  Returns nproc, which is recorded
    with the results.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def probe_setup(workload: str) -> float:
    """Seconds to import the library and prepare the workload's models."""
    t0 = time.perf_counter()
    import workloads
    workloads.prepare(workload)
    return time.perf_counter() - t0


def measure_setup(workload: str, probes: int) -> list:
    """``probe_setup`` in ``probes`` fresh processes, one after another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--probe-setup", workload],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(metrics: dict, declared: list, outcomes: list, info: dict) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json")
    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.job}: {o.reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }, allow_nan=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.probe_setup is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "exitmoment" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'exitmoment'}",
              file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        print(repr(probe_setup(args.probe_setup)))
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    import spans
    import workloads

    lib = Path(workloads.em_augment.__file__).resolve()
    if SRC not in lib.parents:
        raise RuntimeError(f"library imported from {lib}, not from {SRC}")

    info = {"workload": args.workload, **environment(nproc, args.seed)}
    if args.trace == 0:
        setup = measure_setup(args.workload, SETUP_PROBES_BEFORE)
        walls, outcomes = [], []
        start = time.perf_counter()
        while True:
            wall, outs = workloads.run_pass(args.workload, args.seed,
                                            spans.Recorder())
            walls.append(wall)
            outcomes += outs
            if (time.perf_counter() - start >= args.seconds
                    and len(walls) >= workloads.MIN_PASSES[args.workload]):
                break
        setup += measure_setup(args.workload, SETUP_PROBES_AFTER)
        info.update(setup_s=setup, pass_walls_s=walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        }
        emit(metrics, declared["end_to_end"], outcomes, info)
        return 0

    untraced_wall, outs0 = workloads.run_pass(args.workload, args.seed,
                                              spans.Recorder())
    recorder = spans.Recorder()
    with spans.installed(recorder, workloads.trace_targets()):
        traced_wall, outs1 = workloads.run_pass(args.workload, args.seed,
                                                recorder)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    span_file = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(span_file, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "wall_s": traced_wall, "spans": recorder.as_json()}, fh)
    info.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                spans_file=str(span_file.relative_to(ROOT)),
                jobs={o.job: o.facts for o in outs1})
    metrics = workloads.layer_metrics(recorder.spans, outs1, traced_wall,
                                      untraced_wall)
    emit(metrics, declared["per_layer"], outs0 + outs1, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
