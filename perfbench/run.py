"""Run one igamf benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring-p3-k5-solve --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed (at least one round) and reports the end-to-end metrics as medians
over the rounds.  ``--trace 1`` runs one traced round and then the same
round untraced, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, spans included
for a traced run, is written to ``perfbench/out/``.  The exit code is 0
only when every correctness gate passed.

The package is imported from ``src/`` of the checkout this file sits in,
and BLAS is pinned to one thread before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: per-round times: the bounded end-to-end metrics, and the phases that are
#: printed with the info line only (see README.md, "Noise on the reference
#: host")
ROUND_METRICS = ("wall_s", "setup_s")
ROUND_INFO = ("solve_s", "verify_s")
#: units of the info-line entries
INFO_UNITS = {"solve_s": "s", "verify_s": "s", "iters": "count",
              "iterations": "count"}


def environment(seed, seed_used):
    import numpy
    import scipy

    def blas(mod):
        cfg = getattr(getattr(mod, "__config__", None), "CONFIG", {})
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ[v] for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "seed": seed,
        "seed_used": seed_used,
    }


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_end_to_end(workload, outcome, seconds):
    rounds = []
    try:
        workload.prepare(outcome)
        start = time.perf_counter()
        while True:
            rounds.append(workload.round(workload.make_inputs(), outcome))
            if time.perf_counter() - start >= seconds:
                break
    except Exception as exc:  # a failed operation is reported, not raised
        traceback.print_exc()
        outcome.check(False, f"exception: {exc!r}")
    metrics = {}
    if rounds:
        for name in ROUND_METRICS:
            metrics[name] = (statistics.median(r[name] for r in rounds), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        for name in ROUND_INFO:
            outcome.info[name] = statistics.median(r[name] for r in rounds)
    return metrics, {"rounds": rounds}


def run_traced(igamf, workload, outcome):
    import numpy as np
    from tracer import Tracer, layer_metrics

    tracer = Tracer(igamf)
    try:
        workload.prepare(outcome)
        inputs = workload.make_inputs()
        # traced first, so it sees the same cold process as an untraced run;
        # the later untraced round is warmer, so the overhead is an upper bound
        with tracer:
            traced = workload.round(inputs, outcome, setup_repeats=1)
        untraced = workload.round(inputs, outcome, setup_repeats=1)
    except Exception as exc:  # a failed operation is reported, not raised
        traceback.print_exc()
        outcome.check(False, f"exception: {exc!r}")
        return {}, {"spans": tracer.spans}
    # flops per call from one untimed, untraced apply with a CostMeter
    per_call = {}
    for key in ("operator", "precond"):
        obj = tracer.captured.get(key)
        per_call[key] = 0
        if obj is not None:
            meter = igamf.CostMeter()
            obj.apply(np.zeros(obj.n_dofs), meter)
            per_call[key] = meter.flops
    metrics = layer_metrics(tracer.spans, traced["wall_s"], untraced["wall_s"],
                            per_call["operator"], per_call["precond"])
    return metrics, {"untraced_round": untraced, "traced_round": traced,
                     "spans": tracer.spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "igamf" / "__init__.py").is_file():
        print(f"error: no igamf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import igamf
    import igamf.cli  # the solve workloads' entry point
    from workloads import WORKLOADS, Outcome, make_workload

    if Path(igamf.__file__).resolve().parent != SRC / "igamf":
        print(f"error: imported igamf from {igamf.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, igamf, args.seed)
    outcome = Outcome()
    if args.trace:
        metrics, detail = run_traced(igamf, workload, outcome)
    else:
        metrics, detail = run_end_to_end(workload, outcome, args.seconds)

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "environment": environment(args.seed, workload.seed_used),
              "info": outcome.info, "failures": outcome.failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **detail}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float))

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for name, value in outcome.info.items():
        unit = INFO_UNITS.get(name, "relative")
        print(f"{name:36s} {value!s:>16} {unit} (info, not bounded)")
    for line in outcome.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "info": outcome.info}, default=float))
    correct = not outcome.failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures),
        "metrics": record["metrics"],
    }, default=float))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
