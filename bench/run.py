"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: eaqeckit is imported from src/,
and nothing needs building.  Each measurement runs in a fresh child process
(bench/worker.py) with BLAS/OpenMP threads pinned to 1:

  --trace 0  SETUP_RUNS set-up processes (median set-up time), then one
             closed-loop process that runs whole passes of the seeded job
             list for at least S seconds.  Reports the end-to-end metrics,
             with times rescaled to a reference CPU speed (calibrate.py);
             jobs_per_s is the median over passes.
  --trace 1  one untraced and one traced process over the same fixed passes.
             Reports the per-layer metrics and the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it gives details (job count and tail percentile, error rate,
speed factor and unscaled values).  Metric names and units are those of
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNCOVERED_MAX
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
# The whole run, children included, may take --seconds plus this margin:
# set-up processes, warm-up, the pass that is running when --seconds end.
DEADLINE_MARGIN_S = 150


def _child(mode: str, args, deadline: float) -> dict:
    """Run worker.py in a fresh process group; kill the group if the run is
    cut short, so that a calibration child of the worker ends too."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten jobs beyond it (nearest rank)."""
    n = len(times)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(times)[rank - 1]


def _speed(r: dict) -> list[float]:
    """Per job: reference time of the calibration loops over the median of
    the five calibrations nearest the job's start (see calibrate.py).
    cal_s[i] was measured just before job i and cal_s[i + 1] just after it."""
    cal = r["cal_s"]
    return [r["reference_s"] / statistics.median(cal[max(0, i - 2):i + 3])
            for i in range(len(r["times_s"]))]


def _per_pass_rate(r: dict, times: list[float]) -> float:
    """Median over passes of correct jobs over the summed time of its jobs."""
    per_pass = len(times) // len(r["pass_ok"])
    return statistics.median(ok / sum(times[k * per_pass:(k + 1) * per_pass])
                             for k, ok in enumerate(r["pass_ok"]))


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, with every time rescaled to the reference speed."""
    setups = [_child("setup", args, deadline) for _ in range(SETUP_RUNS)]
    r = _child("run", args, deadline)
    times = r["times_s"]
    attempted, failed = len(times), r["failed"]
    speed = _speed(r)
    ref_times = [t * f for t, f in zip(times, speed)]
    pct, tail_s = tail(ref_times)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["reference_s"] / s["cal_s"]
                                     for s in setups),
        "jobs_per_s": _per_pass_rate(r, ref_times),
        "job_p50_ms": 1000 * statistics.median(ref_times),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_rate": (attempted - failed) / attempted,
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "jobs_per_s": _per_pass_rate(r, times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_tail_ms": 1000 * tail(times)[1],
    }
    detail = {"jobs": attempted, "passes": len(r["pass_ok"]), "wall_s": r["wall_s"],
              "tail_percentile": pct, "error_rate": failed / attempted,
              "speed_median": statistics.median(speed), "unscaled": raw}
    return metrics, detail, r


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics of a traced process, and the tracing overhead.

    The overhead compares two processes run one after the other, so each job
    time is first rescaled to the reference speed.  Layer times are as traced.
    """
    base = _child("fixed", args, deadline)
    traced = _child("trace", args, deadline)
    if len(base["times_s"]) != len(traced["times_s"]):
        raise RuntimeError("traced and untraced runs ran different job lists")
    overhead = (sum(t * f for t, f in zip(traced["times_s"], _speed(traced)))
                - sum(t * f for t, f in zip(base["times_s"], _speed(base))))
    metrics = dict(traced["layers"], **{"trace.overhead_s": overhead})
    detail = {"jobs": len(traced["times_s"]), "traced_wall_s": traced["wall_s"],
              "untraced_wall_s": base["wall_s"], "counts": traced["counts"],
              "trace_file": traced["trace_file"]}
    traced["failed"] += base["failed"]
    traced["oracle_ok"] = traced["oracle_ok"] and base["oracle_ok"]
    return metrics, detail, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eaqeckit benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    # On SIGTERM, unwind so that _child kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eaqeckit" / "__init__.py").is_file():
        print(f"no eaqeckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    try:
        measured, detail, r = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    correct = r["failed"] == 0 and r["oracle_ok"]
    if not r["oracle_ok"]:
        print("oracle self-check failed on the warm-up jobs", file=sys.stderr)
    if args.trace:
        share = measured["trace.uncovered_share"]
        if share >= UNCOVERED_MAX:
            correct = False
            print(f"coverage check failed: families.* and cli.main self time is "
                  f"{share:.1%} of job wall time (limit {UNCOVERED_MAX:.0%})",
                  file=sys.stderr)
    print(json.dumps(dict(detail, workload=args.workload, seed=args.seed)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(r["times_s"]),
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
