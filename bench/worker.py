"""One benchmark process: set-up timing, an untraced pass, or a traced pass.

    python3 bench/worker.py MODE --workload NAME --seed N [--seconds S]

MODE is one of
  setup  time `import eaqeckit` plus building every field of the workload
  run    closed loop of whole passes until S seconds have passed, untraced
  fixed  TRACE_PASSES[workload] passes, untraced (the tracing-overhead base)
  trace  the same passes as fixed, with every public function traced

Every mode also times the calibration loops of calibrate.py: setup once it
is done, the others before the first job and after every job.  Every mode runs
on one CPU: the CPUs of a virtual machine can drift in speed independently, so
the calibration must run on the CPU that ran the jobs.

eaqeckit is imported from the src/ directory of the checkout that holds this
file.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench-work"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (standard library only)
from calibrate import Calibration  # noqa: E402

# Passes of the fixed and traced runs: about 8 s of job time untraced on each
# workload.
TRACE_PASSES = {"tables": 7, "mds-scan": 3, "large-field": 6, "verify": 10}
# Jobs run once, untimed, before the measured passes: they fill the field
# element caches and numpy's first-call paths, which users pay only once.
WARMUP_JOBS = 3


def _import_eaqeckit():
    import eaqeckit
    if not Path(eaqeckit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"eaqeckit imported from {eaqeckit.__file__}, not {ROOT / 'src'}")
    return eaqeckit


def _build_fields(eaqeckit, workload: str) -> None:
    for p, e in workloads.fields(workload):
        field = eaqeckit.field_new(p, e)
        field.primitive_element()
        field.vec_ops()


def setup(workload: str) -> dict:
    start = time.perf_counter()
    eaqeckit = _import_eaqeckit()
    _build_fields(eaqeckit, workload)
    setup_s = time.perf_counter() - start
    with Calibration(with_numpy=False) as cal:
        samples = sorted(cal.measure() for _ in range(3))
    return {"setup_s": setup_s, "cal_s": samples[1], "reference_s": cal.reference_s}


def measure(mode: str, workload: str, seed: int, seconds: float) -> dict:
    eaqeckit = _import_eaqeckit()
    importlib.import_module("eaqeckit.cli")  # the cli layer, which some jobs call
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install(eaqeckit)
    start = time.perf_counter()
    _build_fields(eaqeckit, workload)
    field_setup_s = time.perf_counter() - start

    WORKDIR.mkdir(exist_ok=True)
    # mds-scan spends most of its time in numpy on large arrays.
    with (tempfile.TemporaryDirectory(dir=WORKDIR) as tmp,
          Calibration(with_numpy=workload == "mds-scan") as cal):
        jobs = workloads.make_jobs(workload, seed, Path(tmp))
        run = workloads.run_job
        if tracer is not None:
            run = tracer.wrap("job", run)

        # Warm-up, and the oracle's own check: every warm-up answer must match
        # its known answer and must not match the deliberately wrong one.
        warm = [jobs[i] for i in workloads.pass_order(len(jobs), seed, -1)[:WARMUP_JOBS]]
        warm_out = [run(eaqeckit, job) for job in warm]
        oracle_ok = (all(o == j.expected for o, j in zip(warm_out, warm))
                     and not any(o == j.wrong for o, j in zip(warm_out, warm)))
        if tracer is not None:
            tracer.reset()

        times, failed, pass_ok, cal_s = [], 0, [], [cal.measure()]
        clock = time.perf_counter
        begin = clock()
        while True:
            ok = 0
            for i in workloads.pass_order(len(jobs), seed, len(pass_ok)):
                job = jobs[i]
                if tracer is not None:
                    tracer.job = len(times)
                t0 = clock()
                out = run(eaqeckit, job)
                times.append(clock() - t0)
                cal_s.append(cal.measure())
                if out == job.expected:
                    ok += 1
                else:
                    failed += 1
                    print(f"wrong answer: {job.call} gave {out}, expected {job.expected}",
                          file=sys.stderr)
            pass_ok.append(ok)
            if mode == "run" and clock() - begin >= seconds:
                break
            if mode != "run" and len(pass_ok) == TRACE_PASSES[workload]:
                break
        wall = clock() - begin

    result = {"wall_s": wall, "times_s": times, "failed": failed,
              "pass_ok": pass_ok,
              "cal_s": cal_s, "reference_s": cal.reference_s,
              "oracle_ok": oracle_ok,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, field_setup_s)
        result["counts"] = dict(tracer.counts)
        trace_path = WORKDIR / f"trace-{workload}-seed{seed}.json.gz"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "fixed", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = setup(args.workload)
    else:
        result = measure(args.mode, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
