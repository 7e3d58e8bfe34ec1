"""Benchmark of the hybridrelay batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

The workloads (see workloads.py for why each exists) drive
`hybridrelay.cli.main` in-process with the program's default thread
settings.  The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the environment, every raw timing and the outcome of every check.

--trace 0 reports the end-to-end metrics.  Times are means in seconds at
the reference host speed (harness.py: each timed step is bracketed by a
fixed reference kernel, which cancels the shared host's drift); the detail
line holds the raw wall and kernel seconds of every step.
  wall_s             wall time of one CLI invocation
  work_per_s         Monte-Carlo trials per second over the hybrid and
                     full-digital cells (sweeps), or (N, seed) fading draws
                     per second with all beta values (lemmas)
  work_per_s_serial  the same in a fresh interpreter with SIM_THREADS=1 and
                     OPENBLAS_NUM_THREADS=1, the single-threaded baseline
  setup_s            time for a fresh interpreter to import the
                     package and run the set-up probe (workloads.py)
  peak_rss_mb        peak resident memory of the process that ran the
                     default-thread invocations
`failed`/`attempted` is the failed-operation share: operations are trials
on the sweeps and rows on lemmas.  Every CSV, serial ones included, must be
byte-identical, and checks.py must pass, or the run exits with status 1.

--trace 1 reports per-layer metrics (tracing.py, raw seconds) from three
traced invocations plus the traced set-up probe, and trace.overhead_frac:
the traced time over the untraced one, both at the reference
speed, minus 1.  Counts (`*.calls`, `*.bytes_computed`) are exact and
repeat from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, probe_argvs

SETUP_REPEATS = 9
TRACED_INVOCATIONS = 3  # fixed, so that traced counts repeat exactly
HARNESS = str(Path(harness.__file__).resolve())


def _setup_runs(seed: int, work: Path) -> list:
    """(wall, kernel) seconds of fresh interpreters running the set-up probe."""
    runs = []
    for _ in range(SETUP_REPEATS):
        kernel = harness.reference_kernel()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, HARNESS, "probe", str(seed), str(work)], check=True,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        runs.append((wall, (kernel + harness.reference_kernel()) / 2))
    return runs


def _scaled(runs) -> float:
    return harness.host_scaled([r[0] for r in runs], [r[1] for r in runs])


def _serial_runs(name: str, seed: int, seconds: float, work: Path) -> dict:
    env = dict(os.environ, SIM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, HARNESS, "serial", name, str(seed), str(seconds), str(work)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _measure(args, program, work: Path) -> tuple:
    workload = WORKLOADS[args.workload]
    make_argv = lambda out: workload.argv(args.seed, out)  # noqa: E731
    detail = {}
    metrics = {}
    if args.trace:
        plain = harness.run_for(program.cli.main, make_argv, args.seconds, work, "default")
        with tracing.Tracer() as tracer:
            for probe in probe_argvs(args.seed, str(work)):
                if program.cli.main(probe) != 0:
                    raise RuntimeError("set-up probe failed under tracing")
            traced = [run for i in range(TRACED_INVOCATIONS)
                      for run in harness.run_for(program.cli.main, make_argv, 0, work, f"traced{i}")]
        overhead = _scaled(traced) / _scaled(plain) - 1.0
        for name, (value, unit) in tracing.summarize(tracer.spans).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        runs = plain + traced
        detail["traced_wall_kernel_s"] = [r[:2] for r in traced]
        detail["spans"] = len(tracer.spans)
    else:
        setup = _setup_runs(args.seed, work)
        plain = harness.run_for(program.cli.main, make_argv, args.seconds, work, "default")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        serial = _serial_runs(args.workload, args.seed, args.seconds, work)
        wall = _scaled(plain)
        serial_wall = _scaled(serial["runs"])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "work_per_s": {"value": workload.work_items() / wall, "unit": "1/s"},
            "work_per_s_serial": {"value": workload.work_items() / serial_wall, "unit": "1/s"},
            "setup_s": {"value": _scaled(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        runs = plain + serial["runs"]
        detail["setup_wall_kernel_s"] = setup
        detail["serial_wall_kernel_s"] = [r[:2] for r in serial["runs"]]
        detail["serial_environment"] = serial["environment"]
    detail["default_wall_kernel_s"] = [r[:2] for r in plain]
    return runs, metrics, detail


def run_one(args) -> int:
    try:
        program = harness.load_program()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = harness.ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runs, metrics, detail = _measure(args, program, work)
        outputs = {Path(run[2]).read_bytes() for run in runs}
        text = Path(runs[0][2]).read_text(encoding="utf-8")
        t0 = time.perf_counter()
        failed, notes = checks.check(workload, args.seed, text, program, DEFAULT_SEED)
        detail["check_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    if len(outputs) != 1:
        failed = workload.ops()
        notes.append(f"determinism: {len(outputs)} different CSVs from {len(runs)} invocations")
    attempted = workload.ops() * len(runs)
    failed *= len(runs)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(args.seed),
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        **detail,
        "invocations": len(runs),
        "ops_failed_frac": failed / attempted,
        "check_failures": notes,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not notes, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not notes else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(done.stdout, end="")
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
