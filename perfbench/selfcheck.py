"""Toy-size self-run of the benchmark harness (not part of the test suite).

    python3 perfbench/selfcheck.py

Checks, at sizes that take seconds: every workload's checks pass on a toy
invocation and fail on a corrupted table; two traced runs of the same code
give identical `*.calls` and `*.bytes_computed` counts; and run.py prints
exactly the metrics BENCHMARK.json declares, with their units.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, probe_argvs

HERE = Path(__file__).resolve().parent
TOY = {
    "sweep-small-n": dict(n_values=(16, 32), size=3),
    "sweep-large-n": dict(n_values=(256,), size=2),
    "lemmas": dict(n_values=(16, 64), size=2),
}
SEED = DEFAULT_SEED + 5  # not the reference seed: toy tables have no reference


def _traced_counts(program, workload, out_dir: Path) -> dict:
    with tracing.Tracer() as tracer:
        for argv in probe_argvs(SEED, str(out_dir)) + [workload.argv(SEED, str(out_dir / "t.csv"))]:
            if program.cli.main(argv) != 0:
                raise RuntimeError(f"CLI failed on {argv}")
    summary = tracing.summarize(tracer.spans)
    return {k: v for k, (v, unit) in summary.items() if unit in ("count", "B")}, summary


def main() -> int:
    program = harness.load_program()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out_dir = Path(tmp)
        for name, toy in TOY.items():
            workload = dataclasses.replace(WORKLOADS[name], **toy)
            out = out_dir / f"{name}.csv"
            if program.cli.main(workload.argv(SEED, str(out))) != 0:
                problems.append(f"{name}: CLI failed")
                continue
            text = out.read_text(encoding="utf-8")
            failed, notes = checks.check(workload, SEED, text, program, DEFAULT_SEED)
            if failed:
                problems.append(f"{name}: checks failed on a good table: {notes}")
            lines = text.splitlines()
            fields = lines[1].split(",")
            fields[4] = repr(float(fields[4]) * 1.001)  # first numeric result column
            corrupted = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
            if checks.check(workload, SEED, corrupted, program, DEFAULT_SEED)[0] == 0:
                problems.append(f"{name}: checks missed a corrupted value")
            first, summary = _traced_counts(program, workload, out_dir)
            second, _ = _traced_counts(program, workload, out_dir)
            if first != second:
                problems.append(f"{name}: counts differ between runs: {first} vs {second}")
            missing = layer_names - set(summary) - {"trace.overhead_frac"}
            if missing:
                problems.append(f"{name}: summary lacks {sorted(missing)}")
            print(f"{name}: toy run checked, counts {first}")

    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "sweep-small-n",
             "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        if done.returncode != 0 or got != want or not result["correct"]:
            problems.append(f"run.py --trace {trace}: status {done.returncode}, "
                            f"metrics {got} != declared {want}")
        print(f"run.py --trace {trace}: {len(got)} metrics, correct={result['correct']}")

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
