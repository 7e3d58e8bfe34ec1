"""Loading the program from the checkout, timed invocations, environment record.

Also the entry point of the benchmark's child interpreters:

    python3 perfbench/harness.py serial WORKLOAD SEED SECONDS OUT_DIR
    python3 perfbench/harness.py probe SEED OUT_DIR
    python3 perfbench/harness.py reference WORKLOAD

`serial` repeats a workload's invocation for SECONDS and prints its wall
and kernel times as JSON; the parent sets the thread variables before starting it.
`probe` runs the set-up probe once; the parent times the whole process.
`reference` rewrites the workload's committed default-seed table; run it
only when the workload itself changes.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class ProgramMissing(RuntimeError):
    """The checkout holds no hybridrelay sources to benchmark."""


def load_program():
    """Import hybridrelay from the checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "hybridrelay" / "__init__.py").is_file():
        raise ProgramMissing(f"no hybridrelay sources under {src}")
    sys.path.insert(0, str(src))
    import hybridrelay
    import hybridrelay.cli

    if Path(hybridrelay.__file__).resolve().parent != (src / "hybridrelay").resolve():
        raise ProgramMissing(f"hybridrelay was imported from {hybridrelay.__file__}")
    return hybridrelay


# The host's speed drifts: on a shared 2-core host, raw medians of 10-second
# runs spread by 15-30% from run to run, and most of the drift is common to
# all code.  So every timed step is bracketed by two calls of a fixed
# reference kernel, and times are reported at the reference speed, at which
# one call takes REFERENCE_KERNEL_S.  The kernel is small numpy calls on a
# 64 x 10 complex array, the program's own idiom; it tracks the drift better
# than memory streaming or BLAS calls do.  It makes no BLAS call, so the
# serial run's thread pinning leaves it alone.  The drift it cannot cancel
# is that of the program's own threads contending for the two cores.
_KERNEL_ARRAY_SHAPE = (64, 10)
_KERNEL_REPEATS = 400
REFERENCE_KERNEL_S = 0.010


def reference_kernel() -> float:
    """Seconds a fixed run of small numpy calls takes right now."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal(_KERNEL_ARRAY_SHAPE) + 1j * rng.standard_normal(_KERNEL_ARRAY_SHAPE)
    t0 = time.perf_counter()
    for _ in range(_KERNEL_REPEATS):
        np.exp(-1j * np.angle(a)).sum()
    return time.perf_counter() - t0


def host_scaled(walls: Sequence[float], kernels: Sequence[float]) -> float:
    """Mean wall time rescaled from this phase's host speed to the reference speed.

    `kernels` holds, per timed step, the mean of the kernel calls just before
    and after it.  The host switches between fast and slow states many times
    a second, so both means cover the same mix of states; a median would
    pick one state, and on 10-run sets it spreads 1.5 times as wide.
    """
    return statistics.fmean(walls) * REFERENCE_KERNEL_S / statistics.fmean(kernels)


def run_for(
    main: Callable, make_argv: Callable[[str], List[str]], seconds: float, out_dir: Path, tag: str
) -> List[Tuple[float, float, str]]:
    """Invoke the CLI back to back while another invocation fits in `seconds`.

    Runs at least once, each invocation between two reference_kernel()
    calls.  Returns (wall seconds, mean kernel seconds, output path) per
    invocation; a non-zero exit status raises.
    """
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1][0] + runs[-1][1] <= seconds:
        out = str(out_dir / f"{tag}_{len(runs)}.csv")
        kernel = reference_kernel()
        t0 = time.perf_counter()
        status = main(make_argv(out))
        wall = time.perf_counter() - t0
        if status != 0:
            raise RuntimeError(f"CLI exited with status {status}")
        runs.append((wall, (kernel + reference_kernel()) / 2, out))
    return runs


def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    """What changes the numbers: versions, BLAS, thread settings, commit, seed."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "SIM_THREADS": os.environ.get("SIM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
        "workload_seed": seed,
    }


def _child(argv: List[str]) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS, probe_argvs

    program = load_program()
    main = program.cli.main
    if argv[0] == "probe":
        seed, out_dir = int(argv[1]), argv[2]
        return max(main(a) for a in probe_argvs(seed, out_dir))
    if argv[0] == "reference":
        workload = WORKLOADS[argv[1]]
        out = Path(__file__).resolve().parent / "reference" / f"{workload.name}.csv"
        return main(workload.argv(DEFAULT_SEED, str(out)))
    name, seed, seconds, out_dir = argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    workload = WORKLOADS[name]
    runs = run_for(main, lambda out: workload.argv(seed, out), seconds, out_dir, "serial")
    print(json.dumps({"runs": runs, "environment": environment(seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
