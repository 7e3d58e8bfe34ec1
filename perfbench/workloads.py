"""What the benchmark runs, and why.

Every workload is one closed-loop caller: a batch CLI invocation whose cells
execute one after another, repeated back to back for the run's length.  The
program keeps its defaults (a pool of os.cpu_count() threads and OpenBLAS's
default thread count); the serial baseline pins both to one thread in a
fresh interpreter instead.  The workload seed only changes the generated
CLI arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

DEFAULT_SEED = 0  # the seed of the committed reference tables
EU_DB = 13.0
PR_DB = 13.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                        # "simulate" or "verify-lemmas"
    n_values: Tuple[int, ...]
    betas: Tuple[Optional[int], ...]    # None = continuous phases
    size: int                           # trials per cell, or seeds per size
    why: str
    stresses: str
    bypasses: str

    def argv(self, seed: int, out: str) -> List[str]:
        """CLI arguments for one invocation; the seed is the only input."""
        n = ",".join(str(v) for v in self.n_values)
        beta = ",".join("cont" if b is None else str(b) for b in self.betas)
        if self.command == "simulate":
            return simulate_argv(n, beta, self.size, seed, out)
        # Disjoint seed families, so two workload seeds share no draw.
        return lemmas_argv(n, beta, self.size, seed * self.size, out)

    @property
    def is_sweep(self) -> bool:
        return self.command == "simulate"

    def mc_cells(self) -> List[Tuple[int, Optional[int], str]]:
        """(N, beta, mode) of every Monte-Carlo cell; full-digital runs once per N."""
        cells = []
        for n in self.n_values:
            cells.append((n, None, "full_digital"))
            cells.extend((n, b, "hybrid") for b in self.betas)
        return cells

    def work_items(self) -> int:
        """Units of `work_per_s`: Monte-Carlo trials, or (N, seed) draws."""
        if self.is_sweep:
            return len(self.mc_cells()) * self.size
        return len(self.n_values) * self.size

    def ops(self) -> int:
        """Units of `attempted`/`failed`: Monte-Carlo trials, or lemma rows."""
        if self.is_sweep:
            return self.work_items()
        return 2 * len(self.n_values) * len(self.betas) * self.size


def simulate_argv(n: str, beta: str, trials: int, seed: int, out: str) -> List[str]:
    return [
        "simulate", "--case", "2", "--n", n, "--beta", beta,
        "--modes", "hybrid,full,asym", "--eu-db", str(EU_DB),
        "--pr-db", str(PR_DB), "--trials", str(trials),
        "--seed", str(seed), "--out", out,
    ]


def lemmas_argv(n: str, beta: str, seeds: int, first_seed: int, out: str) -> List[str]:
    return [
        "verify-lemmas", "--n", n, "--beta", beta, "--seeds", str(seeds),
        "--seed", str(first_seed), "--out", out,
    ]


def probe_argvs(seed: int, out_dir: str) -> List[List[str]]:
    """The set-up probe: one 2-trial cell per mode, and one lemma draw.

    A fresh interpreter running this is what `setup_s` times.  The traced
    run also runs it, so every traced layer has calls on every workload.
    """
    return [
        simulate_argv("64", "cont", 2, seed, f"{out_dir}/probe_sim.csv"),
        lemmas_argv("64", "cont", 1, seed, f"{out_dir}/probe_lemmas.csv"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-small-n",
            command="simulate",
            n_values=(16, 32, 64, 128),
            betas=(None, 1, 2),
            size=50,
            why="Arrays are at most 20 KB, so per-trial fixed cost dominates: "
                "SeedSequence set-up, dataclass and Python glue, and pool "
                "dispatch.  This workload shows engine-overhead and pool "
                "changes and barely touches bandwidth.",
            stresses="channel.trial_rng, the Monte-Carlo engine and its thread "
                     "pool, per-call Python overhead of every trial layer",
            bypasses="memory bandwidth; the lemma diagnostics",
        ),
        Workload(
            name="sweep-large-n",
            command="simulate",
            n_values=(2048, 8192),
            betas=(None, 2),
            size=5,
            why="Per-trial cost is O(N*K) array work: RNG draw, analog stage "
                "for both hops, compute_alpha and full-digital normalization. "
                "At N=8192 one N x K complex matrix is 1.3 MB against 4 MB of "
                "L2, so a change that stacks trials shows its memory cost here.",
            stresses="channel.sample_realization, hybrid.build_analog (half "
                     "quantized), hybrid.compute_alpha, hybrid.build_full_digital",
            bypasses="the lemma diagnostics; per-trial fixed cost is a small share",
        ),
        Workload(
            name="lemmas",
            command="verify-lemmas",
            n_values=(64, 256, 1024, 4096, 16384),
            betas=(None, 1, 2, 3),
            size=5,
            why="Uses the analog stage differently: three of four calls are "
                "quantized, each draw is reused for four beta values, and there "
                "is no power normalization, SINR or thread pool.  A Gram-engine "
                "or pool change should predict no change here.",
            stresses="channel.sample_small_scale, hybrid.build_analog, "
                     "diagnostics.orthonormality_parts and fh_parts",
            bypasses="the Monte-Carlo engine, its thread pool, power "
                     "normalization and SINR algebra",
        ),
    )
}
