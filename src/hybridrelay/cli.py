"""Batch front-end: scenario parsing, sweep execution, CSV/DAT output.

All dB-to-linear conversion happens here; the library below works in linear
units only.  Output rows are written single-threaded, ordered by
(case, N, beta, mode), so a given (config, spec) pair always produces
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import typing
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import asymptotics, diagnostics, metrics
from .channel import canonical_drop, lemma_rng, sample_small_scale
from .config import SystemConfig
from .hybrid import QuantizationSpec
from .metrics import _block_bounds, _env_thread_cap, _sweep_rates

log = logging.getLogger("hybridrelay.cli")

# Each power regime: (user-side key, relay-side key, closed-form law or
# None).  An e*_db key is an energy E, spread over the array as E/N; a
# p*_db key is a power, used as is.  The law is named and looked up in
# asymptotics at each call, so a wrapper installed there sees the call.
_REGIMES = {
    "case1": ("eu_db", "er_db", "rate_case1"),
    "case2": ("eu_db", "pr_db", "rate_case2"),
    "case3": ("pu_db", "er_db", "rate_case3"),
    "fixed_power": ("pu_db", "pr_db", None),
}
CASES = tuple(_REGIMES)
MODES = ("asymptote",) + metrics.MODES
DROP_POLICIES = ("redraw_per_trial", "fixed_drop")

CSV_COLUMNS = (
    "case", "N", "beta", "mode", "mean_rate_bps_hz", "std_err",
    "trials", "asymptote_rate", "degenerate_trials",
)
LEMMA_COLUMNS = (
    "metric", "N", "beta", "seed", "diag_deviation", "offdiag_deviation",
    "diag_mean", "bound", "passed",
)

# The short spellings; every canonical name also stands for itself.
_CASE_ALIASES = {
    **dict(zip(CASES, CASES)),
    "1": "case1", "2": "case2", "3": "case3", "fixed": "fixed_power",
}
_MODE_ALIASES = {**dict(zip(MODES, MODES)), "full": "full_digital", "asym": "asymptote"}

class UsageError(ValueError):
    """Bad invocation: wrong flags, file keys, or value combinations."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _check_lists(
    n_values: Sequence[int], beta_values: Sequence[Optional[int]]
) -> None:
    """The antenna-list and beta-list rules that both subcommands share."""
    if not n_values:
        raise UsageError("n_values must not be empty")
    if any(n < 1 for n in n_values):
        raise UsageError("antenna counts must be positive")
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise UsageError("n_values must be strictly ascending")
    if not beta_values:
        raise UsageError("beta_values must not be empty")
    if len(set(beta_values)) < len(beta_values):
        raise UsageError("beta_values must not repeat")
    try:
        for beta in beta_values:
            if beta is not None:
                QuantizationSpec(beta)
    except ValueError as exc:
        raise UsageError(f"beta_values: {exc}")


@dataclass(frozen=True)
class SweepSpec:
    """One batch of simulation cells.

    beta_values uses None for continuous phases.  Energies are stored in dB
    exactly as given; conversion happens when the per-cell powers are built.
    """

    case: str
    n_values: Tuple[int, ...]
    beta_values: Tuple[Optional[int], ...]
    modes: Tuple[str, ...]
    trials: int = 1000
    eu_db: Optional[float] = None
    er_db: Optional[float] = None
    pu_db: Optional[float] = None
    pr_db: Optional[float] = None
    drop_policy: str = "redraw_per_trial"

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise UsageError(f"case must be one of {CASES}, got {self.case!r}")
        _check_lists(self.n_values, self.beta_values)
        if not self.modes:
            raise UsageError("modes must not be empty")
        unknown = [m for m in self.modes if m not in MODES]
        if unknown:
            raise UsageError(f"unknown modes: {', '.join(unknown)}")
        if self.trials < 2:
            raise UsageError("trials must be at least 2")
        if self.drop_policy not in DROP_POLICIES:
            raise UsageError(f"drop_policy must be one of {DROP_POLICIES}")
        user, relay, law = _REGIMES[self.case]
        missing = [k.replace("_", "-") for k in (user, relay) if getattr(self, k) is None]
        if missing:
            raise UsageError(f"{self.case} requires settings: {', '.join(missing)}")
        if law is None and "asymptote" in self.modes:
            raise UsageError(f"{self.case} has no closed-form asymptote")


def _beta_key(beta: Optional[int]) -> int:
    return -1 if beta is None else beta


def _cell_powers(spec: SweepSpec, n: int) -> Tuple[float, float]:
    """Per-cell linear (p_user, p_relay): an energy spreads as E/N."""
    user, relay, _ = _REGIMES[spec.case]
    return tuple(
        db_to_linear(getattr(spec, key)) / (n if key.startswith("e") else 1)
        for key in (user, relay)
    )


def _asymptote_rate(
    spec: SweepSpec,
    beta: Optional[int],
    eta: Tuple[np.ndarray, np.ndarray],
    config: SystemConfig,
) -> Optional[float]:
    """Closed-form limit rate of the cell, None where no law applies.

    Only the regime's energies reach the law; a fixed-power side has none.
    """
    user, relay, law = _REGIMES[spec.case]
    if law is None:
        return None
    e_user, e_relay = (
        db_to_linear(getattr(spec, key)) if key.startswith("e") else None
        for key in (user, relay)
    )
    delta = QuantizationSpec(beta).step if beta is not None else 0.0
    inputs = asymptotics.AsymptoticInputs(
        eta1=eta[0],
        eta2=eta[1],
        r=min(config.n_rx_chains, config.n_tx_chains, config.n_pairs),
        var_relay_noise=config.var_relay_noise,
        var_dest_noise=config.var_dest_noise,
        e_user=e_user,
        e_relay=e_relay,
        delta=delta,
    )
    return getattr(asymptotics, law)(inputs)


def run_sweep(spec: SweepSpec, config: SystemConfig) -> List[dict]:
    """Execute every cell of the sweep and return ordered result rows.

    Asymptote rows bypass sampling entirely and are computed on the
    canonical benchmark drop, which is what the fixed-drop policy pins the
    Monte-Carlo runs to as well; they do not move with trials, seed or N,
    so each beta's limit is evaluated once.
    Full-digital cells have no phase quantizer, so they are run once per N
    and tagged with beta = cont.  All Monte-Carlo cells of one N share
    their draws, so each trial's fading is drawn once per N, and the
    blocks of every N share one thread pool.  The first failing cell, in
    the order N, then full digital, then hybrid by beta, raises once every
    block of the run has run, so a failure at a small N costs the whole
    large-N part first.
    """
    bench_drop = canonical_drop(config)
    mc_drop = bench_drop if spec.drop_policy == "fixed_drop" else None
    variants = []
    if "full_digital" in spec.modes:
        variants.append(("full_digital", None))
    if "hybrid" in spec.modes:
        variants.extend(("hybrid", beta) for beta in spec.beta_values)
    limits = {b: _asymptote_rate(spec, b, bench_drop, config) for b in spec.beta_values}
    bases = []
    for n in spec.n_values:
        p_user, p_relay = _cell_powers(spec, n)
        bases.append(dataclasses.replace(
            config, n_antennas=n, p_user=p_user, p_relay=p_relay
        ))
    points = (_sweep_rates(bases, spec.trials, variants, drop=mc_drop)
              if variants else [[] for _ in bases])
    rows = []
    for base, cell_points in zip(bases, points):
        n = base.n_antennas
        degenerate = []
        for (mode, beta), p in zip(variants, cell_points):
            limit = limits[beta] if mode == "hybrid" else None
            rows.append(_row(spec, n, mode, beta, limit, p.mean_rate,
                             p.std_error, p.n_trials, p.n_degenerate))
            label = mode if mode == "full_digital" else f"{mode}({_render_beta(beta)})"
            degenerate.append(f"{label}={p.n_degenerate}")
        if variants:
            log.info("N=%d: trials=%d blocks=%d degenerate: %s", n, spec.trials,
                     len(_block_bounds(base, spec.trials)), " ".join(degenerate))
        if "asymptote" in spec.modes:
            rows.extend(_row(spec, n, "asymptote", beta, limit, limit)
                        for beta, limit in limits.items())
    rows.sort(key=lambda r: (r["case"], r["N"], _beta_key(r["beta"]), r["mode"]))
    return rows


def _row(spec, n, mode, beta, limit, mean, std_err=0.0, trials=0, degenerate=0) -> dict:
    """One CSV row; the defaults are an asymptote row's, whose mean is its limit."""
    return {
        "case": spec.case, "N": n, "beta": beta, "mode": mode,
        "mean_rate_bps_hz": mean, "std_err": std_err, "trials": trials,
        "asymptote_rate": limit, "degenerate_trials": degenerate,
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.10g" % value
    return str(value)


def _render_beta(beta: Optional[int]) -> str:
    return "cont" if beta is None else str(beta)


def _render_row(row: dict, columns: Sequence[str]) -> List[str]:
    return [
        _render_beta(row[col]) if col == "beta" else _format_cell(row[col])
        for col in columns
    ]


def emit_csv(rows: List[dict], path: str, columns: Sequence[str] = CSV_COLUMNS) -> None:
    """Write rows as UTF-8, LF-terminated CSV; floats carry 10 significant digits.

    An empty table still gets its header line.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_render_row(row, columns))


def emit_dat(rows: List[dict], path: str, columns: Sequence[str] = CSV_COLUMNS) -> None:
    """Companion whitespace-separated table (gnuplot-friendly, '#' header)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            cells = [cell if cell else "nan" for cell in _render_row(row, columns)]
            fh.write(" ".join(cells) + "\n")


# ---------------------------------------------------------------------------
# settings merging: defaults < config file < flags
# ---------------------------------------------------------------------------

# Scenario fields every cell sets itself: array size, powers, phase bits.
_CELL_KEYS = ("n_antennas", "p_user", "p_relay", "quant_bits")
_SYSTEM_HINTS = {
    key: hint for key, hint in typing.get_type_hints(SystemConfig).items()
    if key not in _CELL_KEYS
}
_SYSTEM_KEYS = tuple(_SYSTEM_HINTS)
# Type hint of every settings key, in flag order: the scenario keys, the
# sweep fields, and the two output paths.  A flag's dest is its key.
_KEY_HINTS = {
    **_SYSTEM_HINTS, **typing.get_type_hints(SweepSpec), "out": str, "dat": str,
}
# The scenario keys verify-lemmas takes as flags.
_LEMMA_KEYS = ("n_pairs", "n_rx_chains", "seed")


def _is_list(key: str) -> bool:
    return typing.get_origin(_KEY_HINTS[key]) is tuple


def _flag_type(key: str) -> type:
    """What the flag of a settings key converts its text to: int, float or str.

    Optional[T] gives T; a tuple field gives str, which parse_config splits
    at its commas.
    """
    hint = _KEY_HINTS[key]
    if _is_list(key):
        return str
    return next(t for t in (int, float, str) if t in (hint, *typing.get_args(hint)))


def _file_value(key: str, value):
    """A config-file value, converted exactly as its flag's text would be.

    A number or string stands for its text, and a list, for a tuple field,
    for its comma-separated items; a whole-number float such as 1000.0 is
    written as an int, and null in a beta list stands for cont.  Other null,
    booleans, objects, non-integral numbers for int keys and text the flag
    would reject are usage errors.
    """
    items = value if isinstance(value, list) and _is_list(key) else [value]
    if key == "beta_values" and isinstance(value, list):
        items = ["cont" if v is None else v for v in items]
    items = [int(v) if isinstance(v, float) and v.is_integer() else v for v in items]
    if all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        try:
            return _flag_type(key)(",".join(map(str, items)))
        except ValueError:
            pass
    raise UsageError(f"bad value for config key {key}: {json.dumps(value)}")


def _items(key: str, text: str) -> List[str]:
    """The comma-separated items of a list setting, stripped; none may be empty."""
    items = [tok.strip() for tok in text.split(",")]
    if not all(items):
        raise UsageError(f"{key} must not have an empty item, got {text!r}")
    return items


def _parse_int_list(text: str) -> Tuple[int, ...]:
    items = _items("n_values", text)
    try:
        return tuple(int(tok) for tok in items)
    except ValueError:
        raise UsageError("n_values must be a comma-separated list of integers")


def _parse_beta_list(text: str) -> Tuple[Optional[int], ...]:
    out = []
    for tok in _items("beta_values", text):
        tok = tok.lower()
        if tok in ("cont", "continuous"):
            out.append(None)
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise UsageError(f"bad beta value {tok!r}; use integers or 'cont'")
    return tuple(dict.fromkeys(out))


def _parse_modes(text: str) -> Tuple[str, ...]:
    out = []
    for tok in _items("modes", text):
        name = _MODE_ALIASES.get(tok.lower())
        if name is None:
            raise UsageError(f"unknown mode {tok!r}")
        out.append(name)
    return tuple(dict.fromkeys(out))


def _parse_case(value: str) -> str:
    name = _CASE_ALIASES.get(value.strip().lower())
    if name is None:
        raise UsageError(f"unknown case {value!r}")
    return name


# The settings parse_config reads through a parser: lists and aliases.
_PARSERS = {
    "case": _parse_case,
    "n_values": _parse_int_list,
    "beta_values": _parse_beta_list,
    "modes": _parse_modes,
}


def _parsed(key: str, value):
    """A setting's value as parse_config reads it."""
    parse = _PARSERS.get(key)
    return value if parse is None else parse(value)


def _merge_settings(args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto the optional JSON settings file."""
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(_KEY_HINTS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        settings = {key: _file_value(key, value) for key, value in loaded.items()}

    for key in _KEY_HINTS:
        value = getattr(args, key)
        if value is None:
            continue
        # Compared as parsed, so "2" repeats "case2"; the file's value must
        # parse even where a flag overrides it, as for every other key.
        if key in settings and _parsed(key, settings[key]) != _parsed(key, value):
            log.warning(
                "flag overrides config file: %s = %r (file had %r)",
                key, value, settings[key],
            )
        settings[key] = value
    return settings


def _given(cls, settings: dict) -> dict:
    """The settings that name a field of dataclass `cls`."""
    return {
        f.name: settings[f.name] for f in dataclasses.fields(cls) if f.name in settings
    }


def parse_config(settings: dict) -> Tuple[SystemConfig, SweepSpec]:
    """Build the scenario and sweep objects from merged settings.

    Unset keys fall back to the library defaults; missing required values
    and unknown keys raise UsageError naming the offenders.
    """
    if "case" not in settings:
        raise UsageError("missing required setting: case")
    if "n_values" not in settings:
        raise UsageError("missing required setting: n (antenna counts)")
    given = _given(SweepSpec, {"beta_values": "cont", "modes": "hybrid", **settings})
    spec = SweepSpec(**{key: _parsed(key, value) for key, value in given.items()})
    try:
        config = SystemConfig(n_antennas=max(spec.n_values), **_given(SystemConfig, settings))
        # Every cell must fit the chain counts, including the smallest array.
        dataclasses.replace(config, n_antennas=min(spec.n_values))
    except ValueError as exc:
        raise UsageError(str(exc))
    return config, spec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config, spec = parse_config(settings)
    out = settings.get("out")
    if not out:
        raise UsageError("missing required setting: out (output CSV path)")
    try:
        _env_thread_cap()
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = run_sweep(spec, config)
    emit_csv(rows, out)
    if settings.get("dat"):
        emit_dat(rows, settings["dat"])
    log.info("wrote %d rows to %s", len(rows), out)
    return 0


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    sizes = _parsed("n_values", args.n_values)
    betas = _parsed("beta_values", args.beta_values)
    _check_lists(sizes, betas)
    if args.seeds < 1:
        raise UsageError("seeds must be positive")
    flags = {key: getattr(args, key) for key in _LEMMA_KEYS}
    # The lemmas measure one side; its chain count stands for both.
    flags["n_tx_chains"] = flags["n_rx_chains"]
    try:
        config = SystemConfig(
            n_antennas=min(sizes),
            **{key: value for key, value in flags.items() if value is not None},
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    rows = []
    for n in sizes:
        for seed in range(config.seed, config.seed + args.seeds):
            h = sample_small_scale(n, config.n_pairs, lemma_rng(seed, n))
            for beta in betas:
                rows.extend(
                    {**row, "N": n, "beta": beta, "seed": seed}
                    for row in diagnostics.lemma_checks(h, config.n_rx_chains, beta)
                )
    rows.sort(key=lambda r: (r["metric"], r["N"], _beta_key(r["beta"]), r["seed"]))
    emit_csv(rows, args.out, LEMMA_COLUMNS)
    log.info("wrote %d rows to %s", len(rows), args.out)
    return 0


def _add_setting(
    parser: argparse.ArgumentParser, key: str, flag: Optional[str] = None, **kwargs
) -> None:
    """The flag of a settings key: dest is the key, type the key's field type."""
    flag = flag or "--" + key.replace("_", "-")
    # metavar: what argparse would derive from the flag, not from dest.
    parser.add_argument(
        flag, dest=key, type=_flag_type(key), default=None,
        metavar=flag[2:].replace("-", "_").upper(), **kwargs,
    )


def _add_system_flags(
    parser: argparse.ArgumentParser, keys: Sequence[str] = _SYSTEM_KEYS, **helps: str
) -> None:
    for key in keys:
        _add_setting(parser, key, help=helps.get(key))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridrelay",
        description="Spectral-efficiency sweeps for a multipair massive-MIMO "
                    "relay with hybrid analog/digital processing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run a rate sweep and write a CSV table",
        description="Sweep antenna counts, phase resolutions and processing "
                    "modes under one power-scaling regime.  SIM_THREADS caps "
                    "the worker count; results do not depend on it.",
    )
    sim.add_argument("--config", default=None,
                     help="JSON settings file; explicit flags override it")
    _add_setting(sim, "case", help="power regime: 1|2|3|fixed")
    _add_setting(sim, "n_values", "--n",
                 help="comma-separated antenna counts, ascending")
    _add_setting(sim, "beta_values", "--beta",
                 help="comma-separated phase-shifter bits and/or 'cont'")
    _add_setting(sim, "modes",
                 help="comma-separated subset of hybrid,full,asym")
    _add_setting(sim, "trials")
    _add_setting(sim, "eu_db", help="user energy N*p_user in dB (scaled regimes)")
    _add_setting(sim, "er_db", help="relay energy N*p_relay in dB (scaled regimes)")
    _add_setting(sim, "pu_db", help="fixed user power in dB")
    _add_setting(sim, "pr_db", help="fixed relay power in dB")
    _add_setting(sim, "out", help="output CSV path")
    _add_setting(sim, "dat", help="optional whitespace-separated companion table")
    sim.add_argument("--fixed-drop", dest="drop_policy", action="store_const",
                     const="fixed_drop", default=None,
                     help="pin the benchmark user placement for all trials "
                          "(default: redraw the placement every trial)")
    _add_system_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser(
        "verify-lemmas",
        help="measure large-array identities of the analog stage",
        description="Writes per-seed deviations of F F^H from the identity "
                    "and of F H from its scaled identity limit.",
    )
    _add_setting(ver, "n_values", "--n", required=True,
                 help="comma-separated antenna counts, ascending")
    ver.add_argument("--seeds", type=int, default=50,
                     help="number of seeds per size (default 50)")
    _add_setting(ver, "beta_values", "--beta",
                 help="comma-separated bits and/or 'cont' (default cont)")
    _add_setting(ver, "out", required=True, help="output CSV path")
    _add_system_flags(ver, _LEMMA_KEYS,
                      seed="first seed of the family (default 0)")
    ver.set_defaults(func=_cmd_verify_lemmas, beta_values="cont")
    for command in (sim, ver):
        command.add_argument("-v", "--verbose", action="store_true",
                             help="also print INFO lines on stderr")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns 0 on success, 2 on usage errors, 1 on failures.

    The package's log lines go to stderr for the length of the call:
    warnings always, INFO lines with -v.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    package_log = logging.getLogger("hybridrelay")
    level = package_log.level
    package_log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    package_log.addHandler(handler)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
