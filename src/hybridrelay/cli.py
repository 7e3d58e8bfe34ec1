"""Batch front-end: settings parsing, CSV/DAT output.

Flags and config files become the inputs of metrics.run_sweep (simulate)
and diagnostics.lemma_rows (verify-lemmas), whose rows are written in the
order returned.  The library raises ValueError for a bad setting before it
draws anything, and main maps that to exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import typing
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import SystemConfig
from .diagnostics import LEMMA_COLUMNS, lemma_rows
from .metrics import (
    CASES, CSV_COLUMNS, SWEEP_MODES, SweepSpec, render_beta, run_sweep,
)

log = logging.getLogger("hybridrelay.cli")

# The short spellings; every canonical name also stands for itself.
_CASE_ALIASES = {
    **dict(zip(CASES, CASES)),
    "1": "case1", "2": "case2", "3": "case3", "fixed": "fixed_power",
}
_MODE_ALIASES = {
    **dict(zip(SWEEP_MODES, SWEEP_MODES)), "full": "full_digital", "asym": "asymptote",
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


def _render_row(row: dict, columns: Sequence[str]) -> List[str]:
    return [
        render_beta(row[col]) if col == "beta" else _format_cell(row[col])
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
    raise ValueError(f"bad value for config key {key}: {json.dumps(value)}")


def _items(key: str, text: str) -> List[str]:
    """The comma-separated items of a list setting, stripped; none may be empty."""
    items = [tok.strip() for tok in text.split(",")]
    if not all(items):
        raise ValueError(f"{key} must not have an empty item, got {text!r}")
    return items


def _parse_int_list(text: str) -> Tuple[int, ...]:
    items = _items("n_values", text)
    try:
        return tuple(int(tok) for tok in items)
    except ValueError:
        raise ValueError("n_values must be a comma-separated list of integers")


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
                raise ValueError(f"bad beta value {tok!r}; use integers or 'cont'")
    return tuple(dict.fromkeys(out))


def _alias(aliases: dict, what: str, tok: str) -> str:
    name = aliases.get(tok.strip().lower())
    if name is None:
        raise ValueError(f"unknown {what} {tok!r}")
    return name


def _parse_modes(text: str) -> Tuple[str, ...]:
    return tuple(dict.fromkeys(
        _alias(_MODE_ALIASES, "mode", tok) for tok in _items("modes", text)
    ))


def _parse_case(value: str) -> str:
    return _alias(_CASE_ALIASES, "case", value)


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
            raise ValueError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(_KEY_HINTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
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
    and unknown keys raise ValueError naming the offenders.
    """
    if "case" not in settings:
        raise ValueError("missing required setting: case")
    if "n_values" not in settings:
        raise ValueError("missing required setting: n (antenna counts)")
    given = _given(SweepSpec, {"beta_values": "cont", "modes": "hybrid", **settings})
    spec = SweepSpec(**{key: _parsed(key, value) for key, value in given.items()})
    config = SystemConfig(n_antennas=max(spec.n_values), **_given(SystemConfig, settings))
    return config, spec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config, spec = parse_config(settings)
    out, dat = settings.get("out"), settings.get("dat")
    if not out:
        raise ValueError("missing required setting: out (output CSV path)")
    if dat and os.path.realpath(dat) == os.path.realpath(out):
        raise ValueError(f"dat and out name the same file: {out}")
    rows = run_sweep(spec, config)
    emit_csv(rows, out)
    if dat:
        emit_dat(rows, dat)
    log.info("wrote %d rows to %s", len(rows), out)
    return 0


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    flags = {key: getattr(args, key) for key in _LEMMA_KEYS}
    # The lemmas measure one side; its chain count stands for both.
    flags["n_tx_chains"] = flags["n_rx_chains"]
    rows = lemma_rows(
        _parsed("n_values", args.n_values), _parsed("beta_values", args.beta_values),
        args.seeds, **{key: value for key, value in flags.items() if value is not None},
    )
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
    for key in _SYSTEM_HINTS:
        _add_setting(sim, key)
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
    for key in _LEMMA_KEYS:
        _add_setting(ver, key, help="first seed of the family (default 0)"
                     if key == "seed" else None)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
