"""The package's public names and module boundaries: a name is added or
dropped on purpose, the command-line front end uses only public names, and
the benchmark calls only public names, with parameters they take."""

import ast
import importlib
import inspect
import math
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import hybridrelay
import hybridrelay.cli
from hybridrelay.metrics import _REGIMES

PACKAGE_DIR = Path(hybridrelay.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# SweepSpec and run_sweep are the one sweep over array sizes, which the
# simulate command runs.
PUBLIC = [
    "AsymptoticInputs",
    "ChannelRealization",
    "DegenerateChannelError",
    "QuantizationSpec",
    "RatePoint",
    "SweepSpec",
    "SystemConfig",
    "build_analog",
    "canonical_drop",
    "lemma_rng",
    "monte_carlo_rate",
    "monte_carlo_rates",
    "quantize_phase",
    "rate_case1",
    "rate_case2",
    "rate_case3",
    "run_sweep",
    "sample_large_scale",
    "sample_realization",
    "sample_small_scale",
    "sinc_penalty",
    "sinr_case1",
    "sinrs",
    "trial_rng",
]


def test_public_names_are_pinned():
    assert sorted(hybridrelay.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hybridrelay, name), name


def program_calls(tree):
    """(attribute path, Call node or None) of each `program.a.b` in tree."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        names, inner = [], node
        while isinstance(inner, ast.Attribute):
            names.insert(0, inner.attr)
            inner = inner.value
        if names and isinstance(inner, ast.Name) and inner.id == "program":
            yield names, calls.get(id(node))


def test_benchmark_uses_public_names_with_their_signatures():
    # The benchmark loads the package as `program` and calls it by name, so
    # a dropped name or parameter would fail every benchmark run instead.
    problems, seen = [], set()
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for names, call in program_calls(tree):
            where = f"{path.name}: program.{'.'.join(names)}"
            if names[0] not in hybridrelay.__all__ and names[0] != "cli":
                problems.append(f"{where} is not public")
                continue
            target = hybridrelay
            for name in names:
                target = getattr(target, name, None)
            if target is None:
                problems.append(f"{where} does not exist")
                continue
            seen.add(".".join(names))
            if call is not None:
                try:
                    inspect.signature(target).bind(
                        *call.args, **{k.arg: None for k in call.keywords})
                except TypeError as exc:
                    problems.append(f"{where}(...): {exc}")
    assert problems == []
    assert {"SystemConfig", "monte_carlo_rate", "cli.main"} <= seen


@pytest.fixture
def bench_checks(monkeypatch):
    """perfbench/checks.py, imported from its directory without writing bytecode there."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    names = ("checks", "oracle", "workloads")
    assert not any(name in sys.modules for name in names)
    yield importlib.import_module("checks")
    for name in names:
        sys.modules.pop(name, None)


def test_benchmark_check_passes_on_a_sweep(bench_checks, tmp_path):
    # Every sweep run's check calls monte_carlo_rate, SystemConfig with
    # quant_bits, canonical_drop, rate_case2 and AsymptoticInputs, so a
    # renamed one fails here, not only in the benchmark.  Seed 3 is not the
    # reference seed, so the check reads the program, not the stored table.
    workload = importlib.import_module("workloads").WORKLOADS["sweep-small-n"]
    out = tmp_path / "rates.csv"
    assert hybridrelay.cli.main(workload.argv(3, str(out))) == 0
    text = out.read_text(encoding="utf-8")
    assert bench_checks.check(workload, 3, text, hybridrelay, 0) == (0, [])


def package_imports(tree):
    """(module, names) of each import from the package; module None for
    `from . import a, b`, whose names are modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "hybridrelay"
        ):
            module = (node.module or "").removeprefix("hybridrelay").strip(".")
            yield module or None, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hybridrelay."):
                    yield alias.name.split(".")[1], []


def test_cli_uses_no_private_name():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    private, modules = [], set()
    for module, names in package_imports(tree):
        private += [name for name in names if name.startswith("_")]
        if module is None:
            modules.update(names)
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []


def test_module_imports_are_acyclic():
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set()
        for module, names in package_imports(tree):
            if module is None:
                graph[name].update(n if n in modules else "__init__" for n in names)
            else:
                graph[name].add(module.split(".")[0])

    def reachable(start):
        seen, todo = set(), [start]
        while todo:
            for nxt in graph[todo.pop()] - seen:
                seen.add(nxt)
                todo.append(nxt)
        return seen

    assert [name for name in sorted(modules) if name in reachable(name)] == []


def test_public_functions_take_no_var_keywords():
    # An entry takes only the settings it reads; a ** parameter would accept
    # any name, read or not.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        flagged += [
            f"{path.stem}.{node.name}" for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.args.kwarg is not None
        ]
    assert flagged == []


def test_every_import_is_used():
    # A name a module imports must be read in it; annotations count.
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unused == []


def complex_or_unknown(dtype):
    """Whether a dtype expression is complex or not a literal to be read."""
    try:
        return np.dtype(eval(ast.unparse(dtype), {"np": np, "numpy": np})).kind == "c"
    except (NameError, AttributeError, TypeError):
        return True


def test_only_channel_allocates_complex_arrays():
    # channel._fill_block sizes and returns the engine's channel stacks, so
    # their layout stays behind channel.  A dtype that is not a literal
    # cannot be told apart and is flagged too.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "channel":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("np.empty", "numpy.empty")):
                continue
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(map(complex_or_unknown, dtypes)):
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def test_only_hybrid_converts_arrays_to_complex():
    # hybrid.build_analog and hybrid._gram read their input as complex128,
    # so a channel's dtype never chooses the precision of an output.  A
    # dtype that is not a literal cannot be told apart and is flagged too.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "hybrid":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func).replace("numpy.", "np.")
            if func in ("np.asarray", "np.ascontiguousarray", "np.array"):
                at = 1  # the dtype follows the array
            elif getattr(node.func, "attr", None) == "astype":
                at = 0
            else:
                continue
            dtypes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(map(complex_or_unknown, dtypes)):
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def test_only_hybrid_computes_channel_phases():
    # hybrid._phase is the one channel angle, shared by every quantized
    # stage of a draw (hybrid._analog_stages); an angle computed elsewhere
    # would be computed again for each beta.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "hybrid":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("arctan2", "angle"):
                flagged.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and any(
                    a.name in ("arctan2", "angle") for a in node.names):
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def test_only_hybrid_and_diagnostics_form_products_over_n():
    # hybrid._dot and hybrid._gram are the products over the array
    # dimension N, which carry the GIL and large-slice rules.  The engine
    # reaches them only through hybrid._hop_grams, and the lemma table
    # through its two parts.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem in ("hybrid", "diagnostics"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in ("_dot", "_gram"):
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def test_only_the_kernel_forms_k_by_k_products():
    # The K x K products have fixed homes: @ in hybrid._dot (a stack of
    # products over N), hybrid._hop_grams and metrics._gram_sinrs, the one
    # kernel, whose full-digital branch is then the only place that knows a
    # hop without B; and einsum only in metrics._re_dot, its real dot product.
    homes = {
        "@": {("hybrid", "_dot"), ("hybrid", "_hop_grams"), ("metrics", "_gram_sinrs")},
        "einsum": {("metrics", "_re_dot")},
    }
    found = {key: set() for key in homes}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(getattr(node, "op", None), ast.MatMult):
                    found["@"].add(owner)
                elif getattr(node, "attr", getattr(node, "id", None)) == "einsum":
                    found["einsum"].add(owner)
    assert found == homes


def test_only_channel_builds_random_streams():
    # channel.py owns the RNG stream layout: every generator the package
    # draws from is built there, from (seed, purpose, index).
    constructors = {"SeedSequence", "default_rng", "PCG64", "Generator"}
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "channel":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in constructors:
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def test_only_metrics_imports_ctypes():
    # The allocator setting of the pool (metrics._keep_freed_memory) is the
    # package's one call into foreign code, so its policy has one owner.
    flagged = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "metrics":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "ctypes" for name in names):
                flagged.append(f"{path.name}:{node.lineno}")
    assert flagged == []


def real_settings():
    """(class, valid keywords, field) of every real setting a dataclass takes.

    The float and Optional[float] fields of SystemConfig and AsymptoticInputs,
    found from their type hints, and SweepSpec's dB keys, each in the first
    regime that reads it.
    """
    ones = np.ones(3)
    valid = {hybridrelay.SystemConfig: dict(n_antennas=16),
             hybridrelay.AsymptoticInputs: dict(eta1=ones, eta2=ones, r=3)}
    found = []
    for cls, base in valid.items():
        found += [(cls, base, field) for field, hint in typing.get_type_hints(cls).items()
                  if hint in (float, typing.Optional[float])]
    for field, hint in typing.get_type_hints(hybridrelay.SweepSpec).items():
        if hint == typing.Optional[float]:
            case, keys = next((c, k[:2]) for c, k in _REGIMES.items() if field in k)
            base = dict(case=case, n_values=(16,), **dict.fromkeys(keys, 13.0))
            found.append((hybridrelay.SweepSpec, base, field))
    return found


def test_real_settings_are_found():
    found = {f"{cls.__name__}.{field}" for cls, _, field in real_settings()}
    assert found >= {
        *(f"SystemConfig.{field}" for field in (
            "p_user", "p_relay", "var_relay_noise", "var_dest_noise", "cell_radius_m",
            "guard_radius_m", "pathloss_exp", "shadow_std_db")),
        *(f"AsymptoticInputs.{field}" for field in (
            "var_relay_noise", "var_dest_noise", "e_user", "e_relay", "delta")),
        *(f"SweepSpec.{key}" for key in ("eu_db", "er_db", "pu_db", "pr_db")),
    }


@pytest.mark.parametrize("value", [True, "1", math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("cls,base,field", [
    pytest.param(*setting, id=f"{setting[0].__name__}.{setting[2]}")
    for setting in real_settings()
])
def test_every_real_setting_follows_one_rule(cls, base, field, value):
    # hybrid._check_real is the one rule: a bad value gets ValueError naming
    # the field and showing the value, never a TypeError, and a bool is no
    # number.  A new real field is found from its type hint.
    with pytest.raises(ValueError) as error:
        cls(**{**base, field: value})
    message = str(error.value)
    assert message.startswith(f"{field} must be a finite number")
    assert message.endswith(f", got {value!r}")
