"""The package's public names and module boundaries: a name is added or
dropped on purpose, and the command-line front end uses only public names."""

import ast
from pathlib import Path

import hybridrelay

PACKAGE_DIR = Path(hybridrelay.__file__).resolve().parent

# perfbench/checks.py calls AsymptoticInputs, SystemConfig, canonical_drop,
# monte_carlo_rate and rate_case2.  SweepSpec and run_sweep are the one
# sweep over array sizes, which the simulate command runs.
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
