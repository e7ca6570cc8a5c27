"""The names that the benchmark harnesses reach in pairmem still resolve.

``perfbench/`` and ``statbench/bytes.py`` reach into the package by name.
A rename that misses them fails only inside a benchmark run, or leaves a
traced layer whose span silently reads 0.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pairmem.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# the AFC design spans whose owners moved (ROADMAP item 1 mends them)
UNREACHED_TARGETS = {("scenario", "design_afc"),
                     ("memory:AfcProfile", "response_arrays")}


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object a dotted name under pairmem reaches, importing
    submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def pairmem_names(tree: ast.AST) -> set[str]:
    """Dotted names of every pairmem import in ``tree``, and of every
    attribute read from a name such an import binds."""
    names, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "pairmem":
                    names.add(a.name)
                    bound[a.asname or "pairmem"] = a.name if a.asname else "pairmem"
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "pairmem"):
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def harness_names() -> set[str]:
    names = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "probe.py"):
        names |= pairmem_names(ast.parse(path.read_text()))
    # statbench runs its scripts and modules in fresh interpreters
    for node in ast.walk(ast.parse((ROOT / "statbench" / "bytes.py").read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"pairmem(\.\w+)*", node.value):
                names.add(node.value)
            elif "import pairmem" in node.value:
                names |= pairmem_names(ast.parse(node.value))
    return names


def test_harness_imports_resolve():
    names = harness_names()
    # the collector sees the names the harnesses are known to use
    assert {"pairmem.load_scenario", "pairmem.save_scenario",
            "pairmem.split_seed", "pairmem.cli.main", "pairmem.cli",
            "pairmem.scenario.single_mode_reference",
            "pairmem.montecarlo.split_seed"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def test_workload_captures_resolve():
    workloads = load(PERFBENCH / "workloads.py", "perfbench_workloads")
    captures = {w.capture for w in workloads.WORKLOADS.values()} - {None}
    assert captures
    assert all(callable(getattr(pairmem.cli, c, None)) for c in captures)


def test_traced_targets_resolve():
    tracing = load(PERFBENCH / "tracing.py", "perfbench_tracing")
    assert UNREACHED_TARGETS <= {(o, a) for o, a, *_ in tracing.TARGETS}
    missing = []
    for owner_path, attr, *_ in tracing.TARGETS:
        if (owner_path, attr) in UNREACHED_TARGETS:
            continue
        owner = tracing.resolve(owner_path)
        # the tracer wraps only what the owner itself holds
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
