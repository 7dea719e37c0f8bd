"""Package-wide invariants checked on the source itself."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reblock"


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a tree refers to: loads, attributes, imports, strings."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _loads_in_src(module: str, tree: ast.Module) -> dict[str, set[str]]:
    """Names of package modules' top-level defs that ``module`` loads.

    Keyed by the defining module.  A load inside a def does not count for
    that def itself, so recursion is not a caller.
    """
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    out: dict[str, set[str]] = {}
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            home, name = imported.get(node.id, (module, node.id))
            if (home, name) != (module, own):
                out.setdefault(home, set()).add(name)
    return out


def _package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.AST) -> set[str]:
    """Names of the functions and classes a tree defines."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


# Public names that nothing in ``src/`` or the benchmark calls, kept on
# purpose: the paper's growth-ratio metric, the console entry point, and
# an argparse override that argparse calls.
UNCALLED_ALLOWED = {"metrics.growth_factors", "cli.main", "cli._Parser.error"}


def _perfbench_names() -> set[str]:
    """Every name the benchmark's modules refer to."""
    return set().union(
        *(_referenced(ast.parse(p.read_text())) for p in sorted((ROOT / "perfbench").glob("*.py")))
    )


def test_every_public_name_has_a_caller():
    """No public top-level function or class exists for its tests alone.

    Each must be loaded elsewhere in the package, be referred to by the
    benchmark, or be on ``UNCALLED_ALLOWED``.  Exporting a name through
    ``reblock.__all__`` or using it in a test does not count as a call.
    """
    trees = _package_trees()
    loaded: dict[str, set[str]] = {}
    for module, tree in trees.items():
        for home, names in _loads_in_src(module, tree).items():
            loaded.setdefault(home, set()).update(names)
    perfbench = _perfbench_names()

    uncalled = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in loaded.get(module, set()) | perfbench
        and f"{module}.{stmt.name}" not in UNCALLED_ALLOWED
    ]
    assert not uncalled, "public names nothing calls: " + ", ".join(uncalled)


def test_every_public_method_has_a_caller():
    """No public method exists for its tests alone.

    Each must be read as an attribute somewhere in the package, be
    referred to by the benchmark, or be on ``UNCALLED_ALLOWED``.  Dunders
    are exempt.
    """
    trees = _package_trees()
    used = _perfbench_names().union(
        *(
            {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            for tree in trees.values()
        )
    )
    uncalled = [
        f"{module}.{cls.name}.{stmt.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and stmt.name not in used
        and f"{module}.{cls.name}.{stmt.name}" not in UNCALLED_ALLOWED
    ]
    assert not uncalled, "public methods nothing calls: " + ", ".join(uncalled)


def test_perfbench_probes_resolve(monkeypatch):
    """Every function the benchmark's tracer swaps for a timed wrapper is
    still an attribute of the module it patches."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{probe.module.__name__}.{probe.attr}"
        for probe in tracing.PROBES
        if not callable(getattr(probe.module, probe.attr, None))
    ]
    assert tracing.PROBES and not missing, "unresolvable probes: " + ", ".join(missing)


def test_kernel_inputs_built_in_merge_alone():
    """The merge kernels' input format is built and read in one module:
    no module but ``merge`` refers to its packers."""
    trees = _package_trees()
    packers = {"mirror_layers", "class_contacts"}
    assert packers <= _defined(trees["merge"])
    outside = {
        module: sorted(packers & _referenced(tree))
        for module, tree in trees.items()
        if module != "merge" and packers & _referenced(tree)
    }
    assert not outside, f"merge input packers referred to outside merge.py: {outside}"


def test_no_cross_or_einsum_in_src():
    """Hot array code works on coordinate columns: no ``np.cross`` or
    ``np.einsum`` call, by attribute or by imported name, in the package."""
    banned = {"cross", "einsum"}
    found = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in banned:
                found.append(f"{module}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = [a.name for a in node.names if a.name in banned]
                found += [f"{module}:{node.lineno}: {name}" for name in names]
    assert not found, "np.cross / np.einsum in src: " + ", ".join(found)
