"""Every function, class and method under `src/irsfleet/` is used by the
program itself: some code of the package loads it by name or attribute.
So is every dataclass field but the scenario's keys, by attribute. And
every name a package or test module imports is used, and the package
imports nothing outside the standard library but numpy.

A method or property counts as loaded only through an attribute load
(`x.name`); a function or class also through a bare name. The check is by
name, so it cannot tell two definitions of one name apart; it catches a
definition that nothing in the package reaches any more, such as a
wrapper whose callers all moved to another path.
"""

import ast
import sys
from dataclasses import fields
from pathlib import Path

from irsfleet.scenario import Scenario

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "irsfleet"

# Kept although no package code loads them, each with its reason.
ALLOWED = {
    "scenario.write_scenario": (
        "perfbench's wide-grid workload and the tests write scenario files with it"
    ),
    "harness.run_trial": (
        "the package's exported one-trial entry (`irsfleet.run_trial`), which the "
        "tests call; `run_plan` checks its inputs through the same one-trial "
        "`ExperimentConfig` but runs its trial on an engine, to reuse the layout"
    ),
    "planner.GainTensor.gains": (
        "perfbench's `_observe_tensor` and the tests read the dense view; ROADMAP "
        "item 16 deletes it once the benchmark is mended (item 1)"
    ),
}


def _definitions_and_loads() -> tuple[dict[str, tuple[str, bool]], set, set]:
    """Every definition as {module.qualified name: (bare name, whether it
    is a class member)}, and the names the package loads bare and as
    attributes."""
    definitions: dict[str, tuple[str, bool]] = {}
    bare: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        pending = [(tree, path.stem)]
        while pending:
            node, prefix = pending.pop()
            for child in ast.iter_child_nodes(node):
                qualified = prefix
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    qualified = f"{prefix}.{child.name}"
                    member = isinstance(node, ast.ClassDef)
                    definitions[qualified] = (child.name, member)
                pending.append((child, qualified))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return definitions, bare, attributes


def test_every_definition_is_loaded_by_the_package():
    definitions, bare, attributes = _definitions_and_loads()
    unloaded = sorted(
        qualified
        for qualified, (name, member) in definitions.items()
        if name not in attributes
        and (member or name not in bare)
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert [q for q in unloaded if q not in ALLOWED] == []
    # An allowance whose definition is gone or used again is stale.
    assert sorted(ALLOWED) == [q for q in unloaded if q in ALLOWED]


# Dataclass fields kept although no package code loads them, each with its
# reason.
FIELDS_ALLOWED = {
    "routing.TrajectoryPlan.routes": (
        "the acceptance tests re-validate each trial's solved routes with it"
    ),
}


def test_every_dataclass_field_is_loaded_by_the_package():
    # A field is a name annotated in a class body. The scenario sections'
    # fields are file keys; the key-reach test in `test_scenario.py`
    # requires each to move an output instead.
    sections = {f.type.__name__ for f in fields(Scenario)}
    attributes = _definitions_and_loads()[2]
    unloaded = [
        f"{path.stem}.{node.name}.{item.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name not in sections
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in attributes
    ]
    assert [q for q in unloaded if q not in FIELDS_ALLOWED] == []
    # An allowance whose field is gone or loaded again is stale.
    assert sorted(FIELDS_ALLOWED) == sorted(q for q in unloaded if q in FIELDS_ALLOWED)


def _scanned_modules() -> dict[str, Path]:
    """Every package and test module, by the name it is imported as."""
    modules = {path.stem: path for path in sorted(TESTS.glob("*.py"))}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "irsfleet" if path.stem == "__init__" else f"irsfleet.{path.stem}"
        modules[name] = path
    return modules


def _imports(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(bound name, source module, imported name) of every import in a
    module; a relative import resolves within the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                found.append((bound, alias.name, ""))
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = ".".join(filter(None, ("irsfleet", node.module)))
            for alias in node.names:
                found.append((alias.asname or alias.name, source, alias.name))
    return found


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return names


def test_every_exported_name_is_bound():
    # `test_every_import_is_used` counts an `__all__` listing as a use, so
    # an entry left behind by a deleted name would pass it unnoticed.
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stale += [
            f"{path.name}: {name}"
            for name in sorted(_exported(tree) - _top_level_names(tree))
        ]
    assert stale == []


def test_every_import_is_used():
    # An import is used when its module loads the name, lists it in
    # `__all__`, or another scanned module imports it from there (the
    # re-exports of `tests/bruteforce.py`).
    modules = _scanned_modules()
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
    imports = {name: _imports(tree) for name, tree in trees.items()}
    imported_from = {
        (source, original)
        for found in imports.values()
        for _, source, original in found
    }
    unused = []
    for name, tree in trees.items():
        used = _exported(tree) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{modules[name].relative_to(TESTS.parent)}: {bound}"
            for bound, _, _ in imports[name]
            if bound not in used and (name, bound) not in imported_from
        ]
    assert unused == []


# Underscore names of one package module that another may still take,
# each with its reason.
PRIVATE_ALLOWED: dict[str, str] = {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_takes_another_modules_private_names():
    # A module that imports (`from .x import _name`) or reads (`x._name`)
    # an underscore name of another package module depends on what that
    # module keeps to itself.
    taken = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        package_modules = {}
        for bound, source, original in _imports(tree):
            if source == "irsfleet" and (PACKAGE / f"{original}.py").exists():
                package_modules[bound] = original
            elif source.startswith("irsfleet.") and _is_private(original):
                taken.add(f"{path.stem} -> {source[9:]}.{original}")
        taken.update(
            f"{path.stem} -> {package_modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in package_modules
            and _is_private(node.attr)
        )
    assert sorted(taken - set(PRIVATE_ALLOWED)) == []
    # An allowance no module takes any more is stale.
    assert sorted(set(PRIVATE_ALLOWED) - taken) == []


def test_the_runtime_imports_only_the_standard_library_and_numpy():
    # scipy, mpmath and hypothesis are test-only oracles.
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [
                f"{path.name}: {root}"
                for root in roots
                if root != "numpy" and root not in sys.stdlib_module_names
            ]
    assert outside == []
