"""Every function, class and method under `src/irsfleet/` is used by the
program itself: some code of the package loads it by name or attribute.

The check is by bare name, so it cannot tell two definitions of one name
apart; it catches a definition that nothing in the package reaches any
more, such as a wrapper whose callers all moved to another path.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "irsfleet"

# Kept although no package code loads them, each with its reason.
ALLOWED = {
    "scenario.write_scenario": (
        "perfbench's wide-grid workload and the tests write scenario files with it"
    ),
}


def _definitions_and_loads() -> tuple[dict[str, str], set[str]]:
    """Every definition as {module.qualified name: bare name}, and every
    name the package loads."""
    definitions: dict[str, str] = {}
    loads: set[str] = set()
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
                    definitions[qualified] = child.name
                pending.append((child, qualified))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    return definitions, loads


def test_every_definition_is_loaded_by_the_package():
    definitions, loads = _definitions_and_loads()
    unloaded = sorted(
        qualified
        for qualified, name in definitions.items()
        if name not in loads and not (name.startswith("__") and name.endswith("__"))
    )
    assert [q for q in unloaded if q not in ALLOWED] == []
    # An allowance whose definition is gone or used again is stale.
    assert sorted(ALLOWED) == [q for q in unloaded if q in ALLOWED]
