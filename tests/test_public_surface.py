"""Every public top-level function or class in ``lmmk`` has a caller.

A public name is reached when the library or the benchmarks refer to it
outside its own definition, when ``lmmk.__all__`` exports it, or when
``KEEP`` gives the reason it stays. A reference is a ``Name``, an
``Attribute``, an import alias or an identifier string (such as the keys
of the benchmark's ``WRAPPED`` table), so the check is by name only.
"""

import ast
from collections import Counter
from pathlib import Path

import lmmk

PACKAGE = Path(lmmk.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "benchmarks").glob("*.py"))

#: Public names no caller reaches yet, each with the reason it stays.
KEEP = {
    "metrics.throughput": "ROADMAP item 2 gives it a caller",
}


def _identifiers(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update((node.asname or node.name).split("."))
            if node.asname:
                found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += node.value.isidentifier()
    return found


def _surface():
    """Each public top-level definition in ``lmmk`` as ``module.name``,
    with the number of references to its name outside its own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    everywhere = sum(map(_identifiers, trees.values()), Counter())
    surface = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = _identifiers(node)[node.name]
                surface[f"{path.stem}.{node.name}"] = everywhere[node.name] - own
    return surface


def test_the_sources_are_found():
    assert {"cli.py", "sampler.py", "run.py", "tracing.py"} <= {path.name for path in SOURCES}


def test_every_public_name_has_a_caller():
    unreached = sorted(qualified for qualified, references in _surface().items()
                       if not references and qualified.split(".")[1] not in lmmk.__all__
                       and qualified not in KEEP)
    assert unreached == []


def test_every_kept_name_still_needs_keeping():
    surface = _surface()
    assert {name: surface.get(name) for name in KEEP} == {name: 0 for name in KEEP}
