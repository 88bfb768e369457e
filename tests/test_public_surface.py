"""Every public top-level function or class in ``lmmk`` has a caller, and
every public member of a public class has a reader.

A public name is reached when the library or the benchmarks refer to it
outside its own definition, when ``lmmk.__all__`` exports it, or when
``KEEP`` gives the reason it stays. A reference is a ``Name``, an
``Attribute``, an import alias or an identifier string (such as the keys
of the benchmark's ``WRAPPED`` table), so the check is by name only.

A public method, property or annotated field of a public class is read
when the library or the benchmarks load an attribute of its name, or hold
its name as an identifier string, outside its own definition, or when
``KEEP`` gives the reason it stays. Export in ``__all__`` exempts no member:
setting a field, by keyword or otherwise, is not reading it.
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
    "sim_engine.GroundTruth.decode_windows": "the README's library example calls it",
    **{f"metrics.ThroughputReport.{field}": "ROADMAP item 2 reads it, with metrics.throughput"
       for field in ("prefill_tokens_per_s", "decode_tokens_per_s",
                     "prefill_s_per_input_token", "decode_s_per_output_token")},
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


def _reads(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += node.value.isidentifier()
    return found


def _trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}


def _members(node: ast.ClassDef):
    """A class body's public methods, properties and annotated fields, as
    (name, the node that defines it)."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            name = item.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, item


def _member_surface():
    """Each public member of a public top-level class in ``lmmk`` as
    ``module.Class.member``, with the number of reads of its name outside
    its own definition."""
    trees = _trees()
    everywhere = sum(map(_reads, trees.values()), Counter())
    surface = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for name, item in _members(node):
                    own = _reads(item)[name]
                    surface[f"{path.stem}.{node.name}.{name}"] = everywhere[name] - own
    return surface


def _surface():
    """Each public top-level definition in ``lmmk`` as ``module.name``,
    with the number of references to its name outside its own body."""
    trees = _trees()
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


def test_every_public_member_is_read():
    unread = sorted(qualified for qualified, reads in _member_surface().items()
                    if not reads and qualified not in KEEP)
    assert unread == []


def test_every_kept_name_still_needs_keeping():
    surface = {**_surface(), **_member_surface()}
    assert {name: surface.get(name) for name in KEEP} == {name: 0 for name in KEEP}
