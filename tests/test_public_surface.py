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

A parameter with a default, of a public function, a public method of a
public class or a public class's ``__init__``, is passed when some call in
the library or the benchmarks to a callable of that name (the class's, for
``__init__``) passes it by position, by keyword or through ``*``/``**``,
or when ``KEEP`` gives the reason it stays. A call that passes the function
itself followed by k arguments, as ``Ops.call(label, fn, *args)`` does,
counts as a call passing k positional arguments.
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


def _calls(tree: ast.AST):
    """Each call in ``tree`` as (callee name, positional arguments, keyword
    arguments), and each function passed with its arguments after it as a
    call of the function with those positional arguments."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, (ast.Name, ast.Attribute)):
            yield _name(node.func), node.args, node.keywords
        for i, arg in enumerate(node.args):
            if isinstance(arg, (ast.Name, ast.Attribute)):
                yield _name(arg), node.args[i + 1:], []


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _passes(args: list, keywords: list, position: int, name: str) -> bool:
    """Whether a call with these arguments passes the parameter named
    ``name`` at ``position`` (None for keyword-only)."""
    if any(keyword.arg in (name, None) for keyword in keywords):
        return True
    if position is None:
        return False
    return len(args) > position or any(isinstance(arg, ast.Starred)
                                       for arg in args[:position + 1])


def _defaulted(function: ast.FunctionDef, bound: bool):
    """A function's parameters with a default, as (name, position among the
    positional arguments a call passes, None if keyword-only)."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    first = len(positional) - len(arguments.defaults)
    for position, arg in enumerate(positional[first:], first - bound):
        yield arg.arg, position
    for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _callables(tree: ast.Module):
    """A module's public functions, public methods of public classes and
    public classes' ``__init__``, as (qualified name, the name a call uses,
    the definition, whether a call binds its first parameter)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield node.name, node.name, item, True
                elif not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, not static


def _parameter_surface():
    """Each defaulted parameter of a public callable in ``lmmk`` as
    ``module.callable.parameter``, with the number of calls that pass it."""
    trees = _trees()
    calls = [call for tree in trees.values() for call in _calls(tree)]
    surface = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, called_as, function, bound in _callables(tree):
            for name, position in _defaulted(function, bound):
                surface[f"{path.stem}.{qualified}.{name}"] = sum(
                    callee == called_as and _passes(args, keywords, position, name)
                    for callee, args, keywords in calls)
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


def test_every_defaulted_parameter_is_passed():
    unpassed = sorted(qualified for qualified, passes in _parameter_surface().items()
                      if not passes and qualified not in KEEP)
    assert unpassed == []


def test_the_parameter_rule_counts_each_way_of_passing():
    tree = ast.parse("f(1, 2)\ng(b=1)\nh(*xs)\nk(**kw)\nops.call('x', m, 1, 2)\n")
    calls = {callee: (args, keywords) for callee, args, keywords in _calls(tree)}
    assert _passes(*calls["f"], 1, "b") and not _passes(*calls["f"], 2, "c")
    assert _passes(*calls["g"], 1, "b") and not _passes(*calls["g"], None, "c")
    assert _passes(*calls["h"], 5, "z") and not _passes(*calls["h"], None, "z")
    assert _passes(*calls["k"], None, "z")
    assert _passes(*calls["m"], 1, "b") and not _passes(*calls["m"], 2, "c")


def test_every_kept_name_still_needs_keeping():
    surface = {**_surface(), **_member_surface(), **_parameter_surface()}
    assert {name: surface.get(name) for name in KEEP} == {name: 0 for name in KEEP}
