"""pyproject allows Python 3.10: every module, benchmark script and test
must parse as 3.10 source."""

import ast
from pathlib import Path

import pytest

import lmmk

MODULES = sorted(Path(lmmk.__file__).parent.glob("*.py"))
ROOT = Path(lmmk.__file__).parents[2]
SCRIPTS = sorted(ROOT.glob("benchmarks/*.py")) + sorted(ROOT.glob("tests/*.py"))
SOURCES = MODULES + SCRIPTS
IDS = [path.name for path in MODULES] + [path.relative_to(ROOT).as_posix() for path in SCRIPTS]


def test_every_module_is_found():
    assert {"recorder.py", "trace_io.py", "cli.py"} <= {path.name for path in MODULES}
    assert {"benchmarks/run.py", "tests/test_syntax.py", "tests/conftest.py"} <= set(IDS)


@pytest.mark.parametrize("path", SOURCES, ids=IDS)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
    "type Rows = list[int]\n",
], ids=["except-star", "pep-695-generic", "type-alias"])
def test_newer_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
