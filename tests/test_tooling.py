"""Project rules checked on the sources: the test configuration reports
every test, even after a failing property test, every root export and
every public definition has a user, and no source line is too long."""

import ast
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import minesolve

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minesolve"

FAILING_PROPERTY_THEN_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    assert True
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # the hypothesis plugin's report hook raises a DeprecationWarning when
    # a @given test fails; the project's warning filters must let the
    # session go on to the next test
    path = tmp_path / "test_sample.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout[-2000:]
    assert done.returncode == 1


class _References(ast.NodeVisitor):
    """Every name a module reads, as a bare name or an attribute, outside
    the definition of that same name."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node) -> None:
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node: ast.Name) -> None:
        if node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr not in self._inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def readme_library_code() -> list[str]:
    """The Python blocks of README's Library section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def user_references() -> set[str]:
    """Every name read by the package itself (outside __init__.py), by
    the benchmark, or by README's Library examples."""
    refs = _References()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    for path in sources:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    for block in readme_library_code():
        refs.visit(ast.parse(block))
    return refs.names


def test_every_root_export_is_used():
    # names only the tests use are imported from their modules instead
    names = user_references()
    unused = [name for name in minesolve.__all__
              if not isinstance(getattr(minesolve, name), ModuleType)
              and name not in names]
    assert unused == []


def public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and the public methods of
    those classes, as dotted names."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, defs) and not item.name.startswith("_")]
    return out


def test_every_public_function_has_a_caller():
    # code that only the tests call is a hook for a test: the tests read
    # the data it would wrap instead. oracle.py is exempt, as it is the
    # tests' brute-force reference for the solver's posteriors
    names = user_references()
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "oracle.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        uncalled += [f"{path.stem}.{name}" for name in public_definitions(tree)
                     if name.rsplit(".", 1)[-1] not in names]
    assert uncalled == []


MAX_LINE = 99


def test_no_source_line_is_too_long():
    long_lines = [
        f"{path.relative_to(ROOT)}:{n}: {len(line)}"
        for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
