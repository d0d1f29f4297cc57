import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "stegoseal"


def referenced_names(path):
    """Every name that `path` reads: each ast.Name, each attribute of an
    ast.Attribute and each name a `from ... import` takes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_def_has_a_reader():
    """Each top-level function and class of the package is read somewhere
    in the package, the acceptance tests, the benchmark or the demos, or
    is a console script's entry point, so no entry point is left with
    only its own tests to call it."""
    readers = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
               *ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]
    read = set().union(*map(referenced_names, readers))
    read.update(re.findall(r'^\w+ = "[\w.]+:(\w+)"$', (ROOT / "pyproject.toml").read_text(),
                           re.MULTILINE))
    unread = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in read]
    assert unread == []
