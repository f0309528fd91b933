"""The package imports the third-party modules that pyproject.toml declares,
and no others: no declared dependency goes unused, and none is missing (a
module such as scipy is declared by the change that first imports it)."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(package: Path) -> set:
    """The top-level name of every absolute import in the package's files,
    those inside functions too."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    # a requirement's name ends where its version, extras or markers begin
    declared = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}
    imported = _imported_modules(ROOT / "src" / "cfmetric")
    assert imported - set(sys.stdlib_module_names) - {"cfmetric"} == declared
