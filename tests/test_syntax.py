"""Every module of the package parses as the oldest Python it declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varbounds"

#: the lower bound of pyproject.toml's requires-python
OLDEST = (3, 10)


def test_oldest_is_the_declared_lower_bound():
    declared = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_the_oldest_declared_python(path):
    # syntax newer than OLDEST (such as except* or a PEP 695 type parameter)
    # is a SyntaxError here, also where only a newer interpreter is installed
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
