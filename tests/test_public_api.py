"""Every name the package exports has a user outside its own definition and the export list.

A name counts as used when it appears, as a whole word, in
- a module of ``src/ultrawave`` other than ``__init__.py``, on a line that
  is not the name's own ``def`` or ``class`` line;
- a file under ``scripts/`` or ``bench/``;
- ``README.md`` or ``tests/test_acceptance.py``.
An export that only its unit tests reach is dead library surface: delete it,
or tie it to a documented use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ultrawave"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def user_lines():
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    files += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    return [line for path in files for line in path.read_text(encoding="utf-8").splitlines()]


def is_used(name, lines):
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not definition.match(line) for line in lines)


def test_every_export_has_a_user():
    lines = user_lines()
    names = exported_names()
    assert len(names) > 50  # the export list was found
    assert [name for name in names if not is_used(name, lines)] == []


def test_the_guard_sees_a_definition_line_as_no_use():
    assert not is_used("helper", ["def helper(x):", "    class helper2:", "    return x"])
    assert not is_used("Helper", ["class Helper:", "HelperBase = 1"])
    assert is_used("helper", ["def helper(x):", "y = helper(1)"])
    assert is_used("helper", ["`helper` pairs two series"])
