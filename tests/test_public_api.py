"""Every name the package exports has a user outside its own definition and the export list.

A name counts as used when it appears as a whole word in
- the code of a module of ``src/ultrawave`` other than ``__init__.py``, of a
  file under ``scripts/`` or ``bench/``, or of ``tests/test_acceptance.py``:
  an identifier, an imported name, or a string constant that is not a
  docstring (``bench/layers.py`` names its hook targets in strings).  A
  ``def`` or ``class`` line, a docstring and a comment are no use;
- ``README.md``, anywhere.
An export that only its unit tests reach is dead library surface: delete it,
or tie it to a documented use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ultrawave"
WORD = re.compile(r"\w+")


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def code_words(source):
    """The identifiers, imported names and words of non-docstring string constants of ``source``."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words.update(WORD.findall(node.value))
    return words


def used_words():
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    files += [ROOT / "tests" / "test_acceptance.py"]
    words = set(WORD.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    for path in files:
        words |= code_words(path.read_text(encoding="utf-8"))
    return words


def test_every_export_has_a_user():
    words = used_words()
    names = exported_names()
    assert len(names) > 50  # the export list was found
    assert [name for name in names if name not in words] == []


def test_the_guard_counts_only_code():
    source = '''
"""helper_in_module_docstring"""
import pkg.imported_module
from pkg import imported_name


def helper_defined(x):
    """helper_in_function_docstring"""
    # helper_in_comment
    return helper_called(x).helper_attribute, "helper_in_string.helper_method", f"{x} helper_in_fstring"


class HelperClass:
    """helper_in_class_docstring"""
'''
    words = code_words(source)
    for used in ("imported_module", "imported_name", "helper_called", "helper_attribute", "helper_in_string",
                 "helper_method", "helper_in_fstring"):
        assert used in words
    for unused in ("helper_in_module_docstring", "helper_defined", "helper_in_function_docstring",
                   "helper_in_comment", "HelperClass", "helper_in_class_docstring"):
        assert unused not in words
