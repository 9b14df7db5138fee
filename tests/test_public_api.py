"""Every public function and class in ``src/seqc`` is part of the program.

A public top-level ``def`` or ``class`` of a module must be referenced
from the program itself: from another module of the package, from its
own module outside its definition, from the benchmark (``perfbench``,
where a name passed as a string counts, as ``spans.py`` passes them), or
from README's Python example.  Code that only tests call belongs in the
tests; ``__init__.py`` binds the submodules and nothing else.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqc"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _qualified_uses(tree):
    """(module, name) for every ``module.name`` and ``from ...module import name``."""
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rsplit(".", 1)[-1]
            uses.update((module, alias.name) for alias in node.names)
    return uses


def _strings(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _own_uses(tree, definition):
    """Bare names used in a module outside one of its definitions."""
    inside = set(map(id, ast.walk(definition)))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in inside}


def _readme_trees():
    text = (ROOT / "README.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def _public_definitions():
    for module in MODULES:
        tree = _parse(PACKAGE / f"{module}.py")
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield module, node, tree


@functools.cache
def _program_uses():
    """Qualified uses from the package, the benchmark and README, and the benchmark's strings."""
    uses, strings = set(), set()
    for module in MODULES:
        uses |= _qualified_uses(_parse(PACKAGE / f"{module}.py"))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        uses |= _qualified_uses(tree)
        strings |= _strings(tree)
    for tree in _readme_trees():
        uses |= _qualified_uses(tree)
    return uses, strings


def test_init_binds_only_the_submodules():
    tree = _parse(PACKAGE / "__init__.py")
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module is None, ast.dump(node)
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets}
        else:
            assert isinstance(node, ast.Expr), ast.dump(node)  # the docstring
    assert bound == {"algebra", "autoseq", "contfrac", "expcomp", "gf2", "lincomp", "theory",
                     "__version__"}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_reached(module):
    uses, strings = _program_uses()
    unused = [node.name for mod, node, tree in _public_definitions() if mod == module
              and (mod, node.name) not in uses and node.name not in strings
              and node.name not in _own_uses(tree, node)]
    assert not unused, f"seqc.{module}: nothing in the program uses {unused}"
