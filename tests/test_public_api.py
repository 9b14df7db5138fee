"""Every public function, class and method in ``src/seqc`` is part of the program.

A public top-level ``def`` or ``class`` of a module must be referenced
from the program itself: from another module of the package, from its
own module outside its definition, from the benchmark (``perfbench``,
where a name passed as a string counts, as ``spans.py`` passes them), or
from README's Python example.  Code that only tests call belongs in the
tests; ``__init__.py`` binds the submodules and nothing else.

A public method or property of a class (any class, private ones too) must
be read as an attribute, ``x.name``, somewhere in the package outside its
own definition, in the benchmark, or in README's example; a string equal
to its name in the benchmark counts too.  The match is by name alone: no
type is inferred, so any attribute of that name counts, except one read
off a module (``gf2.from_bits`` is a function, not a method).  Dunders
(``__mul__``, ``__divmod__``, ...) are out of its reach: operators and
protocols call them without naming them.
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


def _public_methods():
    for module in MODULES:
        tree = _parse(PACKAGE / f"{module}.py")
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield module, f"{cls.name}.{node.name}", node


def _module_names(tree):
    """Names a tree binds to modules: by ``import``, or imported from seqc itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "seqc"):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _attribute_names(tree, outside=None):
    """Names read as ``x.name`` in a tree, outside one definition, x not a module."""
    inside = set(map(id, ast.walk(outside))) if outside else set()
    modules = _module_names(tree)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in inside
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


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
    # every module but ``cli``, which ``python -m seqc.cli`` runs as __main__: bound by
    # the package, it would be imported a second time
    assert bound == set(MODULES) - {"cli"} | {"__version__"}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_reached(module):
    uses, strings = _program_uses()
    unused = [node.name for mod, node, tree in _public_definitions() if mod == module
              and (mod, node.name) not in uses and node.name not in strings
              and node.name not in _own_uses(tree, node)]
    assert not unused, f"seqc.{module}: nothing in the program uses {unused}"


@functools.cache
def _outside_attribute_names():
    """Attribute names from the benchmark and README, and the benchmark's strings."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        names |= _attribute_names(tree) | _strings(tree)
    for tree in _readme_trees():
        names |= _attribute_names(tree)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_reached(module):
    package = {mod: _parse(PACKAGE / f"{mod}.py") for mod in MODULES}
    unused = [name for mod, name, node in _public_methods() if mod == module
              and node.name not in _outside_attribute_names()
              and not any(node.name in _attribute_names(tree, node) for tree in package.values())]
    assert not unused, f"seqc.{module}: nothing in the program reads {unused}"
