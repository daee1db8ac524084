"""Every public name under src/nilorb is used by the program or allowlisted.

No linter ships with the package, so this scan stands in for a dead-code
check.  It reads each module's syntax tree with the standard library and
lists every public (no leading underscore) top-level function or class,
and every public method of a top-level class.  Each must be referenced
by a ``src`` module, its own included, or by ``perfbench/``, where the
tracer's ``SPANNED_FUNCTIONS`` strings count too.  Otherwise it sits in
:data:`ALLOWED` with a one-line reason.

- A top-level name counts as referenced through a bare name or an
  attribute (``module.name``).  The package's ``__init__`` only
  re-exports names, so its imports do not count.
- A method counts as referenced only through an attribute (``.name``),
  so a local variable that shares its name does not hide a dead method.

Module-level private functions (``_name``) are scanned too: each must be
referenced by some ``src`` module other than ``__init__``, so a helper
that loses its last caller is flagged.  They have no allowlist.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nilorb"
TRACER = ROOT / "perfbench" / "tracer.py"

# Public names that no command reaches, each kept for a reason.
ALLOWED = {
    "diagrams.sign_matrix": "the tests' reference for a signed diagram's rows",
    "matrices.reduced_norm": ("the tests' reduced norm as a Scalar; characters "
                              "reads its numerators from _reduced_norm_nums"),
    "scalars.Scalar.complex_value": "the tests' constructor of Gaussian rationals",
    "scalars.Scalar.quaternion_value": "the tests' constructor of quaternions",
    "scalars.Scalar.scale": "the tests' reference for scaling by a rational",
    "scalars.Scalar.sign": "the tests' sign of a Scalar; the program calls real_sign",
}


def definitions(module: str, tree: ast.Module) -> list:
    """``(qualified name, is_method)`` of each public top-level definition
    and public method of a top-level class; names start with ``module``."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((f"{module}.{node.name}", False))
        if isinstance(node, ast.ClassDef):
            found += [(f"{module}.{node.name}.{item.name}", True)
                      for item in node.body if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return found


def references(tree: ast.AST) -> tuple:
    """``(bare names, attribute names)`` used anywhere in ``tree``, as sets."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def spanned_names(source: str) -> set:
    """The function names listed in the tracer's ``SPANNED_FUNCTIONS``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED_FUNCTIONS"
                for t in node.targets):
            return {fn for fns in ast.literal_eval(node.value).values() for fn in fns}
    raise AssertionError("no SPANNED_FUNCTIONS assignment in the tracer")


def unreferenced(sources: dict, users: dict, spanned: set) -> list:
    """The qualified public names of ``sources`` that nothing references.

    ``sources`` maps a module name to its text, ``users`` maps each other
    referencing file (the ``perfbench/`` files) to its text, and
    ``spanned`` holds the tracer's spanned function names.
    """
    trees = {m: ast.parse(s) for m, s in sources.items()}
    refs = [references(t) for m, t in trees.items() if m != "__init__"]
    refs += [references(ast.parse(s)) for s in users.values()]
    flagged = []
    for module, tree in trees.items():
        for qualname, is_method in definitions(module, tree):
            name = qualname.rsplit(".", 1)[1]
            if is_method:
                used = any(name in attrs for _, attrs in refs)
            else:
                used = name in spanned or any(name in names or name in attrs
                                              for names, attrs in refs)
            if not used:
                flagged.append(qualname)
    return sorted(flagged)


def unreferenced_private(sources: dict) -> list:
    """The qualified module-level private functions (``_name``, not dunders)
    of ``sources`` that no module but ``__init__`` references."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    refs = [references(t) for m, t in trees.items() if m != "__init__"]
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and not any(node.name in names or node.name in attrs
                              for names, attrs in refs))


def _package_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def _perfbench_sources() -> dict:
    return {str(p.relative_to(ROOT)): p.read_text()
            for p in sorted((ROOT / "perfbench").rglob("*.py"))}


def test_scan_flags_dead_names_and_accepts_used_ones():
    sources = {
        "__init__": "from .a import only_exported\n",
        "a": (
            "def used_elsewhere():\n    pass\n"
            "def only_exported():\n    pass\n"
            "def spanned():\n    pass\n"
            "class Box:\n"
            "    def read(self):\n        return self.size()\n"
            "    def size(self):\n        return 1\n"
            "    def entry(self):\n        return 0\n"
            "    def _private(self):\n        return 0\n"
            "def _helper():\n    pass\n"
        ),
        "b": (
            "from .a import Box, used_elsewhere\n"
            "entry = 3\n"
            "def _f(box):\n    used_elsewhere()\n"
            "    return isinstance(box, Box), box.read(), entry\n"
        ),
    }
    assert unreferenced(sources, {}, {"spanned"}) == ["a.Box.entry", "a.only_exported"]
    assert unreferenced(sources, {"bench.py": "x.entry()\nonly_exported()\n"},
                        {"spanned"}) == []


def test_private_scan_flags_a_helper_that_lost_its_last_caller():
    sources = {
        "__init__": "from .a import _exported\n",
        "a": (
            "def _called():\n    pass\n"
            "def _read_by_attribute():\n    pass\n"
            "def _exported():\n    pass\n"
            "def _dead():\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "class Box:\n    def _method(self):\n        pass\n"
        ),
        "b": (
            "from . import a\nfrom .a import _called\n"
            "def _f():\n    return _called(), a._read_by_attribute\n"
            "x = _f\n"
        ),
    }
    assert unreferenced_private(sources) == ["a._dead", "a._exported"]


def test_every_private_function_is_referenced():
    assert unreferenced_private(_package_sources()) == []


def _flagged() -> list:
    return unreferenced(_package_sources(), _perfbench_sources(),
                        spanned_names(TRACER.read_text()))


def test_every_public_name_is_referenced_or_allowed():
    assert [q for q in _flagged() if q not in ALLOWED] == []


def test_every_allowed_name_is_still_unreferenced():
    assert sorted(set(ALLOWED) - set(_flagged())) == []


@pytest.mark.parametrize("qualname", sorted(ALLOWED))
def test_every_allowed_name_is_called_by_a_test(qualname):
    call = qualname.rsplit(".", 1)[1] + "("
    here = Path(__file__).resolve()
    assert any(call in p.read_text() for p in here.parent.glob("test_*.py") if p != here)


def test_every_exported_name_is_a_package_attribute():
    import nilorb

    assert len(set(nilorb.__all__)) == len(nilorb.__all__)
    assert [name for name in nilorb.__all__ if not hasattr(nilorb, name)] == []


def test_star_import_binds_exactly_the_exports():
    import nilorb

    namespace: dict = {}
    exec("from nilorb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nilorb.__all__)
