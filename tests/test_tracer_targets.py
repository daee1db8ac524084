"""The names that the benchmark tracer wraps must exist in nilorb.

``perfbench/tracer.py`` wraps functions and methods by name, and a name
that is missing makes a traced run raise ``AttributeError``.  The tracer
is read as text here, never imported.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The methods Tracer.install patches, and ExactMatrix.rows, which its
# nonzero counter reads.
PATCHED_METHODS = {
    "matrices.ExactMatrix": ("__matmul__", "to_json", "rows"),
    "scalars.Scalar": ("__mul__", "is_zero"),
}


def _spanned_functions() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED_FUNCTIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED_FUNCTIONS assignment in {TRACER}")


def test_every_spanned_function_is_callable():
    spanned = _spanned_functions()
    assert spanned
    missing = [f"nilorb.{module}.{name}"
               for module, names in spanned.items() for name in names
               if not callable(getattr(importlib.import_module(f"nilorb.{module}"),
                                       name, None))]
    assert missing == []


def test_every_patched_method_exists():
    missing = []
    for owner, names in PATCHED_METHODS.items():
        module, cls = owner.rsplit(".", 1)
        klass = getattr(importlib.import_module(f"nilorb.{module}"), cls)
        missing += [f"{owner}.{name}" for name in names
                    if not callable(getattr(klass, name, None))]
    assert missing == []
