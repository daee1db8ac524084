"""Outside-in tracing of nilorb's layers.

The tracer wraps public functions of each ``nilorb`` module from outside
the package and patches the wrapper into every ``nilorb.*`` namespace that
holds the original, since ``cli``, ``centralizers`` and ``homotopy`` import
functions by name.  Function wrappers record a span; the two hottest
``Scalar`` methods only bump counters, because a span per scalar operation
would cost more than the operation.

A span is ``[name, start_ns, end_ns, parent, command]``, where ``parent``
is the index of the enclosing span (-1 at top level) and ``command`` the
index of the CLI command in the pass.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Module-level functions wrapped with a span, named "<module>.<function>".
SPANNED_FUNCTIONS = {
    "catalog": ("enumerate_orbits",),
    "triples": ("build_triple", "adapted_basis", "gram_matrix", "jordan_type"),
    "centralizers": ("centralizer_report", "centralizer_dim_triple",
                     "centralizer_dim_nilpotent"),
    "homotopy": ("sample_k_element", "embed_K", "k_element_defect",
                 "verify_K_membership", "compact_pair"),
    "matrices": ("inverse", "det", "rank", "congruence_signature"),
}

COMMAND_SPAN = "cli.main"

SPAN_NAMES = tuple(f"{module}.{fn}" for module, functions in SPANNED_FUNCTIONS.items()
                   for fn in functions) + (
    "matrices.matmul", "matrices.to_json", COMMAND_SPAN)


def _nonzeros(m) -> int:
    return sum(1 for row in m.rows() for x in row if any(x.components))


def _support(s) -> int:
    return sum(map(bool, s.components))


class Tracer:
    """Spans and counters for one process; install once, reset per pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.command = -1
        self._stack: List[int] = []
        # Scalar counters live in lists so the hot wrappers avoid dict lookups.
        self._mul = [0, 0]      # products, products with both supports <= 1
        self._is_zero = [0]
        self._patched: List[tuple] = []

    def reset(self) -> None:
        del self.spans[:]
        del self._stack[:]
        self.counts.clear()
        self._mul[:] = [0, 0]
        self._is_zero[0] = 0

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn: Callable,
                 on_return: Optional[Callable] = None) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now(), 0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = now()
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    def run_command(self, index: int, fn: Callable, *args):
        """Call ``fn`` under the top-level span of command ``index``."""
        self.command = index
        try:
            return self._spanned(COMMAND_SPAN, fn)(*args)
        finally:
            self.command = -1

    def _matmul(self, orig: Callable) -> Callable:
        counts, mul = self.counts, self._mul
        spanned = self._spanned("matrices.matmul", orig)

        @functools.wraps(orig)
        def __matmul__(a, b):
            counts["matrices.matmul.pairs"] += a.nrows * a.ncols * b.ncols
            counts["matrices.matmul.entries"] += (a.nrows * a.ncols
                                                  + b.nrows * b.ncols)
            counts["matrices.matmul.nonzeros"] += _nonzeros(a) + _nonzeros(b)
            before = mul[0]
            result = spanned(a, b)
            counts["matrices.matmul.products"] += mul[0] - before
            return result
        return __matmul__

    def _scalar_mul(self, orig: Callable, scalar_type: type) -> Callable:
        mul = self._mul

        @functools.wraps(orig)
        def __mul__(a, b):
            if isinstance(b, scalar_type):
                mul[0] += 1
                if _support(a) <= 1 and _support(b) <= 1:
                    mul[1] += 1
            return orig(a, b)
        return __mul__

    def _scalar_is_zero(self, orig: Callable) -> Callable:
        calls = self._is_zero

        @functools.wraps(orig)
        def is_zero(s):
            calls[0] += 1
            return orig(s)
        return is_zero

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every wrapper in; ``nilorb.cli`` must already be imported."""
        from nilorb.matrices import ExactMatrix
        from nilorb.scalars import Scalar

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "nilorb" or name.startswith("nilorb.")]
        for module, functions in SPANNED_FUNCTIONS.items():
            home = sys.modules[f"nilorb.{module}"]
            for fn_name in functions:
                orig = getattr(home, fn_name)
                on_return = None
                if fn_name == "enumerate_orbits":
                    on_return = self._count_orbits
                wrapper = self._spanned(f"{module}.{fn_name}", orig, on_return)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, attr, wrapper)
        self._patch(ExactMatrix, "__matmul__", self._matmul(ExactMatrix.__matmul__))
        self._patch(ExactMatrix, "to_json", self._spanned(
            "matrices.to_json", ExactMatrix.to_json))
        self._patch(Scalar, "__mul__", self._scalar_mul(Scalar.__mul__, Scalar))
        self._patch(Scalar, "is_zero", self._scalar_is_zero(Scalar.is_zero))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _count_orbits(self, records) -> None:
        self.counts["catalog.orbits"] += len(records)

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures of the spans and counters since the last reset.

        ``<name>.calls`` counts spans; ``<name>.s`` is the time inside spans
        of that name that are not nested in another span of the same name;
        ``<layer>.self_s`` sums, over the layer's spans, duration minus the
        time covered by child spans.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = out[f"{name}.s"] = 0
            out[f"{name.split('.')[0]}.self_s"] = 0.0
        for idx, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                out[f"{name}.s"] += (end - start) / 1e9
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] += (end - start - child_ns[idx]) / 1e9
        counts = self.counts
        out["catalog.orbits"] = counts["catalog.orbits"]
        out["scalars.mul.calls"] = self._mul[0]
        out["scalars.mul.sparse_operand_ratio"] = _ratio(self._mul[1], self._mul[0])
        out["scalars.is_zero.calls"] = self._is_zero[0]
        out["matrices.matmul.useful_ratio"] = _ratio(
            counts["matrices.matmul.products"], counts["matrices.matmul.pairs"])
        out["matrices.matmul.operand_density"] = _ratio(
            counts["matrices.matmul.nonzeros"], counts["matrices.matmul.entries"])
        return dict(out)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
