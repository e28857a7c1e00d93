"""R013 — kernel hot-path primitives go through the array-backend dispatch.

The :mod:`repro.kernels` package is a thin contract layer: the public
functions document the algorithms and delegate the heavy array work to
the active :class:`~repro.backends.base.ArrayBackend`, so that the
multiproc backend accelerates every caller at once.  A raw
``np.bincount`` / ``np.lexsort`` / sort-family call inside the package
silently reintroduces a single-threaded hot path the backend layer can
never see — the kernels keep *glue* numpy (shape casts, cumsums, range
arithmetic), but the dispatch-worthy primitives must come from
``get_backend()``.

The rule is path-scoped to ``repro/kernels/`` package files (tests and
the backend implementations themselves are fair game); reference
formulations kept for property tests carry an inline
``# repro-lint: disable=R013`` with a justification, exactly like the
``reference_segment_h_index`` lexsort.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["BackendDispatchRule"]

# Names the numpy module is commonly bound to.
_NUMPY_ALIASES = {"np", "numpy"}

# Dispatch-worthy primitives: the histogram / sort / selection family
# the backends implement (or deliberately route around).  Glue ops —
# asarray, arange, cumsum, repeat, diff, concatenate — stay fair game.
_DISPATCHED_FUNCS = {
    "argpartition",
    "argsort",
    "bincount",
    "count_nonzero",
    "lexsort",
    "partition",
    "searchsorted",
    "sort",
    "unique",
}

# Ufunc reduction methods: ``np.add.reduceat(...)`` and friends are the
# other way segment histograms get built behind the dispatch's back.
_UFUNC_REDUCTIONS = {"reduce", "reduceat", "accumulate"}


def _is_numpy_name(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in _NUMPY_ALIASES


class BackendDispatchRule(Rule):
    """R013: no direct numpy kernel primitives inside ``repro/kernels/``."""

    rule_id = "R013"
    title = "kernel primitives route through the array-backend dispatch"
    severity = "error"
    fix_hint = (
        "call the active backend (repro.backends.get_backend()) or move the "
        "raw numpy formulation into repro/backends/numpy_backend.py"
    )

    def _in_scope(self) -> bool:
        return "repro/kernels/" in self.context.posix_path

    def visit_Call(self, node: ast.Call) -> None:
        """Flag ``np.<primitive>(...)`` and ``np.<ufunc>.reduceat(...)``."""
        if self._in_scope() and isinstance(node.func, ast.Attribute):
            func = node.func
            if _is_numpy_name(func.value) and func.attr in _DISPATCHED_FUNCS:
                self.report(
                    node,
                    f"direct `np.{func.attr}` call in the kernels package "
                    "bypasses the array-backend dispatch",
                )
            elif (
                func.attr in _UFUNC_REDUCTIONS
                and isinstance(func.value, ast.Attribute)
                and _is_numpy_name(func.value.value)
            ):
                self.report(
                    node,
                    f"direct `np.{func.value.attr}.{func.attr}` call in the "
                    "kernels package bypasses the array-backend dispatch",
                )
        self.generic_visit(node)
