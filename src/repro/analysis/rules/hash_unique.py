"""R016 — no hash-path ``np.unique``: dedup through the sort-based helpers.

On NumPy 2.x a plain ``np.unique(values)`` — one that requests none of
``return_index``, ``return_inverse`` or ``return_counts`` — goes
through a hash table and then sorts the distinct values it found.  On
1M int64 values that took 444-625 ms on a 2-vCPU host, against 13-19 ms
for one ``np.sort`` plus a neighbour-difference mask.
``np.unique(rows, axis=0)`` sorts structured rows and is slower still.
The ingestion, CSR-build and peeling hot paths dedup arrays that large,
so ``src/repro`` routes every such call through
:func:`repro.store.csr.sorted_unique` (flattened values) or
:func:`repro.store.csr.unique_pairs` (``(head, tail)`` rows).

Calls that request an index, inverse or counts already take NumPy's
sort path and are not flagged.  A flag passed as the literal ``False``
does not count as a request.  The rule is not path-scoped; the one
sanctioned call, the row fallback inside ``unique_pairs`` for vertex
counts whose combined key would overflow int64, carries an inline
``# repro-lint: disable=R016`` with its reason.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["HashUniqueRule"]

# Names the numpy module is commonly bound to.
_NUMPY_ALIASES = {"np", "numpy"}

# np.unique(ar, return_index, return_inverse, return_counts, ...):
# positional slots 1-3 and their keyword names select the sort path.
_SORT_PATH_FLAGS = ("return_index", "return_inverse", "return_counts")


def _requests(value: ast.expr) -> bool:
    """Whether a flag argument may be true (anything but literal False)."""
    return not (isinstance(value, ast.Constant) and value.value is False)


class HashUniqueRule(Rule):
    """R016: plain ``np.unique`` goes through ``sorted_unique``/``unique_pairs``."""

    rule_id = "R016"
    title = "no hash-path np.unique; dedup via sorted_unique/unique_pairs"
    severity = "error"
    fix_hint = (
        "use repro.store.csr.sorted_unique(values) for flattened values or "
        "repro.store.csr.unique_pairs(n, heads, tails) for edge rows; a plain "
        "np.unique hashes and then sorts, 20-50x one np.sort at 1M values"
    )

    def visit_Call(self, node: ast.Call) -> None:
        """Flag ``np.unique(...)`` calls that request no index/inverse/counts."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_ALIASES
        ):
            # ``**options`` (kw.arg None) may carry a flag: benefit of the doubt.
            flags = list(node.args[1:4]) + [
                kw.value
                for kw in node.keywords
                if kw.arg is None or kw.arg in _SORT_PATH_FLAGS
            ]
            if not any(_requests(flag) for flag in flags):
                self.report(
                    node,
                    f"`{func.value.id}.unique` without return_index/"
                    "return_inverse/return_counts takes NumPy's hash-table "
                    "path",
                )
        self.generic_visit(node)
