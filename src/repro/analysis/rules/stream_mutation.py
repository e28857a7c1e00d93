"""R015 — DynamicKStarCore internals mutate only inside the stream stack.

:class:`~repro.core.dynamic.DynamicKStarCore` maintains one invariant
that everything above it depends on: between refreshes, its ``_h``
array *is* the core-number fixed point of the edge set held as the
base keys ``_edge_keys`` (with the ``_edge_count`` counter), as patched
by the adjacency overlay (``_ov_add``/``_ov_del``) and the pending
net-op log (``_pending``).  Code that pokes any of those fields
directly — inserting into ``_edge_keys`` without logging a pending op,
overwriting a slice of ``_h``, clearing the overlay — silently breaks
the fixed-point invariant, and every later ``k_star()`` /
``core_numbers()`` / ``densest_subgraph()`` answer is wrong with no
error raised.

The rule is path-scoped like R014: files under ``repro/core/`` (the
maintainer itself) and ``repro/stream/`` (the session layer that is
allowed to reach around the public API) are exempt; everywhere else any
*mutation* of an attribute with one of the maintainer's internal names
is flagged — assignment or augmented assignment (subscripted or not)
and the standard container mutators (``.add``, ``.clear``, ``.pop``,
…).  Reads are fine (they cannot break the invariant) and the public
mutators (``insert_edge``/``delete_edge``/``insert_edges``) are the
sanctioned path.  Deliberate surgery in tests carries an inline
``# repro-lint: disable=R015`` with a justification.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["StreamMutationRule"]

#: The maintainer's invariant-bearing fields (see repro/core/dynamic.py).
_INTERNALS = {
    "_edge_keys",
    "_edge_count",
    "_h",
    "_ov_add",
    "_ov_del",
    "_overlay_edges",
    "_pending",
    "_base_graph",
    "_dirty",
}

#: Method names that mutate a container in place.
_MUTATORS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "fill",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}

_EXEMPT_PATHS = ("repro/core/", "repro/stream/")


def _internal_attribute(node: ast.expr) -> str | None:
    """The internal field name a (possibly subscripted) target touches."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _INTERNALS:
        return node.attr
    return None


class StreamMutationRule(Rule):
    """R015: DynamicKStarCore internals mutate only in core/ and stream/."""

    rule_id = "R015"
    title = "dynamic-core internals are mutated only by repro.core/repro.stream"
    severity = "error"
    fix_hint = (
        "go through the public mutators (insert_edge/delete_edge, "
        "insert_edges) or repro.stream.StreamSession; direct "
        "writes to _edge_keys/_edge_count/_h/overlay state desynchronize the "
        "maintained core numbers from the edge set"
    )

    def _in_scope(self) -> bool:
        return not any(
            fragment in self.context.posix_path for fragment in _EXEMPT_PATHS
        )

    def _flag(self, node: ast.AST, attr: str, how: str) -> None:
        self.report(
            node,
            f"direct {how} of DynamicKStarCore internal `{attr}` outside "
            "repro/core/ and repro/stream/ breaks the maintained "
            "fixed-point invariant",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Flag plain/subscripted assignment onto an internal field."""
        if self._in_scope():
            for target in node.targets:
                attr = _internal_attribute(target)
                if attr is not None:
                    self._flag(node, attr, "assignment")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag augmented assignment onto an internal field."""
        if self._in_scope():
            attr = _internal_attribute(node.target)
            if attr is not None:
                self._flag(node, attr, "augmented assignment")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        """Flag in-place container mutators called on an internal field."""
        if self._in_scope():
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                attr = _internal_attribute(func.value)
                if attr is not None:
                    self._flag(node, attr, f"`.{func.attr}()` mutation")
        self.generic_visit(node)
