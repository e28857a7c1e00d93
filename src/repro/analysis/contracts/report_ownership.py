"""R012: ``RunReport`` is engine-owned — nobody else writes it.

Every solver result carries a ``report`` attached by
``repro.engine.runner`` (``RunReport.from_run``); the one helper that
rewrites it afterwards is ``repro.engine.report.stamp_report``, which
the engine's cache-hit path and the serve and stream layers call.  The
dataclass is frozen, so a direct field write raises at run time — but
only on the lines a test happens to execute, and dict-valued fields
(``breakdown``) mutate silently.  R012 makes the ownership boundary
static: any assignment whose target chain passes through a ``.report``
attribute — ``x.report = ...``, ``x.report.density = ...``,
``x.report.breakdown["k"] = ...`` — is flagged outside
``repro/engine/``.

Exemption: ``self.report = ...`` inside ``__init__``/``__post_init__``
stays legal everywhere, because carrier objects (e.g.
``ParforRaceError``) legitimately *hold* a report they were given; they
just must not rewrite its fields afterwards.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["ReportOwnershipRule"]

_ENGINE_FRAGMENT = "repro/engine/"
_CTOR_NAMES = frozenset({"__init__", "__post_init__"})


def _chain_report_attr(expr: ast.expr) -> ast.Attribute | None:
    """The ``.report`` attribute inside a target chain, if any."""
    node: ast.AST | None = expr
    while node is not None:
        if isinstance(node, ast.Attribute):
            if node.attr == "report":
                return node
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return None
    return None


class ReportOwnershipRule(Rule):
    """Flag RunReport writes outside ``repro.engine``."""

    rule_id = "R012"
    title = "RunReport written outside repro.engine"
    severity = "error"
    fix_hint = (
        "reports are produced by RunReport.from_run inside the engine and "
        "are read-only everywhere else; set a layer sub-record through "
        "repro.engine.report.stamp_report instead of mutating"
    )

    def __init__(self, context):
        super().__init__(context)
        self._function_stack: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Track the enclosing function for the constructor exemption."""
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _exempt(self, attr: ast.Attribute, direct_target: bool) -> bool:
        if _ENGINE_FRAGMENT in self.context.posix_path:
            return True
        return (
            direct_target
            and bool(self._function_stack)
            and self._function_stack[-1] in _CTOR_NAMES
            and isinstance(attr.value, ast.Name)
            and attr.value.id == "self"
        )

    def _check_target(self, target: ast.expr) -> None:
        attr = _chain_report_attr(target)
        if attr is None:
            return
        direct = target is attr
        if self._exempt(attr, direct_target=direct):
            return
        what = (
            "assigns a `.report`"
            if direct
            else "writes through a `.report` field"
        )
        self.report(
            target,
            f"{what} outside repro.engine — RunReport construction and "
            "updates are engine-owned",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        """Check plain assignments."""
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Check annotated assignments."""
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Check augmented assignments."""
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        """Check attribute deletions."""
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)
