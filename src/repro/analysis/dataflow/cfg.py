"""Per-function control-flow graphs over the ``ast`` module.

The contract rules (R007–R012) need more than single-node pattern
matching: "every path out of this solver charges the runtime" is a
property of the control-flow graph, not of any one statement.
:func:`build_cfg` lowers one ``ast.FunctionDef`` into a small
statement-level CFG:

* every simple statement becomes one node; compound statements (``if`` /
  ``while`` / ``for`` / ``with`` / ``try``) contribute a *header* node
  whose ``scan_exprs`` cover only the header expressions (test,
  iterable, context managers) — bodies get their own nodes, so scanning
  a node never accidentally sees code from a nested block;
* edges carry an optional *guard* describing what the branch condition
  established about a name: the else edge of ``if runtime is not None:``
  is guarded ``("is_none", "runtime")``.  The charge analysis uses the
  guards to model the engine's calling convention (a ``supports_runtime``
  solver is always handed a runtime, so ``is_none`` edges are off-limits
  when searching for uncharged paths);
* loops get a first-evaluation header and a re-evaluation header so the
  zero-trip exit is a distinguishable edge (``zero_trip=True``).
  Analyses that assume graph-sized loops execute at least once (an
  empty graph raises ``EmptyGraphError`` before any solver loop runs)
  simply refuse to traverse zero-trip edges;
* ``return`` edges flow to ``cfg.exit``; ``raise`` edges to
  ``cfg.raise_exit``.  Paths that raise never reach the engine's
  post-run contract check, so the two exits are kept apart.

The graph is deliberately coarse around ``try`` (one edge from the
header into every handler) — precise exception flow is not needed for
the cost-charging contracts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGEdge", "CFGNode", "branch_guards", "build_cfg"]

#: Guard kinds attached to branch edges.
GUARD_KINDS = ("is_none", "not_none", "truthy", "falsy")

Guard = tuple[str, str]


@dataclass
class CFGNode:
    """One CFG node: a statement, a loop header, or a synthetic exit."""

    index: int
    stmt: ast.stmt | None
    kind: str  # "entry" | "exit" | "raise_exit" | "stmt" | "loop"
    #: Expressions an analysis may scan when visiting this node.  For a
    #: compound statement this is only the header (test / iter / context
    #: managers); for a simple statement, the statement itself.
    scan_exprs: tuple[ast.AST, ...] = ()

    @property
    def lineno(self) -> int:
        """Source line of the underlying statement (0 for synthetic nodes)."""
        return getattr(self.stmt, "lineno", 0)


@dataclass(frozen=True)
class CFGEdge:
    """Directed edge ``src -> dst`` with an optional branch guard."""

    src: int
    dst: int
    guard: Guard | None = None
    zero_trip: bool = False


@dataclass
class CFG:
    """Statement-level control-flow graph of one function body."""

    nodes: list[CFGNode] = field(default_factory=list)
    edges: list[CFGEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._succ: dict[int, list[CFGEdge]] = {}
        self._pred: dict[int, list[CFGEdge]] = {}

    @property
    def entry(self) -> CFGNode:
        """The synthetic entry node (always node 0)."""
        return self.nodes[0]

    @property
    def exit(self) -> CFGNode:
        """The synthetic normal-exit node (returns and fallthrough)."""
        return self.nodes[1]

    @property
    def raise_exit(self) -> CFGNode:
        """The synthetic exceptional-exit node (``raise`` paths)."""
        return self.nodes[2]

    def add_node(
        self,
        stmt: ast.stmt | None,
        kind: str,
        scan_exprs: tuple[ast.AST, ...] = (),
    ) -> CFGNode:
        """Append a node and return it."""
        node = CFGNode(len(self.nodes), stmt, kind, scan_exprs)
        self.nodes.append(node)
        return node

    def add_edge(
        self,
        src: int,
        dst: int,
        guard: Guard | None = None,
        zero_trip: bool = False,
    ) -> None:
        """Append the edge ``src -> dst``."""
        edge = CFGEdge(src, dst, guard, zero_trip)
        self.edges.append(edge)
        self._succ.setdefault(src, []).append(edge)
        self._pred.setdefault(dst, []).append(edge)

    def successors(self, index: int) -> list[CFGEdge]:
        """Outgoing edges of node ``index``."""
        return self._succ.get(index, [])

    def predecessors(self, index: int) -> list[CFGEdge]:
        """Incoming edges of node ``index``."""
        return self._pred.get(index, [])

    def reachable(
        self,
        start: int,
        *,
        blocked_nodes: frozenset[int] | set[int] = frozenset(),
        forbidden_guards: frozenset[Guard] | set[Guard] = frozenset(),
        allow_zero_trip: bool = True,
        backward: bool = False,
    ) -> set[int]:
        """Nodes reachable from ``start`` under the given restrictions.

        ``blocked_nodes`` may be entered but never traversed *through*
        (they terminate the walk — the start node itself is exempt);
        edges whose guard is forbidden, or that are zero-trip when
        ``allow_zero_trip`` is false, are never taken.  ``backward=True``
        walks predecessor edges instead.
        """
        seen = {start}
        stack = [start]
        while stack:
            index = stack.pop()
            if index != start and index in blocked_nodes:
                continue
            edges = self.predecessors(index) if backward else self.successors(index)
            for edge in edges:
                if edge.guard is not None and edge.guard in forbidden_guards:
                    continue
                if edge.zero_trip and not allow_zero_trip:
                    continue
                nxt = edge.src if backward else edge.dst
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def branch_guards(test: ast.expr) -> tuple[Guard | None, Guard | None]:
    """Return ``(then_guard, else_guard)`` established by ``test``.

    Recognises the None-test shapes the codebase uses around optional
    runtimes — ``x is None`` / ``x is not None`` / ``x`` / ``not x`` —
    and returns ``(None, None)`` for anything else.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        then_guard, else_guard = branch_guards(test.operand)
        return else_guard, then_guard
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        name = test.left.id
        if isinstance(test.ops[0], ast.Is):
            return ("is_none", name), ("not_none", name)
        if isinstance(test.ops[0], ast.IsNot):
            return ("not_none", name), ("is_none", name)
    if isinstance(test, ast.Name):
        return ("truthy", test.id), ("falsy", test.id)
    return None, None


def _is_const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and test.value is True


#: A dangling edge awaiting its destination: (src index, guard, zero_trip).
_Frontier = list[tuple[int, Guard | None, bool]]


class _Builder:
    """Single-use lowering of one function body into a :class:`CFG`."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self.cfg.add_node(None, "entry")
        self.cfg.add_node(None, "exit")
        self.cfg.add_node(None, "raise_exit")
        # Stacks for break/continue resolution: each entry is the list of
        # dangling break edges / the re-evaluation header index.
        self._break_stack: list[_Frontier] = []
        self._continue_stack: list[int] = []

    def build(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        frontier = self._emit_block(func.body, [(self.cfg.entry.index, None, False)])
        self._connect(frontier, self.cfg.exit.index)
        return self.cfg

    # ------------------------------------------------------------------
    def _connect(self, frontier: _Frontier, dst: int) -> None:
        for src, guard, zero_trip in frontier:
            self.cfg.add_edge(src, dst, guard, zero_trip)

    def _emit_block(self, stmts: list[ast.stmt], frontier: _Frontier) -> _Frontier:
        for stmt in stmts:
            frontier = self._emit_stmt(stmt, frontier)
            if not frontier:  # every path returned/raised/jumped
                break
        return frontier

    def _emit_stmt(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._emit_with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt, frontier)
        return self._emit_simple(stmt, frontier)

    def _emit_simple(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        node = self.cfg.add_node(stmt, "stmt", (stmt,))
        self._connect(frontier, node.index)
        if isinstance(stmt, ast.Return):
            self.cfg.add_edge(node.index, self.cfg.exit.index)
            return []
        if isinstance(stmt, ast.Raise):
            self.cfg.add_edge(node.index, self.cfg.raise_exit.index)
            return []
        if isinstance(stmt, ast.Break):
            if self._break_stack:
                self._break_stack[-1].append((node.index, None, False))
            return []
        if isinstance(stmt, ast.Continue):
            if self._continue_stack:
                self.cfg.add_edge(node.index, self._continue_stack[-1])
            return []
        return [(node.index, None, False)]

    def _emit_if(self, stmt: ast.If, frontier: _Frontier) -> _Frontier:
        node = self.cfg.add_node(stmt, "stmt", (stmt.test,))
        self._connect(frontier, node.index)
        then_guard, else_guard = branch_guards(stmt.test)
        out = self._emit_block(stmt.body, [(node.index, then_guard, False)])
        if stmt.orelse:
            out += self._emit_block(stmt.orelse, [(node.index, else_guard, False)])
        else:
            out += [(node.index, else_guard, False)]
        return out

    def _emit_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, frontier: _Frontier
    ) -> _Frontier:
        if isinstance(stmt, ast.While):
            scan: tuple[ast.AST, ...] = (stmt.test,)
            infinite = _is_const_true(stmt.test)
            then_guard, else_guard = branch_guards(stmt.test)
        else:
            scan = (stmt.iter,)
            infinite = False
            then_guard = else_guard = None
        first = self.cfg.add_node(stmt, "loop", scan)
        again = self.cfg.add_node(stmt, "loop", scan)
        self._connect(frontier, first.index)

        self._break_stack.append([])
        self._continue_stack.append(again.index)
        body = self._emit_block(stmt.body, [(first.index, then_guard, False)])
        self._connect(body, again.index)
        self.cfg.add_edge(again.index, first.index, then_guard)
        breaks = self._break_stack.pop()
        self._continue_stack.pop()

        out: _Frontier = list(breaks)
        if not infinite:
            # Zero-trip exit from the first evaluation; normal exit from
            # any re-evaluation.
            out.append((first.index, else_guard, True))
            out.append((again.index, else_guard, False))
        if stmt.orelse:
            out = self._emit_block(stmt.orelse, out) + list(breaks)
        return out

    def _emit_with(self, stmt: ast.With | ast.AsyncWith, frontier: _Frontier) -> _Frontier:
        scan = tuple(item.context_expr for item in stmt.items)
        node = self.cfg.add_node(stmt, "stmt", scan)
        self._connect(frontier, node.index)
        return self._emit_block(stmt.body, [(node.index, None, False)])

    def _emit_try(self, stmt: ast.Try, frontier: _Frontier) -> _Frontier:
        node = self.cfg.add_node(stmt, "stmt", ())
        self._connect(frontier, node.index)
        body_out = self._emit_block(stmt.body, [(node.index, None, False)])
        if stmt.orelse:
            body_out = self._emit_block(stmt.orelse, body_out)
        out = list(body_out)
        for handler in stmt.handlers:
            # Coarse: the exception may occur anywhere in the body, so the
            # handler is entered straight from the try header.
            out += self._emit_block(handler.body, [(node.index, None, False)])
        if stmt.finalbody:
            out = self._emit_block(stmt.finalbody, out)
        return out


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the statement-level CFG of one function definition."""
    return _Builder().build(func)
