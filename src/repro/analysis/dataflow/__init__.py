"""Dataflow layer under the contract rules (R007–R012).

Three pieces, each usable on its own:

* :mod:`~repro.analysis.dataflow.cfg` — per-function statement-level
  control-flow graphs with guard-annotated edges and distinguishable
  zero-trip loop exits;
* :mod:`~repro.analysis.dataflow.reaching` — a forward reaching-tags
  may-analysis over the CFG (pluggable classifier: scratch taint,
  runtime origins, graph-sized values);
* :mod:`~repro.analysis.dataflow.index` — the interprocedural
  :class:`~repro.analysis.dataflow.index.ProjectIndex`:
  ``@register_solver`` keyword literals and fixed-point charge /
  sanitize closures over the call graph.
"""

from .cfg import CFG, CFGEdge, CFGNode, branch_guards, build_cfg
from .index import (
    CHARGE_METHODS,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    SolverRegistration,
    runtime_locals,
)
from .reaching import TagEnv, analyze_tags, env_at

__all__ = [
    "CFG",
    "CFGEdge",
    "CFGNode",
    "CHARGE_METHODS",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "SolverRegistration",
    "TagEnv",
    "analyze_tags",
    "branch_guards",
    "build_cfg",
    "env_at",
    "runtime_locals",
]
