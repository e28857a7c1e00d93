"""Contract rules R007–R012: capability, cost, and cache-safety proofs.

Where :mod:`repro.analysis.rules` pattern-matches single AST nodes,
these rules consume the :mod:`repro.analysis.dataflow` layer — CFG path
searches, reaching-tag taint, and the interprocedural
:class:`~repro.analysis.dataflow.index.ProjectIndex` — to verify at
analysis time the contracts the engine and store otherwise only enforce
dynamically:

========  ==========================================================
R007      ``supports_runtime=True`` solver with an uncharged return
          path (static twin of the engine's post-run ``EngineError``)
R008      graph-sized Python loop with no SimRuntime charge
R010      frozen scratch/CSR buffer escaping into a mutating sink
R011      memoized result aliased without ``clone_result``
R012      ``RunReport`` written outside ``repro.engine``
========  ==========================================================
"""

from .cost_loops import UnchargedGraphLoopRule
from .memo_clone import MemoCloneRule
from .report_ownership import ReportOwnershipRule
from .runtime_charge import RuntimeChargeRule
from .scratch_escape import ScratchEscapeRule

#: The contract family, in rule-id order.
CONTRACT_RULES = (
    RuntimeChargeRule,
    UnchargedGraphLoopRule,
    ScratchEscapeRule,
    MemoCloneRule,
    ReportOwnershipRule,
)

__all__ = [
    "CONTRACT_RULES",
    "MemoCloneRule",
    "ReportOwnershipRule",
    "RuntimeChargeRule",
    "ScratchEscapeRule",
    "UnchargedGraphLoopRule",
]
