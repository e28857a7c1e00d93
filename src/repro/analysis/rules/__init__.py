"""Project-specific lint rules: the registry behind ``repro-lint``.

Each rule is a small :class:`~repro.analysis.engine.Rule` visitor with an
id, severity, and fix hint; ``DEFAULT_RULES`` is the registry the engine
and the ``repro-lint`` CLI load.  R001–R006 and R013–R016 are
single-node pattern rules living in this package; R007–R012 are the dataflow
contract rules from :mod:`repro.analysis.contracts`.  The catalogue,
with rationale and examples, is documented in
``docs/static_analysis.md``.

The advertised id range is derived from the registry —
:func:`rule_range` — so CLI help and module docs can never go stale
against the actual rule set again.
"""

from __future__ import annotations

from ..contracts import CONTRACT_RULES
from .backend_dispatch import BackendDispatchRule
from .csr_mutation import CsrMutationRule
from .determinism import DeterminismRule
from .docstrings import PublicDocstringRule
from .exceptions import ExceptionHygieneRule
from .float_compare import FloatDensityCompareRule
from .hash_unique import HashUniqueRule
from .registry import SolverRegistryRule
from .shard_access import ShardAccessRule
from .stream_mutation import StreamMutationRule

DEFAULT_RULES = (
    DeterminismRule,
    ExceptionHygieneRule,
    PublicDocstringRule,
    FloatDensityCompareRule,
    CsrMutationRule,
    SolverRegistryRule,
    *CONTRACT_RULES,
    BackendDispatchRule,
    ShardAccessRule,
    StreamMutationRule,
    HashUniqueRule,
)


def rule_range(rules=DEFAULT_RULES) -> str:
    """The advertised id range of a rule registry, e.g. ``"R001-R016"``."""
    ids = sorted(rule.rule_id for rule in rules)
    if not ids:
        return ""
    if len(ids) == 1:
        return ids[0]
    return f"{ids[0]}-{ids[-1]}"


__all__ = [
    "DEFAULT_RULES",
    "BackendDispatchRule",
    "ShardAccessRule",
    "StreamMutationRule",
    "HashUniqueRule",
    "DeterminismRule",
    "ExceptionHygieneRule",
    "PublicDocstringRule",
    "FloatDensityCompareRule",
    "CsrMutationRule",
    "SolverRegistryRule",
    "rule_range",
]
