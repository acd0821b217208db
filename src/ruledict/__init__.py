"""Selection rules, selection dictionaries, and what to do with them.

The pipeline: write a rule in the small text DSL (or build the
expression tree directly), evaluate it to the exact set of permissible
covariate subsets, then either map that set onto a grouping structure
for a penalised estimator or hand it to the best-subset OLS selector.

Only that selector needs numpy, so its module, :mod:`ruledict.select`,
is imported on first use of one of its names rather than with the
package.
"""

import importlib

from .core import (
    DEFAULT_MAX_ENUM,
    MAX_UNIVERSE,
    ConstraintSet,
    Dictionary,
    Universe,
    VarSet,
    dictionary_support,
    make_universe,
    powerset,
)
from .dsl import SourceSpan, format_rule, parse_rule, read_rule_document
from .errors import (
    ArityMismatch,
    ConstantOutcome,
    DatasetTooSmall,
    DuplicateVariable,
    EmptyDictionary,
    EnumerationTooLarge,
    IncompatibleGrouping,
    InvalidGrouping,
    InvalidStageResult,
    MissingStageResult,
    MissingValue,
    ParseError,
    RankDeficient,
    RuledictError,
    SchemaMismatch,
    SynthesisFailure,
    Underdetermined,
    UniverseTooLarge,
    UnknownVariable,
    UnsupportedForEquivalence,
    UseClosureInstead,
)
from .grouping import (
    CongruenceReport,
    GroupingStructure,
    Method,
    check_compatibility,
    check_log_congruence,
    check_ogl_necessary,
    method_rule,
    synthesize_log_grouping,
    union_closure,
)
from .rules import (
    And,
    Implies,
    Not,
    Or,
    RuleExpr,
    Sequential,
    SequentialScopeWarning,
    StageResult,
    Unit,
    UnitRule,
    combine,
    eval_rule,
    expr_from_json_obj,
    expr_to_json_obj,
    is_coherent,
    rule_from_dictionary,
    rules_equivalent,
    sequential_nodes,
    stage_outcomes,
    unit_dictionary,
)

__version__ = "0.1.0"

#: Names taken from ``.select``, imported with it on first access.
_SELECT_NAMES = (
    "Dataset",
    "FitResult",
    "RankedModels",
    "ScoredModel",
    "fit_ols",
    "load_dataset",
    "score",
    "select_best",
)


def __getattr__(name: str):
    """Import ``.select`` (and numpy) when it or one of its names is first used (PEP 562)."""
    if name != "select" and name not in _SELECT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    select = importlib.import_module(".select", __name__)
    globals().update({n: getattr(select, n) for n in _SELECT_NAMES})
    return select if name == "select" else globals()[name]


__all__ = [
    "And",
    "ArityMismatch",
    "CongruenceReport",
    "ConstantOutcome",
    "ConstraintSet",
    "Dataset",
    "DatasetTooSmall",
    "DEFAULT_MAX_ENUM",
    "Dictionary",
    "DuplicateVariable",
    "EmptyDictionary",
    "EnumerationTooLarge",
    "FitResult",
    "format_rule",
    "GroupingStructure",
    "Implies",
    "IncompatibleGrouping",
    "InvalidGrouping",
    "InvalidStageResult",
    "is_coherent",
    "make_universe",
    "MAX_UNIVERSE",
    "Method",
    "method_rule",
    "MissingStageResult",
    "MissingValue",
    "Not",
    "Or",
    "ParseError",
    "parse_rule",
    "powerset",
    "RankDeficient",
    "RankedModels",
    "read_rule_document",
    "RuledictError",
    "RuleExpr",
    "rule_from_dictionary",
    "rules_equivalent",
    "SchemaMismatch",
    "ScoredModel",
    "Sequential",
    "SequentialScopeWarning",
    "sequential_nodes",
    "SourceSpan",
    "StageResult",
    "stage_outcomes",
    "SynthesisFailure",
    "Underdetermined",
    "unit_dictionary",
    "Unit",
    "UnitRule",
    "Universe",
    "UniverseTooLarge",
    "UnknownVariable",
    "UnsupportedForEquivalence",
    "UseClosureInstead",
    "VarSet",
    "check_compatibility",
    "check_log_congruence",
    "check_ogl_necessary",
    "combine",
    "dictionary_support",
    "eval_rule",
    "expr_from_json_obj",
    "expr_to_json_obj",
    "fit_ols",
    "load_dataset",
    "score",
    "select_best",
    "synthesize_log_grouping",
    "union_closure",
]
