"""Selection rules, selection dictionaries, and what to do with them.

The pipeline: write a rule in the small text DSL (or build the
expression tree directly), evaluate it to the exact set of permissible
covariate subsets, then either map that set onto a grouping structure
for a penalised estimator or hand it to the best-subset OLS selector.

Only that selector needs numpy, so its module, :mod:`ruledict.select`,
is imported on first use of one of its names rather than with the
package. So is :mod:`ruledict.grouping`, which evaluation does not need.
"""

import importlib
import types

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

#: The names of each module imported on first use of it or of one of
#: its names (PEP 562).
_LAZY = {
    "grouping": ("CongruenceReport", "GroupingStructure", "Method", "check_compatibility",
                 "check_log_congruence", "check_ogl_necessary", "method_rule",
                 "synthesize_log_grouping", "union_closure"),
    "select": ("Dataset", "FitResult", "RankedModels", "ScoredModel", "fit_ols",
               "load_dataset", "score", "select_best"),
}


def __getattr__(name: str):
    """Import a module of :data:`_LAZY` when it or one of its names is first used."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module("." + module, __name__)
            globals().update({n: getattr(loaded, n) for n in names})
            return loaded if name == module else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Every name imported above that is neither private nor a module, then every lazy name.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
__all__ += [n for names in _LAZY.values() for n in names]
