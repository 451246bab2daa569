"""reconfcheck: design-time checking of component reconfiguration paths.

Reconfiguration paths — finite operation sequences, optionally ending in a
forever-repeated cycle — are modelled as deterministic lasso automata and
temporal properties are verified over them by a mark-based traversal,
cross-validated against a brute-force semantic oracle.
"""

import sys

if sys.version_info < (3, 11):
    # the lexer's patterns use possessive quantifiers, new in Python 3.11
    raise ImportError("reconfcheck needs Python 3.11 or later")

from .adl import (
    AdlSyntaxError,
    AdlValidationError,
    RecipeSet,
    model_digest,
    parse_model,
    parse_recipes,
    print_model,
    print_recipes,
)
from .checker import (
    CheckError,
    CheckOptions,
    CheckStats,
    TraceWitness,
    Verdict,
    WitnessStep,
    check,
    is_suffix_monotone,
)
from .ftpl import (
    After,
    Always,
    Before,
    Eventually,
    EventSpec,
    FtplFormula,
    FtplSyntaxError,
    erasure_invariant,
    event_holds,
    mentions_params,
    parse_cp,
    parse_formula,
    print_cp,
    print_formula,
)
from .model import (
    Binding,
    Component,
    ComponentModel,
    CpEvalError,
    Delegation,
    Param,
    STARTED,
    STOPPED,
    erase_param_values,
    eval_cp,
    validate_model,
)
from .oracle import ConcreteLasso, LassoStep, oracle_eval, oracle_verdict, \
    unfold_to_lasso
from .pathspec import (
    PathAutomaton,
    PathExpr,
    PathSyntaxError,
    build_automaton,
    parse_path,
    print_path,
    residual_from,
)
from .reconfig import (
    AddComponent,
    ApplicationOutcome,
    Bind,
    BinOp,
    Composite,
    EvolutionOperation,
    IntLiteral,
    ParamRef,
    Primitive,
    RUN,
    RemoveComponent,
    Run,
    SetParam,
    Start,
    Stop,
    Unbind,
    Unfolding,
    apply_evolution,
    apply_primitive,
    apply_sequence,
    is_idempotent_sequence,
    operation_table,
)

__version__ = "0.1.0"
