"""Causal-effect transport engine.

Given a selection diagram over a source and a target domain and a query
(effect of X on Y, with experiments available on subsets of a controllable
set Z in the source), decide z-transportability and emit a symbolic
transport formula or a hedge / s-hedge failure witness.  A discrete exact
oracle validates every emitted formula numerically.
"""

from .expr import (
    EvalError,
    ExprError,
    ProbExpr,
    Product,
    Quotient,
    Sum,
    Term,
    compile_expr,
    evaluate,
    free_variables,
    from_json,
    normalize,
    product,
    render,
    sum_over,
    term,
    term_corruptions,
    to_json,
)
from .graph import (
    GraphError,
    InputError,
    Query,
    SelectionDiagram,
    SemiMarkovianGraph,
    ancestors,
    c_components,
    induced_subgraph,
    mutilate,
    topological_order,
)
from .identify import (
    DistLabel,
    FailedFactor,
    IdentResult,
    Witness,
    bi,
    direct_transportable,
    gid_z,
    sid_z,
    transportable,
)
from .oracle import (
    DiscreteModelPair,
    DiscreteSCM,
    DistributionSet,
    OracleError,
    Table,
    build_distribution_set,
    enumerate_joint,
    generate_pair,
    ground_truth_effect,
    validate_formula,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
