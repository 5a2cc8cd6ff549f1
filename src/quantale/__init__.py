"""Probabilistic quantification over finite pixie spaces.

Precise and vague quantifiers evaluated against situation models, with
vague predicates lifted to distributions over precise predicates, a
generic-quantifier fast path, and an RSA pragmatics layer.
"""

from .dsl import (
    SourceDiagnostic,
    parse_prop,
    parse_scenario,
    parse_world,
    serialize_prop,
    serialize_world,
)
from .engine import (
    EngineLimits,
    EvalResult,
    GenericComparison,
    compare_generic,
    eval_exact,
    eval_generic_fast,
    eval_mc,
    eval_naive,
)
from .model import (
    LiftScheme,
    LiftedLexicon,
    PixieSpace,
    PreciseLexicon,
    SituationModel,
    VagueLexicon,
    VaguePredicate,
    lift,
)
from .quant import (
    QuantifierKind,
    ShapeSpec,
    ThresholdRegion,
    empty_restriction_value,
    shape_value,
    threshold_partition,
)
from .rsa import (
    MeaningMatrix,
    ReadingReport,
    RsaScenario,
    RsaState,
    RsaUtterance,
    World,
    literal_listener,
    pragmatic_listener,
    pragmatic_speaker,
    reading_selector,
)
from .scope import (
    Application,
    Conjunction,
    Quantifier,
    ScopeGraph,
    Tautology,
    free_vars,
    topological_order,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
