"""Exact intersection numbers on jet towers and effective degree thresholds."""

from .cache import ENGINE_VERSION
from .errors import (
    DimensionMismatchError,
    InadmissibleWeightsError,
    InhomogeneousClassError,
    JetboundError,
    NonMonicRelationError,
    ResidualVariableError,
    RingMismatchError,
    UnreducedClassError,
)
from .geometry import (
    COMPACT_HYPERSURFACE,
    LOGARITHMIC_PAIR,
    EvaluatedClass,
    GeometrySpec,
    base_chern,
    compact_hypersurface,
    evaluate_in_degree,
    logarithmic_pair,
)
from .morse import (
    MorseReport,
    WeightVector,
    compute_report,
    default_weights,
    degree_threshold,
    is_admissible,
    morse_class,
    morse_polynomial,
    order_bounds,
    symbolic_leading_form,
)
from .polyring import NEG_INFINITY, Polynomial, Ring, reduce_monic
from .sweep import SweepResult, enumerate_admissible, run_sweep
from .tower import (
    RelationSet,
    TowerContext,
    build_relations,
    integrate_fibers,
    intersect,
    pipeline_tower,
    pushforward_to_base,
    reduce_tower,
)

__version__ = ENGINE_VERSION

__all__ = [
    "ENGINE_VERSION",
    "NEG_INFINITY",
    "Ring",
    "Polynomial",
    "reduce_monic",
    "TowerContext",
    "RelationSet",
    "build_relations",
    "pipeline_tower",
    "reduce_tower",
    "integrate_fibers",
    "pushforward_to_base",
    "intersect",
    "GeometrySpec",
    "EvaluatedClass",
    "COMPACT_HYPERSURFACE",
    "LOGARITHMIC_PAIR",
    "compact_hypersurface",
    "logarithmic_pair",
    "base_chern",
    "evaluate_in_degree",
    "WeightVector",
    "is_admissible",
    "default_weights",
    "morse_class",
    "morse_polynomial",
    "degree_threshold",
    "order_bounds",
    "symbolic_leading_form",
    "MorseReport",
    "compute_report",
    "SweepResult",
    "enumerate_admissible",
    "run_sweep",
    "JetboundError",
    "RingMismatchError",
    "NonMonicRelationError",
    "UnreducedClassError",
    "DimensionMismatchError",
    "InhomogeneousClassError",
    "ResidualVariableError",
    "InadmissibleWeightsError",
]
