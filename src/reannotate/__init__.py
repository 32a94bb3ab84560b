"""Budget-aware candidate ranking and relabeling simulation for noisy labeled datasets.

Given a labeled pool, an ensemble of model predictions, and a taxonomic
hierarchy over the labels, this package scores each instance by how far
the ensemble's predictions sit from the dataset label in the hierarchy,
ranks the pool for human reannotation under a budget, and simulates and
evaluates reannotation strategies against gold relabels.
"""

from .corpus import (
    ELIMINATED,
    GoldRecord,
    GoldSet,
    Instance,
    PredictionRecord,
    PredictionSet,
    ReannotationPool,
    apply_label_map,
    load_gold,
    load_label_map,
    load_pool,
    load_predictions,
    validate_bundle,
    write_gold,
    write_pool,
    write_predictions,
)
from .errors import ParseError, ReannotateError, ValidationError
from .evaluate import (
    BudgetSchedule,
    CurvePoint,
    CurveSeries,
    MicroScores,
    RelabeledPool,
    apply_reannotation,
    efficiency_curve,
    f1_curve,
    jaccard_curve,
    micro_f1,
    write_curves_csv,
)
from .hierarchy import (
    LabelHierarchy,
    UnknownLabelError,
    dump_hierarchy,
    load_hierarchy,
)
from .strategies import (
    RankedList,
    StrategyKind,
    confidence_score,
    graph_distance_score,
    lca_distance_score,
    rank,
)

__version__ = "0.1.0"

__all__ = [
    "ELIMINATED",
    "BudgetSchedule",
    "CurvePoint",
    "CurveSeries",
    "GoldRecord",
    "GoldSet",
    "Instance",
    "LabelHierarchy",
    "MicroScores",
    "ParseError",
    "PredictionRecord",
    "PredictionSet",
    "RankedList",
    "ReannotateError",
    "ReannotationPool",
    "RelabeledPool",
    "StrategyKind",
    "UnknownLabelError",
    "ValidationError",
    "apply_label_map",
    "apply_reannotation",
    "confidence_score",
    "dump_hierarchy",
    "efficiency_curve",
    "f1_curve",
    "graph_distance_score",
    "jaccard_curve",
    "lca_distance_score",
    "load_gold",
    "load_hierarchy",
    "load_label_map",
    "load_pool",
    "load_predictions",
    "micro_f1",
    "rank",
    "validate_bundle",
    "write_curves_csv",
    "write_gold",
    "write_pool",
    "write_predictions",
]
