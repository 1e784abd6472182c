"""Exact-arithmetic laboratory for polynomial orbit return sets.

Given a polynomial self-map of affine space, a starting point and a
target subvariety, the package computes the set of iterate indices
landing on the target, measures how dense that set is through exact
sliding-window ratios, mines it for full arithmetic progressions, and
backs each progression with algebraic evidence: Zariski closures of
the sampled sub-orbits via vanishing ideals, self-map invariance
certificates, and a dimension-based case split that either certifies
a whole progression or derives a smaller instance to recurse on.

All arithmetic is exact, over QQ, GF(p) or GF(p)(t); reports are
deterministic JSON.  See :mod:`dmlab.experiment` for the file format
and :mod:`dmlab.cli` for the command line.
"""

from .closures import (
    CASE_CLOSURE_EQUALS_TARGET,
    CASE_DEPTH_EXHAUSTED,
    CASE_DIMENSION_DROP,
    CASE_IRREDUCIBILITY_UNVERIFIED,
    CaseSplitFragment,
    ClosureChain,
    ClosureEntry,
    OffsetCase,
    PeriodicityCertificate,
    Session,
    SubInstance,
    SubProgression,
    certify_invariant,
    closure_chain,
    refine_case_split,
)
from .density import (
    Decomposition,
    DensityProfile,
    Progression,
    ceil_sqrt,
    decompose_return_set,
    default_window_schedule,
    density_profile,
    detect_progressions,
    window_density_max,
)
from .experiment import (
    AnalysisParams,
    ExperimentError,
    ExperimentSpec,
    ReportDocument,
    SchemaError,
    StageError,
    experiment_from_dict,
    load_experiment,
    run_experiment,
)
from .exprparse import ExprSyntaxError, parse_polynomial
from .fields import Field, FieldKind, FieldMismatchError, FieldValue
from .ideals import (
    PointSet,
    ReducedGroebnerBasis,
    buchberger,
    ideal_dimension,
    ideal_equal,
    ideal_sum,
    normal_form,
    s_polynomial,
    vanishing_ideal,
)
from .multipoly import MonomialOrder, MultiPoly
from .orbits import (
    CycleStructure,
    Morphism,
    OrbitCache,
    ReturnSet,
    detect_cycle,
    orbit_prefix,
    return_set,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams",
    "CASE_CLOSURE_EQUALS_TARGET",
    "CASE_DEPTH_EXHAUSTED",
    "CASE_DIMENSION_DROP",
    "CASE_IRREDUCIBILITY_UNVERIFIED",
    "CaseSplitFragment",
    "ClosureChain",
    "ClosureEntry",
    "CycleStructure",
    "Decomposition",
    "DensityProfile",
    "ExperimentError",
    "ExperimentSpec",
    "ExprSyntaxError",
    "Field",
    "FieldKind",
    "FieldMismatchError",
    "FieldValue",
    "MonomialOrder",
    "Morphism",
    "MultiPoly",
    "OffsetCase",
    "OrbitCache",
    "PeriodicityCertificate",
    "PointSet",
    "Progression",
    "ReducedGroebnerBasis",
    "ReportDocument",
    "ReturnSet",
    "SchemaError",
    "Session",
    "StageError",
    "SubInstance",
    "SubProgression",
    "buchberger",
    "ceil_sqrt",
    "certify_invariant",
    "closure_chain",
    "decompose_return_set",
    "default_window_schedule",
    "density_profile",
    "detect_cycle",
    "detect_progressions",
    "experiment_from_dict",
    "ideal_dimension",
    "ideal_equal",
    "ideal_sum",
    "load_experiment",
    "normal_form",
    "orbit_prefix",
    "parse_polynomial",
    "refine_case_split",
    "return_set",
    "run_experiment",
    "s_polynomial",
    "vanishing_ideal",
    "window_density_max",
]
