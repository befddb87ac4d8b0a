"""fuzzreg: a single-input single-output Mamdani fuzzy regulator engine.

Parameterized membership families, singleton fuzzification, max-min
compositional inference over a declarative rule base, max-union aggregation
and center-of-gravity defuzzification, with plot-data emission and a small
CLI on top. All public types are immutable and all operations are pure.
"""

from .defuzz import defuzz_cog
from .errors import (
    DimensionMismatch,
    EmptyRuleBase,
    FuzzyError,
    InvalidUniverse,
    NonFiniteInput,
    ParseError,
    ValidationError,
    ZeroMass,
)
from .inference import FuzzyRelation, Rule, RuleBase, build_relation, cri, infer, union
from .membership import (
    FuzzySet,
    Gaussian,
    LinguisticTerm,
    LinguisticVariable,
    MembershipFunction,
    SShoulder,
    Trapezoidal,
    Triangular,
    Universe,
    ZShoulder,
    discretize,
    mf_parameters,
    singleton_fuzzify,
)
from .config import (
    load_config,
    parse_config,
    reference_config_path,
    reference_regulator,
    serialize_config,
)
from .plotdata import emit_mf_plot_data, emit_sweep_data, format_value
from .regulator import EvalTrace, Regulator, ZeroMassPolicy

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EmptyRuleBase",
    "EvalTrace",
    "FuzzyError",
    "FuzzyRelation",
    "FuzzySet",
    "Gaussian",
    "InvalidUniverse",
    "LinguisticTerm",
    "LinguisticVariable",
    "MembershipFunction",
    "NonFiniteInput",
    "ParseError",
    "Regulator",
    "Rule",
    "RuleBase",
    "SShoulder",
    "Trapezoidal",
    "Triangular",
    "Universe",
    "ValidationError",
    "ZShoulder",
    "ZeroMass",
    "ZeroMassPolicy",
    "build_relation",
    "cri",
    "defuzz_cog",
    "discretize",
    "emit_mf_plot_data",
    "emit_sweep_data",
    "format_value",
    "infer",
    "load_config",
    "mf_parameters",
    "parse_config",
    "reference_config_path",
    "reference_regulator",
    "serialize_config",
    "singleton_fuzzify",
    "union",
]
