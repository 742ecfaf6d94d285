"""Exact arithmetic for oriented trivalent graph homology, wheels,
multiplicative genera, and hyperkähler curvature-norm identities."""

from .scalars import PiScalar, Root, parse_pi_scalar
from .graph_core import (
    BadIndex, Graph, GraphError, GraphParseError, InvalidOrientation,
    OddWheel, OrientedGraph, SelfLoop, ValenceMismatch, canonical_form,
    empty_graph, format_graph, format_oriented, from_cyclic, is_isomorphic,
    line, make_graph, parse_graph, theta, to_cyclic, weld_all, wheel,
)
from .graph_algebra import (
    AlgebraError, BoundExceeded, GraphVector, RelationSet, degree_bound,
    dimension, enumerate_trivalent, format_vector, ihx_relations,
    parse_vector, power, product, reduce, trivalent_part,
)
from .genus import (
    BadConstantTerm, CharPowerSeries, ChernData, ChernPolynomial,
    DegreeMismatch, Genus, MissingMonomial, OrderMismatch, SeriesError,
    ahat_series, builtin_genera, evaluate, genus_in_power_sums,
    genus_polynomial, power_sum_in_chern, sinh_half_over_half,
    sqrt_ahat_series, todd_series,
)
from .wheeling import (
    BadPartition, BridgeReport, OddLegCount, OmegaTruncation, WheelingError,
    WheelingReport, b_coefficients, bridge_identity, glue_hat, line_power,
    line_vector, omega, pair_spokes, wheel_char_weight, wheel_vector,
    wheeling_check,
)
from .hk_analysis import (
    AnalysisError, AnalysisReport, ManifoldData, MissingNorm,
    NonpositiveSqrtAhat, b_theta_k, b_theta_via_c, c_theta, curvature_norm,
    curvature_norm_via_b, euler_number, ahat_number, sqrt_ahat_number,
    validate,
)
from .lie_oracle import (
    NotTrivalent, OracleError, UnknownName, WeightTooLarge, builtin, weight,
    weight_vector,
)

__version__ = "0.1.0"
