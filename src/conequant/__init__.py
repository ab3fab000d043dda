"""Exact cone quantile regions and Tukey depth regions for point clouds.

Everything is computed over exact rationals; the central entry points are
:func:`quantile_region`, :func:`tukey_region` and :func:`tukey_depth`.  Regions
come from a Benson-type solver for the geometric dual of the region's vector
linear program, depth from a direct exact count, and both are verified
against independent brute-force oracles.
"""

from .core import (
    Cone,
    DataCloud,
    DualConeBasis,
    QuantileLevel,
    Rational,
    format_rational,
    make_dual_basis,
    parse_rational,
    project_data,
    validate_cone,
)
from .errors import (
    ConequantError,
    ContainsLine,
    DimensionMismatch,
    DimensionNot2,
    EmptyBasis,
    IntegralNp,
    InternalInvariantError,
    MalformedProgram,
    NotFullDimensional,
    NotInterior,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    build_lp_dual,
    simplex_solve,
)
from .oracle import (
    critical_directions,
    membership_sample,
    oracle_region_2d,
)
from .polyhedra import (
    Halfspace,
    Polyhedron,
    poly_contains,
    poly_equal,
    remove_redundant,
)
from .quantile import (
    QuantileRegion,
    lift_dataset,
    quantile_region,
    region_membership,
    tukey_depth,
    tukey_region,
)
from .univariate import (
    minimize_pinball_loss,
    pinball_loss,
    quantile_direct,
)
from .vlp import (
    BensonStats,
    DualSolution,
    basis_vertices,
    benson_dual_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BensonStats",
    "Cone",
    "ConequantError",
    "ContainsLine",
    "DataCloud",
    "DimensionMismatch",
    "DimensionNot2",
    "DualConeBasis",
    "DualSolution",
    "EmptyBasis",
    "Halfspace",
    "INFEASIBLE",
    "IntegralNp",
    "InternalInvariantError",
    "LinearProgram",
    "LpOutcome",
    "MalformedProgram",
    "NotFullDimensional",
    "NotInterior",
    "OPTIMAL",
    "Polyhedron",
    "QuantileLevel",
    "QuantileRegion",
    "Rational",
    "UNBOUNDED",
    "basis_vertices",
    "benson_dual_solve",
    "build_lp_dual",
    "critical_directions",
    "format_rational",
    "lift_dataset",
    "make_dual_basis",
    "membership_sample",
    "minimize_pinball_loss",
    "oracle_region_2d",
    "parse_rational",
    "pinball_loss",
    "poly_contains",
    "poly_equal",
    "project_data",
    "quantile_direct",
    "quantile_region",
    "region_membership",
    "remove_redundant",
    "simplex_solve",
    "tukey_depth",
    "tukey_region",
    "validate_cone",
]
