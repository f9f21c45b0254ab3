"""Minimum-distance bounds for one- and two-point algebraic-geometry
codes on Hermitian and Suzuki curves, with brute-force certification on
curves small enough to enumerate."""

from .bounds import (
    BoundResult,
    af_bound,
    best_bound,
    designed_distance,
    floor_bound,
    improvement_table,
    kp_bound,
    verify_witness,
)
from .codes import (
    Code,
    cl_code,
    comega_code,
    evaluation_points,
    min_distance_exhaustive,
    verify_soundness,
    weight_enumerator,
)
from .curve import Curve, make_curve
from .field import Field, make_field
from .rrspace import (
    P_INF,
    P_ORIGIN,
    Divisor,
    dim,
    floor_divisor,
    function_basis,
    is_gap,
    semigroup,
    shift_divisor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "Code",
    "Curve",
    "Divisor",
    "Field",
    "P_INF",
    "P_ORIGIN",
    "af_bound",
    "best_bound",
    "cl_code",
    "comega_code",
    "designed_distance",
    "dim",
    "evaluation_points",
    "floor_bound",
    "floor_divisor",
    "function_basis",
    "improvement_table",
    "is_gap",
    "kp_bound",
    "make_curve",
    "make_field",
    "min_distance_exhaustive",
    "semigroup",
    "shift_divisor",
    "verify_soundness",
    "verify_witness",
    "weight_enumerator",
    "__version__",
]
