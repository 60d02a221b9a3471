"""The motivating application: power-series Newton and path tracking."""

from .systems import PolynomialSystem, lift_value
from .linsolve import lu_solve, matrix_vector_product, residual_norm
from .batch_linsolve import (
    batch_lu_solve,
    batch_lu_solve_tensor,
    batch_lu_solve_tensor_complex,
    solve_packed,
)
from .options import (
    DEFAULT_TRACK_OPTIONS,
    NewtonOptions,
    RetryPolicy,
    ShardOptions,
    StepControl,
    TrackOptions,
)
from .newton import NewtonStep, NewtonResult, newton_power_series, newton_power_series_batch
from .scheduler import (
    PathPoint,
    PathScheduler,
    PathStatus,
    PathTrackResult,
    TrackManyReport,
    align_path_points,
    track_paths,
)

__all__ = [
    "PolynomialSystem",
    "lift_value",
    "lu_solve",
    "matrix_vector_product",
    "residual_norm",
    "batch_lu_solve",
    "batch_lu_solve_tensor",
    "batch_lu_solve_tensor_complex",
    "solve_packed",
    "DEFAULT_TRACK_OPTIONS",
    "NewtonOptions",
    "RetryPolicy",
    "ShardOptions",
    "StepControl",
    "TrackOptions",
    "NewtonStep",
    "NewtonResult",
    "newton_power_series",
    "newton_power_series_batch",
    "PathPoint",
    "PathTrackResult",
    "align_path_points",
    "PathScheduler",
    "PathStatus",
    "TrackManyReport",
    "track_paths",
]
