"""The paper's primary contribution: data staging and the accelerated evaluator."""

from .jobs import ConvolutionJob, AdditionJob, ScaleJob
from .layout import DataLayout
from .staging import ConvolutionStage, MonomialProducts, stage_convolutions
from .addition_tree import AdditionStage, stage_additions
from .schedule import JobSchedule, build_schedule, schedule_for_polynomial
from .system import (
    FusedSystemSchedule,
    PolynomialEvaluator,
    ScheduleCache,
    SystemEvaluator,
    default_schedule_cache,
    fuse_schedules,
    system_structure_key,
)
from .tensor import (
    ComplexSlotTensor,
    SlotTensor,
    TensorLayer,
    TensorProgram,
    compile_tensor_program,
    convolve_rows,
    convolve_rows_complex,
    infer_ring,
    join_rings,
    make_tensor,
)
from .context import EvalContext

__all__ = [
    "ConvolutionJob",
    "AdditionJob",
    "ScaleJob",
    "DataLayout",
    "ConvolutionStage",
    "MonomialProducts",
    "stage_convolutions",
    "AdditionStage",
    "stage_additions",
    "JobSchedule",
    "build_schedule",
    "schedule_for_polynomial",
    "PolynomialEvaluator",
    "FusedSystemSchedule",
    "ScheduleCache",
    "SystemEvaluator",
    "default_schedule_cache",
    "fuse_schedules",
    "system_structure_key",
    "SlotTensor",
    "ComplexSlotTensor",
    "TensorLayer",
    "TensorProgram",
    "compile_tensor_program",
    "convolve_rows",
    "convolve_rows_complex",
    "infer_ring",
    "join_rings",
    "make_tensor",
    "EvalContext",
]
