"""Modelled GPU substrate: devices, memory model, operation counts, timing model.

Nothing here executes the evaluation: the paper's tables are priced by
:class:`TimingModel` from a staged schedule (``TimingModel(device,
precision).predict(schedule, batch)``), while the numbers themselves come
from the host evaluators of :mod:`repro.core`.
"""

from .device import DeviceSpec, TABLE1_DEVICES, get_device, DEFAULT_DEVICE
from .memory import shared_memory_needed, max_degree_for_precision, check_block_fits
from .events import KernelLaunchTiming, TimingReport
from .flops import (
    FlopCount,
    convolution_double_ops,
    addition_double_ops,
    evaluation_double_ops,
    tflops,
)
from .calibration import (
    PAPER_V100_P1_CONVOLUTION_MS,
    efficiency_for,
    efficiency_table,
    calibration_degree,
)
from .timing import TimingModel, predict_schedule

__all__ = [
    "DeviceSpec",
    "TABLE1_DEVICES",
    "get_device",
    "DEFAULT_DEVICE",
    "shared_memory_needed",
    "max_degree_for_precision",
    "check_block_fits",
    "KernelLaunchTiming",
    "TimingReport",
    "FlopCount",
    "convolution_double_ops",
    "addition_double_ops",
    "evaluation_double_ops",
    "tflops",
    "PAPER_V100_P1_CONVOLUTION_MS",
    "efficiency_for",
    "efficiency_table",
    "calibration_degree",
    "TimingModel",
    "predict_schedule",
]
