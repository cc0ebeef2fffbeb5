"""Decreasing rearrangements, rearrangement-invariant norms, Young function
calculus, and one-dimensional Hardy-type checkers."""

from .stepfun import (
    StepFunction,
    PiecewiseConstant,
    rearrange,
    double_star,
    lq_norm,
    lorentz_norm,
    luxemburg_norm,
    marcinkiewicz_norm,
    write_step_function,
    read_step_function,
)
from .young import (
    YoungFunction,
    PowerYoung,
    ExpYoung,
    CapYoung,
    JumpYoung,
    SampledYoung,
    orlicz_target,
    HypothesisViolation,
    default_grid,
)
from .hardy import (
    LebesgueSpec,
    LorentzSpec,
    OrliczSpec,
    DecreasingPieces,
    QuadratureError,
    average_transform,
    tail_log_transform,
    hardy_check_avg,
    hardy_check_tail,
)

__all__ = [
    "StepFunction", "PiecewiseConstant", "rearrange", "double_star", "lq_norm", "lorentz_norm",
    "luxemburg_norm", "marcinkiewicz_norm", "write_step_function",
    "read_step_function",
    "YoungFunction", "PowerYoung", "ExpYoung", "CapYoung", "JumpYoung",
    "SampledYoung", "orlicz_target",
    "HypothesisViolation", "default_grid",
    "LebesgueSpec", "LorentzSpec", "OrliczSpec", "DecreasingPieces",
    "QuadratureError", "average_transform", "tail_log_transform",
    "hardy_check_avg", "hardy_check_tail",
]
