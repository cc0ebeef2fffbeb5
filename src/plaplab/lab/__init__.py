"""Experiment runner: composes the library into seeded, reportable checks."""

from .config import ExperimentConfig, load_problem, parse_config_file
from .report import Report

__all__ = ["ExperimentConfig", "load_problem", "parse_config_file", "Report"]
