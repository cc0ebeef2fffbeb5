"""Experiment runner: composes the library into seeded, reportable checks."""

from .config import ExperimentConfig, parse_config_file
from .report import Report

__all__ = ["ExperimentConfig", "parse_config_file", "Report"]
