"""Shared utilities: RNG management, checkpoints, logging, metrics."""

from .io import load_checkpoint, load_json, save_checkpoint, save_json
from .logging import MetricHistory, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
    quantile_summary,
)
from .rng import derive_generator, get_seed, new_generator, set_seed

__all__ = [
    "set_seed",
    "get_seed",
    "new_generator",
    "derive_generator",
    "save_checkpoint",
    "load_checkpoint",
    "save_json",
    "load_json",
    "get_logger",
    "MetricHistory",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_QUANTILES",
    "percentile",
    "quantile_summary",
]
