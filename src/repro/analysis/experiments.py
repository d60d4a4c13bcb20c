"""Experiment runners that regenerate the paper's table and figures.

Every function here corresponds to one evaluation artefact:

* :func:`run_table1_case` / :func:`run_table1`      — Table I
* :func:`run_figure6_case`                          — Fig. 6 (vs. baselines)
* :func:`run_figure7_case`                          — Fig. 7 (expansion-ratio sweep)
* :func:`run_figure8_case`                          — Fig. 8 (ablation of LR
  suppression and knowledge distillation)

The paper trains full-scale CNNs on CIFAR with a GPU; this reproduction
runs on a numpy substrate with synthetic CIFAR-like data, so every runner
accepts an :class:`ExperimentScale` that shrinks the data, the model
widths and the training schedule while preserving the *shape* of the
results (who wins, how accuracy grows with MACs).  Three presets are
provided: ``SMOKE`` (seconds, used by the test-suite), ``BENCH`` (used by
the pytest-benchmark harness) and ``FULL`` (closest to the paper's
settings; hours on a laptop).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.any_width import train_any_width
from ..baselines.slimmable import train_slimmable
from ..core.api import SteppingNetResult, build_steppingnet
from ..core.config import SteppingConfig, TrainingConfig, paper_config
from ..data.datasets import SyntheticCIFAR, SyntheticImageConfig
from ..data.loaders import DataLoader
from ..models.registry import get_model_spec
from ..models.spec import ArchitectureSpec
from .metrics import AccuracyMacCurve


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity against wall-clock time."""

    name: str = "bench"
    train_samples_per_class: int = 30
    test_samples_per_class: int = 10
    image_size: int = 16
    cifar10_classes: int = 10
    cifar100_classes: int = 20
    width_scale: float = 0.35
    noise_std: float = 0.35
    batch_size: int = 32
    teacher_epochs: int = 4
    num_iterations: int = 10
    batches_per_iteration: int = 2
    retrain_epochs: int = 3
    baseline_epochs: int = 3
    learning_rate: float = 0.05
    seed: int = 0

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(learning_rate=self.learning_rate, batch_size=self.batch_size)


SMOKE = ExperimentScale(
    name="smoke",
    train_samples_per_class=10,
    test_samples_per_class=5,
    image_size=12,
    cifar10_classes=4,
    cifar100_classes=6,
    width_scale=0.2,
    batch_size=20,
    teacher_epochs=2,
    num_iterations=4,
    batches_per_iteration=1,
    retrain_epochs=1,
    baseline_epochs=1,
)

# The default ("bench") scale: small enough to regenerate every figure in
# minutes on one CPU core, hard enough (noise, class count) that subnet
# capacity visibly limits accuracy — otherwise every method saturates and
# the comparative figures carry no information.
BENCH = ExperimentScale(
    name="bench",
    train_samples_per_class=40,
    test_samples_per_class=25,
    noise_std=0.55,
    batches_per_iteration=3,
    retrain_epochs=5,
    baseline_epochs=4,
)

FULL = ExperimentScale(
    name="full",
    train_samples_per_class=400,
    test_samples_per_class=100,
    image_size=32,
    cifar10_classes=10,
    cifar100_classes=100,
    width_scale=1.0,
    batch_size=64,
    teacher_epochs=20,
    num_iterations=300,
    batches_per_iteration=100,
    retrain_epochs=30,
    baseline_epochs=30,
)

SCALES = {"smoke": SMOKE, "bench": BENCH, "full": FULL}

# The three (network, dataset) pairs evaluated in Table I.
TABLE1_CASES: Tuple[Tuple[str, str], ...] = (
    ("lenet-3c1l", "cifar10"),
    ("lenet-5", "cifar10"),
    ("vgg-16", "cifar100"),
)


def get_scale(name: str) -> ExperimentScale:
    """Look up a preset scale by name."""
    try:
        return SCALES[name]
    except KeyError as exc:
        raise KeyError(f"unknown scale '{name}'; available: {sorted(SCALES)}") from exc


# ----------------------------------------------------------------------
# Data and model preparation
# ----------------------------------------------------------------------
def dataset_classes(dataset: str, scale: ExperimentScale) -> int:
    dataset = dataset.lower()
    if dataset == "cifar10":
        return scale.cifar10_classes
    if dataset == "cifar100":
        return scale.cifar100_classes
    raise ValueError(f"unknown dataset '{dataset}' (expected 'cifar10' or 'cifar100')")


def minimum_image_size(model_name: str) -> int:
    """Smallest input resolution the architecture's pooling pyramid supports."""
    model_name = model_name.lower()
    if model_name in ("vgg-16", "vgg-11"):
        return 32
    if model_name == "lenet-5":
        return 20
    return 8


def prepare_data(
    dataset: str, scale: ExperimentScale, image_size: Optional[int] = None, seed: Optional[int] = None
) -> Tuple[DataLoader, DataLoader, int]:
    """Build train/test loaders for the synthetic stand-in of ``dataset``."""
    num_classes = dataset_classes(dataset, scale)
    size = image_size if image_size is not None else scale.image_size
    seed = seed if seed is not None else scale.seed
    base_config = SyntheticImageConfig(
        num_classes=num_classes,
        image_size=size,
        noise_std=scale.noise_std,
        samples_per_class=scale.train_samples_per_class,
        seed=seed,
    )
    train_set = SyntheticCIFAR(base_config, train=True)
    test_set = SyntheticCIFAR(
        replace(base_config, samples_per_class=scale.test_samples_per_class), train=False
    )
    train_loader = DataLoader(train_set, batch_size=scale.batch_size, shuffle=True, seed=seed)
    test_loader = DataLoader(test_set, batch_size=scale.batch_size, shuffle=False, seed=seed)
    return train_loader, test_loader, num_classes


def prepare_spec(
    model_name: str, num_classes: int, scale: ExperimentScale, image_size: Optional[int] = None
) -> ArchitectureSpec:
    """Instantiate a (possibly width-scaled) architecture spec for an experiment."""
    size = max(image_size if image_size is not None else scale.image_size, minimum_image_size(model_name))
    return get_model_spec(
        model_name,
        num_classes=num_classes,
        input_shape=(3, size, size),
        width_scale=scale.width_scale,
    )


def scaled_config(model_name: str, scale: ExperimentScale, **overrides) -> SteppingConfig:
    """The paper's per-network config with the schedule shrunk to ``scale``."""
    config = paper_config(model_name) if model_name.lower() in ("lenet-3c1l", "lenet-5", "vgg-16") else SteppingConfig()
    return config.with_overrides(
        num_iterations=scale.num_iterations,
        batches_per_iteration=scale.batches_per_iteration,
        retrain_epochs=scale.retrain_epochs,
        teacher_epochs=scale.teacher_epochs,
        training=scale.training_config(),
        seed=scale.seed,
        **overrides,
    )


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def run_table1_case(
    model_name: str,
    dataset: str,
    scale: ExperimentScale = BENCH,
    config_overrides: Optional[Dict] = None,
) -> Dict[str, object]:
    """Run the full SteppingNet flow for one Table I row and return the row."""
    size = max(scale.image_size, minimum_image_size(model_name))
    train_loader, test_loader, num_classes = prepare_data(dataset, scale, image_size=size)
    spec = prepare_spec(model_name, num_classes, scale, image_size=size)
    config = scaled_config(model_name, scale, **(config_overrides or {}))
    result = build_steppingnet(spec, train_loader, test_loader, config)
    row = result.table_row()
    row["dataset"] = dataset
    row["mac_budgets"] = list(config.mac_budgets)
    return row


def run_table1(scale: ExperimentScale = BENCH, cases: Sequence[Tuple[str, str]] = TABLE1_CASES) -> List[Dict[str, object]]:
    """All Table I rows (LeNet-3C1L, LeNet-5, VGG-16 by default)."""
    return [run_table1_case(model, dataset, scale) for model, dataset in cases]


# ----------------------------------------------------------------------
# Figure 6: SteppingNet vs any-width vs slimmable
# ----------------------------------------------------------------------
def run_figure6_case(
    model_name: str,
    dataset: str,
    scale: ExperimentScale = BENCH,
    mac_budgets: Optional[Sequence[float]] = None,
) -> Dict[str, AccuracyMacCurve]:
    """Accuracy-vs-MAC curves of SteppingNet and both baselines for one network."""
    size = max(scale.image_size, minimum_image_size(model_name))
    train_loader, test_loader, num_classes = prepare_data(dataset, scale, image_size=size)
    spec = prepare_spec(model_name, num_classes, scale, image_size=size)
    config = scaled_config(model_name, scale)
    if mac_budgets is not None:
        config = config.with_overrides(mac_budgets=tuple(mac_budgets))

    stepping = build_steppingnet(spec, train_loader, test_loader, config)
    any_width = train_any_width(spec, train_loader, test_loader, config, epochs=scale.baseline_epochs)
    slimmable = train_slimmable(spec, train_loader, test_loader, config, epochs=scale.baseline_epochs)

    return {
        "steppingnet": AccuracyMacCurve(
            "SteppingNet", stepping.mac_fractions, stepping.subnet_accuracies
        ),
        "any_width": AccuracyMacCurve(
            "Any-width Net.", any_width.mac_fractions, any_width.subnet_accuracies
        ),
        "slimmable": AccuracyMacCurve(
            "Slimmable Net.", slimmable.mac_fractions, slimmable.subnet_accuracies
        ),
    }


# ----------------------------------------------------------------------
# Figure 7: expansion-ratio sweep
# ----------------------------------------------------------------------
def run_figure7_case(
    model_name: str,
    dataset: str,
    expansion_ratios: Sequence[float] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    scale: ExperimentScale = BENCH,
) -> Dict[float, AccuracyMacCurve]:
    """Accuracy-vs-MAC curves of SteppingNet for several width-expansion ratios."""
    size = max(scale.image_size, minimum_image_size(model_name))
    train_loader, test_loader, num_classes = prepare_data(dataset, scale, image_size=size)
    spec = prepare_spec(model_name, num_classes, scale, image_size=size)
    curves: Dict[float, AccuracyMacCurve] = {}
    for ratio in expansion_ratios:
        config = scaled_config(model_name, scale, expansion_ratio=ratio)
        result = build_steppingnet(spec, train_loader, test_loader, config)
        label = "No expansion" if abs(ratio - 1.0) < 1e-9 else f"{ratio:g} expansion"
        curves[float(ratio)] = AccuracyMacCurve(label, result.mac_fractions, result.subnet_accuracies)
    return curves


# ----------------------------------------------------------------------
# Figure 8: ablation of LR suppression and knowledge distillation
# ----------------------------------------------------------------------
FIGURE8_VARIANTS = ("steppingnet", "wo_weight_suppression", "wo_knowledge_distillation")


def run_figure8_case(
    model_name: str,
    dataset: str,
    scale: ExperimentScale = BENCH,
) -> Dict[str, List[float]]:
    """Per-subnet accuracy of the full method and the two ablations of Fig. 8."""
    size = max(scale.image_size, minimum_image_size(model_name))
    train_loader, test_loader, num_classes = prepare_data(dataset, scale, image_size=size)
    spec = prepare_spec(model_name, num_classes, scale, image_size=size)

    variants = {
        "steppingnet": {},
        "wo_weight_suppression": {"use_lr_suppression": False},
        "wo_knowledge_distillation": {"use_distillation": False},
    }
    results: Dict[str, List[float]] = {}
    for variant, overrides in variants.items():
        config = scaled_config(model_name, scale, **overrides)
        outcome = build_steppingnet(spec, train_loader, test_loader, config)
        results[variant] = list(outcome.subnet_accuracies)
    return results


# ----------------------------------------------------------------------
# Serving under load: SteppingNet vs recompute behind the same engine
# ----------------------------------------------------------------------
def serving_comparison(
    network,
    images: np.ndarray,
    labels: Optional[np.ndarray],
    *,
    num_requests: int = 200,
    batch_size: int = 2,
    utilization: float = 0.7,
    deadline_factor: float = 3.0,
    scheduler: str = "edf",
    full_quality: bool = False,
    overhead_per_step: float = 0.0,
    seed: int = 0,
    observe=None,
) -> Dict[str, object]:
    """Serve one Poisson workload through both execution backends.

    The accelerator's constant throughput is calibrated so that running
    one request to the largest subnet *with reuse* occupies a fraction
    ``utilization`` of the mean inter-arrival time; the recompute
    backend pays the full per-level MACs for the identical workload, so
    its effective load is the reuse expansion factor times higher —
    under the same trace and scheduler, the queueing difference is
    purely SteppingNet's computational reuse.

    ``full_quality=False`` (the anytime scenario) serves with a
    deadline-aware greedy policy: the win shows up as subnet level and
    accuracy reached by the deadline.  ``full_quality=True`` requires
    every request to reach the largest subnet regardless of deadline:
    the win shows up as tail latency and deadline-miss rate.

    ``observe`` (an :class:`~repro.serving.observe.ObservabilitySpec`
    or its dict form) attaches the tracing subsystem to both runs; the
    reported metrics are bit-identical with or without it.

    Each backend run is described by a declarative
    :class:`~repro.serving.spec.ServingSpec` (also returned under
    ``"specs"`` for provenance) and assembled through its
    ``build_engine`` — the same path a JSON config file takes.
    """
    from ..serving import ServingSpec, get_backend, poisson_stream

    if utilization <= 0:
        raise ValueError("utilization must be positive")
    largest = float(network.subnet_macs(network.num_subnets - 1))
    rate = 1.0  # requests/second; only the ratio to capacity matters
    peak = rate * largest / utilization
    service_time = largest / peak
    requests = poisson_stream(
        images,
        labels,
        rate=rate,
        num_requests=num_requests,
        relative_deadline=deadline_factor * service_time,
        batch_size=batch_size,
        seed=seed,
    )

    results: Dict[str, object] = {}
    specs: Dict[str, Dict[str, object]] = {}
    for backend_kind in ("stepping", "recompute"):
        spec = ServingSpec(
            backend=backend_kind,
            scheduler=scheduler,
            trace="constant",
            trace_rate=peak,
            overhead_per_step=overhead_per_step,
            # Never confident, never deadline-limited: always step to the top.
            policy="full-quality" if full_quality else "greedy",
            enforce_deadline=not full_quality,
            observe=observe,
        )
        key = get_backend(backend_kind).name
        specs[key] = spec.to_dict()
        results[key] = spec.build_engine(network).serve(requests).as_dict()
    results["specs"] = specs
    results["workload"] = {
        "num_requests": num_requests,
        "batch_size": batch_size,
        "arrival_rate": rate,
        "utilization": utilization,
        "relative_deadline": deadline_factor * service_time,
        "scheduler": scheduler,
        "full_quality": full_quality,
        "largest_subnet_macs": largest,
        "peak_macs_per_second": peak,
    }
    return results


# ----------------------------------------------------------------------
# Supporting experiment: incremental-reuse accounting
# ----------------------------------------------------------------------
def run_incremental_reuse_case(
    model_name: str = "lenet-3c1l",
    dataset: str = "cifar10",
    scale: ExperimentScale = BENCH,
) -> Dict[str, object]:
    """Measure how many MACs stepping up reuses versus a from-scratch rerun."""
    from ..core.incremental import anytime_schedule

    size = max(scale.image_size, minimum_image_size(model_name))
    train_loader, test_loader, num_classes = prepare_data(dataset, scale, image_size=size)
    spec = prepare_spec(model_name, num_classes, scale, image_size=size)
    config = scaled_config(model_name, scale)
    result = build_steppingnet(spec, train_loader, test_loader, config)

    inputs, _ = next(iter(test_loader))
    steps = anytime_schedule(result.network, inputs)
    rerun_macs = sum(step.cumulative_macs for step in steps)
    stepped_macs = sum(step.macs_executed for step in steps)
    return {
        "network": model_name,
        "steps": [
            {
                "subnet": step.subnet,
                "macs_executed": step.macs_executed,
                "macs_reused": step.macs_reused,
                "reuse_fraction": step.reuse_fraction,
            }
            for step in steps
        ],
        "total_macs_with_reuse": stepped_macs,
        "total_macs_without_reuse": rerun_macs,
        "savings_fraction": 1.0 - stepped_macs / rerun_macs if rerun_macs else 0.0,
    }
