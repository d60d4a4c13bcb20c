"""Evaluation metrics and accuracy-vs-MAC curve utilities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..nn.tensor import Tensor
from ..utils.metrics import percentile


def _as_array(logits: Union[Tensor, np.ndarray]) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits)


def top_k_accuracy(logits: Union[Tensor, np.ndarray], labels: np.ndarray, k: int = 1) -> float:
    """Fraction of samples whose true label is within the top-``k`` predictions."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = _as_array(logits)
    labels = np.asarray(labels)
    k = min(k, scores.shape[-1])
    top_k = np.argpartition(-scores, kth=k - 1, axis=-1)[:, :k]
    hits = (top_k == labels[:, None]).any(axis=-1)
    return float(hits.mean())


def confusion_matrix(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Dense ``(num_classes, num_classes)`` confusion matrix (rows: true class)."""
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same shape")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix


def per_class_accuracy(predictions: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Accuracy within each true class (NaN-free: empty classes report 0)."""
    matrix = confusion_matrix(predictions, labels, num_classes)
    totals = matrix.sum(axis=1)
    correct = np.diag(matrix)
    with np.errstate(divide="ignore", invalid="ignore"):
        accuracy = np.where(totals > 0, correct / np.maximum(totals, 1), 0.0)
    return accuracy


@dataclass
class AccuracyMacCurve:
    """An accuracy-vs-#MAC trade-off curve (one method in Fig. 6/7).

    ``mac_fractions`` and ``accuracies`` are parallel sequences ordered by
    increasing MAC count.
    """

    label: str
    mac_fractions: List[float]
    accuracies: List[float]

    def __post_init__(self) -> None:
        if len(self.mac_fractions) != len(self.accuracies):
            raise ValueError("mac_fractions and accuracies must have the same length")
        order = np.argsort(self.mac_fractions)
        self.mac_fractions = [float(self.mac_fractions[i]) for i in order]
        self.accuracies = [float(self.accuracies[i]) for i in order]

    def interpolate(self, mac_fraction: float) -> float:
        """Linearly interpolated accuracy at an arbitrary MAC fraction."""
        return float(np.interp(mac_fraction, self.mac_fractions, self.accuracies))

    def area_under_curve(self) -> float:
        """Trapezoidal area under the accuracy-vs-MAC curve (higher is better)."""
        if len(self.mac_fractions) < 2:
            return 0.0
        x = np.asarray(self.mac_fractions)
        y = np.asarray(self.accuracies)
        return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))

    def dominates(self, other: "AccuracyMacCurve", grid: int = 11) -> float:
        """Fraction of a shared MAC grid on which this curve is at least as accurate."""
        low = max(min(self.mac_fractions), min(other.mac_fractions))
        high = min(max(self.mac_fractions), max(other.mac_fractions))
        if high <= low:
            return 0.0
        points = np.linspace(low, high, grid)
        wins = sum(self.interpolate(p) >= other.interpolate(p) - 1e-12 for p in points)
        return wins / grid

    def as_rows(self) -> List[dict]:
        return [
            {"method": self.label, "mac_fraction": m, "accuracy": a}
            for m, a in zip(self.mac_fractions, self.accuracies)
        ]


# ``percentile`` used to live here; it is now canonical in
# :mod:`repro.utils.metrics` (shared with the SLO scorecards and sweep
# rows) and re-exported for the existing import surface.


def deadline_miss_rate(met_flags: Sequence[bool]) -> float:
    """Fraction of requests that missed their deadline (0.0 when empty)."""
    flags = list(met_flags)
    if not flags:
        return 0.0
    return sum(1 for met in flags if not met) / len(flags)


def monotonic_violations(values: Sequence[float], tolerance: float = 0.0) -> int:
    """Count decreases along a sequence expected to be non-decreasing.

    Used to quantify the "incremental accuracy enhancement" property: an
    ideal SteppingNet has zero violations across its subnets.
    """
    violations = 0
    for previous, current in zip(values, list(values)[1:]):
        if current < previous - tolerance:
            violations += 1
    return violations
