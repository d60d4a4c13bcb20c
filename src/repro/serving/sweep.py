"""The ClusterSpec grid-sweep harness: one traced run per config cell.

A :class:`SweepSpec` is a base :class:`~repro.serving.spec.ClusterSpec`
plus a grid of dotted-path overrides::

    sweep = SweepSpec(
        base=ClusterSpec.from_json("fleet.json"),
        grid={
            "publish_interval": (0.0, 0.05, 0.2),
            "router": ("round-robin", "least-loaded-depth"),
            "streams.*.params.rate": (50.0, 200.0),
        },
    )

:func:`run_sweep` expands the grid (cartesian product, insertion order)
into one *traced* serving run per cell and reduces each to a scorecard
row: headline report metrics, the routing-signal staleness summary, the
fleet latency-phase decomposition and — when an
:class:`~repro.serving.analyze.SLOSpec` is supplied (or carried on the
base spec) — the SLO scorecard.  The whole result serialises to one
JSON artifact, which is how ``benchmarks/bench_sweep.py`` ships the
staleness-vs-placement-quality study.

Override paths walk the spec's ``to_dict`` form: ``.`` descends into
mappings, integer segments index lists, and ``*`` fans out over every
element of a list (``nodes.*.batch_policy`` sets the policy on all
nodes).  Leaf keys inside free-form parameter mappings may be created;
walking *through* a missing container is an error, and unknown spec
fields still fail in ``ClusterSpec.from_dict`` (typo safety is
preserved end to end).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import MISSING, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..utils.errors import ConfigError
from .analyze import SLOSpec, decompose_latency, decomposition_summary, evaluate_slo
from .codec import Spec, coerce, nested, text
from .engine import _json_safe
from .observe import ObservabilitySpec, staleness_curve
from .spec import ClusterSpec

__all__ = ["SweepSpec", "SweepResult", "apply_overrides", "run_sweep"]


#: Headline ClusterReport keys copied into each sweep row (the nested
#: per-node reports and raw metric snapshots stay out of the artifact).
_ROW_METRICS = (
    "router",
    "num_nodes",
    "num_jobs",
    "completed",
    "dropped",
    "makespan",
    "throughput_rps",
    "p50_latency",
    "p95_latency",
    "p99_latency",
    "mean_latency",
    "deadline_miss_rate",
    "total_macs",
    "total_macs_recomputed",
    "retries",
    "timed_out",
    "migrations",
    "failovers",
    "degraded_admissions",
    "rejected",
    "lost",
    "steals",
    "inflight_steals",
    "shards",
    "load_imbalance",
)

#: Staleness-curve keys carried into each sweep row.
_ROW_STALENESS = (
    "num_samples",
    "mean_abs_error",
    "max_abs_error",
    "mean_abs_published_error",
    "max_abs_published_error",
)


# ----------------------------------------------------------------------
# Dotted-path overrides
# ----------------------------------------------------------------------
def _assign(container: Any, segments: Sequence[str], value: Any, path: str) -> None:
    head, rest = segments[0], segments[1:]
    if head == "*":
        if not isinstance(container, list):
            raise ConfigError(
                f"override '{path}': '*' needs a list, found {type(container).__name__}"
            )
        if not rest:
            raise ConfigError(f"override '{path}': '*' cannot be the final segment")
        for element in container:
            _assign(element, rest, value, path)
        return
    if isinstance(container, list):
        try:
            index = int(head)
        except ValueError:
            raise ConfigError(
                f"override '{path}': segment '{head}' must be an integer or '*' "
                f"to index a list"
            ) from None
        if not -len(container) <= index < len(container):
            raise ConfigError(
                f"override '{path}': index {index} out of range for a "
                f"{len(container)}-element list"
            )
        if not rest:
            container[index] = value
        else:
            _assign(container[index], rest, value, path)
        return
    if not isinstance(container, dict):
        raise ConfigError(
            f"override '{path}': cannot descend into {type(container).__name__} "
            f"at segment '{head}'"
        )
    if not rest:
        container[head] = value
        return
    if head not in container:
        raise ConfigError(
            f"override '{path}': unknown key '{head}'; available: {sorted(container)}"
        )
    _assign(container[head], rest, value, path)


def apply_overrides(base: ClusterSpec, overrides: Mapping[str, Any]) -> ClusterSpec:
    """A new :class:`ClusterSpec` with dotted-path overrides applied.

    Works on the spec's ``to_dict`` form and revalidates through
    ``from_dict``, so every override passes the same typo and registry
    checks as a hand-written config file.
    """
    data = base.to_dict()
    for path, value in overrides.items():
        segments = path.split(".")
        if not all(segments):
            raise ConfigError(f"override path {path!r} has an empty segment")
        _assign(data, segments, value, path)
    return ClusterSpec.from_dict(data)


# ----------------------------------------------------------------------
# The sweep spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec(Spec):
    """A base cluster times a grid of dotted-path override axes.

    ``grid`` maps override paths to the values each axis takes; cells
    are the cartesian product in insertion order (the first axis varies
    slowest).  JSON-round-trippable like every other spec.
    """

    base: ClusterSpec = nested(ClusterSpec, default=MISSING)
    grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    name: str = text("sweep")
    #: Objectives applied to every cell; falls back to ``base.slo``.
    slo: Optional[SLOSpec] = nested(SLOSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base is None:
            raise ConfigError("SweepSpec.base must be a ClusterSpec or mapping, got None")
        axes: Dict[str, Tuple[Any, ...]] = {}
        for path, values in dict(self.grid).items():
            if not isinstance(path, str) or not path:
                raise ConfigError(f"sweep axis name must be a non-empty string, got {path!r}")
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise ConfigError(
                    f"sweep axis '{path}' must be a sequence of values, got {values!r}"
                )
            if not values:
                raise ConfigError(f"sweep axis '{path}' has no values")
            axes[path] = tuple(values)
        object.__setattr__(self, "grid", axes)
        # Structural fail-fast: every axis path must resolve against the
        # base config AND survive spec validation with its first value
        # (catches typo'd leaf keys, which _assign would happily create).
        base_dict = self.base.to_dict()
        for path in axes:
            probe = json.loads(json.dumps(base_dict, default=str))
            _assign(probe, path.split("."), axes[path][0], path)
            try:
                ClusterSpec.from_dict(probe)
            except ConfigError as exc:
                raise ConfigError(f"sweep axis '{path}' is invalid: {exc}") from None

    @property
    def num_cells(self) -> int:
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total

    def cells(self) -> List[Dict[str, Any]]:
        """Every grid cell as ``{path: value}``, first axis slowest."""
        if not self.grid:
            return [{}]
        paths = list(self.grid)
        return [
            dict(zip(paths, combo))
            for combo in itertools.product(*(self.grid[path] for path in paths))
        ]


# ----------------------------------------------------------------------
# Running it
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Every cell's scorecard row plus the sweep that produced them."""

    sweep: SweepSpec
    rows: List[Dict[str, Any]]

    @property
    def ok(self) -> bool:
        """Conjunction of every cell's SLO verdict (vacuously true)."""
        return all(
            row["scorecard"]["ok"] for row in self.rows if row.get("scorecard") is not None
        )

    def column(self, key: str) -> List[Any]:
        """One metric across all rows (dotted path into each row)."""
        values = []
        for row in self.rows:
            value: Any = row
            for segment in key.split("."):
                value = value[segment]
            values.append(value)
        return values

    def to_dict(self) -> Dict[str, Any]:
        return _json_safe(
            {
                "name": self.sweep.name,
                "grid": {path: list(values) for path, values in self.sweep.grid.items()},
                "num_cells": len(self.rows),
                "ok": self.ok,
                "rows": self.rows,
            }
        )


def _cell_row(spec, overrides, report, events, slo) -> Dict[str, Any]:
    report_dict = report.as_dict()
    metrics = {key: report_dict.get(key) for key in _ROW_METRICS}
    staleness = staleness_curve(events)
    row: Dict[str, Any] = {
        "overrides": dict(overrides),
        "metrics": metrics,
        "staleness": {key: staleness.get(key) for key in _ROW_STALENESS},
        "decomposition": decomposition_summary(decompose_latency(events)),
        "num_events": len(events),
    }
    if slo is not None:
        row["scorecard"] = evaluate_slo(slo, report).to_dict()
    else:
        row["scorecard"] = None
    return row


def run_sweep(
    sweep: Union[SweepSpec, Mapping[str, Any]],
    network_or_result: Any = None,
    slo: Optional[SLOSpec] = None,
    progress: Optional[Any] = None,
) -> SweepResult:
    """Expand the grid and serve one traced run per cell.

    Each cell's cluster serves its spec-declared workload with an
    unbounded in-memory trace recorder attached; the events are reduced
    to the cell's row and discarded before the next cell runs.  The
    base model is built once and shared across cells unless an override
    touches ``model`` (then each cell builds its own) or an explicit
    ``network_or_result`` is given.  ``progress`` is an optional
    ``callable(index, num_cells, overrides)`` hook for benchmark CLIs.
    """
    from .cluster import ServingCluster

    sweep = coerce(SweepSpec, sweep)
    slo = coerce(SLOSpec, slo) or sweep.slo or sweep.base.slo
    touches_model = any(path.split(".")[0] == "model" for path in sweep.grid)
    cells = sweep.cells()
    shared_network = network_or_result
    rows: List[Dict[str, Any]] = []
    for index, overrides in enumerate(cells):
        if progress is not None:
            progress(index, len(cells), overrides)
        spec = apply_overrides(sweep.base, overrides)
        if shared_network is None and not touches_model:
            # One network for the whole sweep: cells differ in serving
            # config only, so they can share the compiled plans too.
            shared_network = sweep.base.build_network()
        network = None if touches_model else shared_network
        cluster = ServingCluster.from_spec(spec, network)
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = cluster.serve(recorder=recorder)
        finally:
            recorder.close()
        row = _cell_row(spec, overrides, report, recorder.events, slo)
        row["cell"] = index
        rows.append(row)
    return SweepResult(sweep=sweep, rows=rows)
