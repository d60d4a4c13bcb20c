"""Proactive fleet rebalancing: work-stealing triggers and batch sharding.

PR 7 built the *reactive* half of fleet-scale serving — crash-driven
migration and checkpointed failover.  This module supplies the
*proactive* half the ROADMAP calls for:

* :class:`RebalanceSpec` — the declarative knob set riding on
  :class:`~repro.serving.spec.ClusterSpec`.  When enabled, the
  fleet coordinator evaluates a load trigger at a fixed
  simulated-time tick (defaulting to the cluster's publish interval,
  so the trigger reads the same epoch-snapshotted depths the routers
  see) and *steals* work from the deepest node onto the fleet's
  reroute path: queued-but-unstarted jobs move wholesale, in-flight
  jobs travel as subnet-level checkpoints through the same bit-exact
  replay the crash path uses.
* :func:`steal_plan` — the pure trigger: given published depths,
  decide whether to steal, from whom, and how much.
* :class:`PowerOfTwoChoicesRouter` — the classic randomised router:
  sample two nodes, place on the shallower published depth.  Seeded,
  so fleet simulations stay exactly reproducible.
* :func:`shard_requests` / :func:`gather_shard_logits` — batch
  sharding: split one large input batch into slice-view shard
  :class:`~repro.serving.request.Request`\\ s the router places
  independently, and gather the per-shard logits back into the
  parent's stacked answer at the coordinator.

Per-request results stay bit-identical to solo serving of the same
(sharded) request: stealing moves requests, never partial numerics,
and a shard *is* the request the engine serves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..utils.errors import ConfigError
from .cluster import ROUTERS, NodeState, Router
from .request import Request

__all__ = [
    "RebalanceSpec",
    "PowerOfTwoChoicesRouter",
    "steal_plan",
    "shard_requests",
    "gather_shard_logits",
]


# ----------------------------------------------------------------------
# The declarative knob set
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalanceSpec:
    """Work-stealing and batch-sharding configuration for a fleet.

    Attributes
    ----------
    enabled:
        Master switch for load-triggered work-stealing.  Sharding
        (``shard_max_batch``) applies independently of this switch.
    interval:
        Simulated seconds between trigger evaluations.  ``0`` falls
        back to the cluster's ``publish_interval`` — the trigger then
        fires exactly at publish epochs, reading the same snapshotted
        depths the routers place on.  Enabling stealing with both
        intervals zero is a :class:`~repro.utils.errors.ConfigError`.
    imbalance_ratio:
        Steal when the deepest node's published depth is at least this
        multiple of the shallowest's (the shallow depth is floored at 1
        so an idle node never makes the ratio infinite).
    starvation_depth:
        Steal whenever some node's published depth is at or below this
        watermark while another holds at least two jobs — the
        starvation trigger that fires even when the ratio does not.
    max_steals:
        Cap on jobs moved per trigger firing.  The plan never moves
        more than half the depth gap, so a steal cannot invert the
        imbalance it is correcting.
    steal_in_flight:
        Whether started jobs may be stolen once the victim has no
        unstarted ones left.  They travel as subnet-level checkpoints
        through the bit-exact replay path and recompute MACs are
        charged honestly, exactly like a crash failover.
    shard_max_batch:
        When set, arriving requests with a larger input batch are split
        into slice-view shards of at most this many samples before
        routing; the coordinator gathers per-shard logits back into the
        parent's answer (:meth:`~repro.serving.cluster.ClusterReport.gathered_logits`).
    """

    enabled: bool = False
    interval: float = 0.0
    imbalance_ratio: float = 2.0
    starvation_depth: int = 0
    max_steals: int = 4
    steal_in_flight: bool = False
    shard_max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigError(
                f"rebalance.enabled must be a bool, got {self.enabled!r}"
            )
        if (
            not isinstance(self.interval, (int, float))
            or isinstance(self.interval, bool)
            or not math.isfinite(self.interval)
            or self.interval < 0
        ):
            raise ConfigError(
                f"rebalance.interval must be a finite non-negative number, "
                f"got {self.interval!r}"
            )
        object.__setattr__(self, "interval", float(self.interval))
        if (
            not isinstance(self.imbalance_ratio, (int, float))
            or isinstance(self.imbalance_ratio, bool)
            or not self.imbalance_ratio >= 1.0
        ):
            raise ConfigError(
                f"rebalance.imbalance_ratio must be a number >= 1, "
                f"got {self.imbalance_ratio!r}"
            )
        object.__setattr__(self, "imbalance_ratio", float(self.imbalance_ratio))
        if not isinstance(self.starvation_depth, int) or isinstance(
            self.starvation_depth, bool
        ) or self.starvation_depth < 0:
            raise ConfigError(
                f"rebalance.starvation_depth must be a non-negative integer, "
                f"got {self.starvation_depth!r}"
            )
        if not isinstance(self.max_steals, int) or isinstance(
            self.max_steals, bool
        ) or self.max_steals < 1:
            raise ConfigError(
                f"rebalance.max_steals must be a positive integer, "
                f"got {self.max_steals!r}"
            )
        if not isinstance(self.steal_in_flight, bool):
            raise ConfigError(
                f"rebalance.steal_in_flight must be a bool, "
                f"got {self.steal_in_flight!r}"
            )
        if self.shard_max_batch is not None and (
            not isinstance(self.shard_max_batch, int)
            or isinstance(self.shard_max_batch, bool)
            or self.shard_max_batch < 1
        ):
            raise ConfigError(
                f"rebalance.shard_max_batch must be a positive integer or null, "
                f"got {self.shard_max_batch!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "interval": self.interval,
            "imbalance_ratio": self.imbalance_ratio,
            "starvation_depth": self.starvation_depth,
            "max_steals": self.max_steals,
            "steal_in_flight": self.steal_in_flight,
            "shard_max_batch": self.shard_max_batch,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RebalanceSpec":
        known = {
            "enabled",
            "interval",
            "imbalance_ratio",
            "starvation_depth",
            "max_steals",
            "steal_in_flight",
            "shard_max_batch",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RebalanceSpec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "RebalanceSpec":
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))


def _coerce_rebalance(
    value: Optional[Union["RebalanceSpec", Mapping[str, Any]]]
) -> Optional["RebalanceSpec"]:
    """``None`` | mapping | spec -> ``None`` | :class:`RebalanceSpec`."""
    if value is None or isinstance(value, RebalanceSpec):
        return value
    if isinstance(value, Mapping):
        return RebalanceSpec.from_dict(value)
    raise ConfigError(
        f"rebalance must be a RebalanceSpec or mapping, got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# The trigger
# ----------------------------------------------------------------------
def steal_plan(
    depths: Sequence[int], spec: RebalanceSpec
) -> Optional[Tuple[int, int]]:
    """Decide a steal from published queue depths.

    ``depths[i]`` is the i-th candidate node's published depth.  Returns
    ``(victim_position, count)`` — steal ``count`` jobs from the deepest
    node — or ``None`` when the fleet is balanced.  Deterministic:
    position breaks depth ties.  The count never exceeds half the
    deepest-to-shallowest gap (rounded down), so a steal strictly
    narrows the gap without inverting it, and is capped by
    :attr:`RebalanceSpec.max_steals`.
    """
    if len(depths) < 2:
        return None
    victim = max(range(len(depths)), key=lambda i: (depths[i], -i))
    shallow = min(range(len(depths)), key=lambda i: (depths[i], i))
    deep_depth, shallow_depth = depths[victim], depths[shallow]
    gap = deep_depth - shallow_depth
    if gap < 2:
        return None
    ratio_fired = deep_depth >= spec.imbalance_ratio * max(1, shallow_depth)
    starvation_fired = shallow_depth <= spec.starvation_depth and deep_depth >= 2
    if not (ratio_fired or starvation_fired):
        return None
    count = min(spec.max_steals, gap // 2)
    if count < 1:
        return None
    return victim, count


# ----------------------------------------------------------------------
# Power-of-two-choices routing
# ----------------------------------------------------------------------
class PowerOfTwoChoicesRouter(Router):
    """Sample two nodes, place on the shallower published depth.

    The classic randomised load balancer: two uniform samples and a
    depth comparison achieve exponentially better balance than one
    random choice, at O(1) signal reads per placement regardless of
    fleet size.  The sampler is a seeded PCG64 stream re-seeded on
    every :meth:`reset`, so repeated serves of the same workload are
    exactly reproducible; the depth comparison breaks ties on node
    index like every other router.
    """

    name = "power-of-two-choices"
    needs_live_state = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def reset(self, nodes: Sequence[NodeState]) -> None:
        self._rng = np.random.default_rng(self.seed)

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> int:
        if len(nodes) == 1:
            return nodes[0].index
        first, second = self._rng.choice(len(nodes), size=2, replace=False)
        pair = sorted((nodes[int(first)], nodes[int(second)]), key=lambda n: n.index)
        return min(
            pair, key=lambda node: (node.published_depth(now), node.index)
        ).index


ROUTERS[PowerOfTwoChoicesRouter.name] = PowerOfTwoChoicesRouter
ROUTERS["p2c"] = PowerOfTwoChoicesRouter


# ----------------------------------------------------------------------
# Batch sharding
# ----------------------------------------------------------------------
def shard_requests(
    requests: Sequence[Request], max_shard_batch: int
) -> Tuple[List[Request], Dict[int, Tuple[int, ...]]]:
    """Split oversized input batches into slice-view shard requests.

    Every request whose batch exceeds ``max_shard_batch`` samples is
    replaced (in place in the arrival order) by ceil(batch/max) shards
    of at most ``max_shard_batch`` rows each.  Shards are slice *views*
    of the parent's input (no copy), inherit its arrival, deadline,
    priority and subnet cap, and take fresh ids numbered after the
    workload's largest id so the fleet-wide uniqueness invariant holds.
    Returns the new request list and ``{parent_id: (shard_ids...)}`` in
    slice order — the map :func:`gather_shard_logits` consumes.
    """
    if max_shard_batch < 1:
        raise ConfigError(
            f"shard_max_batch must be a positive integer, got {max_shard_batch!r}"
        )
    next_id = max((request.request_id for request in requests), default=-1) + 1
    sharded: List[Request] = []
    groups: Dict[int, Tuple[int, ...]] = {}
    for request in requests:
        if request.batch_size <= max_shard_batch:
            sharded.append(request)
            continue
        shard_ids: List[int] = []
        for start in range(0, request.batch_size, max_shard_batch):
            stop = min(start + max_shard_batch, request.batch_size)
            shard = replace(
                request,
                request_id=next_id,
                inputs=request.inputs[start:stop],
                labels=None if request.labels is None else request.labels[start:stop],
            )
            shard_ids.append(next_id)
            next_id += 1
            sharded.append(shard)
        groups[request.request_id] = tuple(shard_ids)
    return sharded, groups


def gather_shard_logits(
    jobs_by_id: Mapping[int, Any], groups: Mapping[int, Sequence[int]]
) -> Dict[int, Optional[np.ndarray]]:
    """Concatenate per-shard final logits back into parent answers.

    ``jobs_by_id`` maps request id to a finalised
    :class:`~repro.serving.engine.JobRecord`; shards are stacked in
    slice order, so row ``i`` of the gathered array is the logits of
    sample ``i`` of the parent batch.  A parent with any shard missing
    final logits (dropped, lost, rejected) gathers to ``None``.
    """
    gathered: Dict[int, Optional[np.ndarray]] = {}
    for parent_id, shard_ids in groups.items():
        parts: List[np.ndarray] = []
        for shard_id in shard_ids:
            record = jobs_by_id.get(shard_id)
            logits = None if record is None else record.final_logits
            if logits is None:
                parts = []
                break
            parts.append(np.asarray(logits))
        gathered[parent_id] = np.concatenate(parts, axis=0) if parts else None
    return gathered
