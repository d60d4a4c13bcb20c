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

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..utils.errors import ConfigError
from .cluster import ROUTERS, NodeState, Router
from .codec import Spec, flag, integer, number
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
class RebalanceSpec(Spec):
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

    enabled: bool = flag(False)
    interval: float = number(0.0, ge=0)
    imbalance_ratio: float = number(2.0, ge=1)
    starvation_depth: int = integer(0, ge=0)
    max_steals: int = integer(4, ge=1)
    steal_in_flight: bool = flag(False)
    shard_max_batch: Optional[int] = integer(None, ge=1)


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
    exactly reproducible; the depth comparison breaks ties toward the
    earlier candidate like every other router.
    """

    name = "power-of-two-choices"
    needs_live_state = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def reset(self, nodes: Sequence[NodeState]) -> None:
        self._rng = np.random.default_rng(self.seed)

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> NodeState:
        if len(nodes) == 1:
            return nodes[0]
        pair = sorted(int(i) for i in self._rng.choice(len(nodes), size=2, replace=False))
        return min((nodes[i] for i in pair), key=lambda node: node.published_depth(now))


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
