"""Execution backends: how one request's anytime inference is carried out.

An :class:`ExecutionBackend` owns a trained network, a step-up policy and
the executor every step runs through.  It opens an
:class:`ExecutionSession` per request; the session owns that request's
:class:`~repro.core.incremental.InferenceState` (input copy, activation
caches, plan aux buffers, logits) for its whole life, exposes the cost
of the next subnet step (``next_step_macs``), executes it (``advance``)
and survives preemption — between two of its steps other sessions run,
and its state simply waits on the session.

Two concrete backends reproduce the paper's deployment comparison:

* :class:`SteppingBackend` — SteppingNet: stepping from subnet ``i`` to
  ``i+1`` costs only the delta MACs (activation reuse);
* :class:`RecomputeBackend` — a slimmable-style platform: every step
  re-executes the full target subnet from scratch.

Both produce identical logits per level (the same subnet is evaluated);
only the charged cost differs, so serving the same request stream
through both isolates the value of reuse under load.  Backends execute
over a compiled :class:`~repro.core.plan.NetworkPlan` shared per
``(network, dtype, apply_prune)`` platform — the packed weights are
built once and every session on the platform serves from them.  A
network no plan can represent (the slimmable baseline) raises
:class:`~repro.utils.errors.ConfigError` when the backend is built.
The single-request executors in :mod:`repro.runtime.executor` are
one-request calls to the :class:`~repro.serving.engine.ServingEngine`
that drives these same sessions, so "one batch on an idle device" and
"hundreds of requests under contention" exercise one code path.

Every step is a *group* step: :meth:`ExecutionBackend.advance_group`
advances sessions sitting at the same subnet edge in one dispatch
(:meth:`~repro.core.plan.NetworkPlan.execute_batch`, which runs the
edge's compiled program once per member), and
:meth:`ExecutionSession.advance` is a group of one.  Whether to group
is the serving engine's batching policy's call
(:mod:`repro.serving.batching`), not the backend's; per-request logits
are bit-equal to solo :class:`~repro.core.incremental.IncrementalInference`
steps, the reference the tests check every serving path against.

Backends also accept a ``num_subnets`` cap: a node declaring
``num_subnets=2`` serves only the two smallest subnet levels —
heterogeneous fleets use this to describe shallow nodes (an MCU that
cannot hold the larger subnets) straight from JSON configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from ..core.incremental import InferenceState
from ..core.plan import BatchMember, NetworkPlan
from ..runtime.policies import GreedyPolicy, SteppingPolicy
from ..utils.errors import ConfigError
from .request import Request

#: Inference-path dtype: serving runs float32 by default (half the memory
#: traffic, same comparisons), while the single-shot executors default to
#: float64 to reproduce the training-time forward pass bit-for-bit.
DEFAULT_SERVING_DTYPE = np.dtype(np.float32)


@dataclass
class StepOutcome:
    """Result of advancing a session by one subnet level.

    ``macs_charged`` includes ``macs_recomputed`` — the extra MACs spent
    replaying an evicted context's executed levels before this step could
    run (zero unless the session's activation caches were evicted while
    suspended; see :mod:`repro.serving.memory`).
    """

    subnet: int
    logits: np.ndarray
    macs_charged: float
    macs_reused: float
    macs_recomputed: float = 0.0
    #: ``prediction_confidence(logits)``, filled by the serving run once
    #: per executed pass (never by backends): the continuation verdict
    #: and the served-step record both read it.
    confidence: Optional[float] = None


class ExecutionSession:
    """One request's in-flight execution state on a backend.

    The session owns the request's :class:`InferenceState` from its first
    step until it is evicted or closed; no other session ever touches
    it.  Advancing models the cost of the next subnet level, executes it
    through the backend (a group of one) and records the outcome.
    """

    def __init__(
        self, backend: "ExecutionBackend", inputs: np.ndarray, checked: bool = False
    ) -> None:
        self.backend = backend
        self.inputs = inputs
        #: Whether the input shape was validated (by the opener, or by
        #: this session's first step); replays do not check it again.
        self._checked = checked
        self._state: Optional[InferenceState] = None
        self._current_subnet = -1
        self._last_logits: Optional[np.ndarray] = None
        #: Subnet levels executed so far, in order — the replay script
        #: that rebuilds an evicted context bit-for-bit.
        self._level_history: List[int] = []
        #: Set when the activation caches were evicted while suspended;
        #: the next advance replays ``_level_history`` first (and the
        #: backend charges those MACs via :meth:`pending_recompute_macs`).
        self._recompute_pending = False

    # ------------------------------------------------------------------
    @property
    def current_subnet(self) -> int:
        """Last completed subnet level (-1 before the first step)."""
        return self._current_subnet

    @property
    def logits(self) -> Optional[np.ndarray]:
        """Logits of the last completed level."""
        return self._last_logits

    def next_subnet(self) -> Optional[int]:
        """The level the next :meth:`advance` would execute (None when done)."""
        return self.backend._edges[self._current_subnet + 1][1]

    @property
    def edge(self) -> tuple:
        """The ``(current, next)`` subnet edge — sessions sharing one share a pass."""
        return self.backend._edges[self._current_subnet + 1]

    def next_step_macs(self) -> Optional[float]:
        """Cost (MACs) the backend charges for the next step (None when done).

        Includes the honest recompute surcharge of an evicted context:
        if this session's caches were dropped while it waited, the next
        step must first replay every level it had executed, and that
        work is charged here — schedulers, policies and the trace all
        see the true cost of resuming an evicted job.
        """
        cost = self.backend._step_macs[self._current_subnet + 1]
        if cost is None or not self._recompute_pending:
            return cost
        return cost + self.pending_recompute_macs()

    # ------------------------------------------------------------------
    # Memory accounting and eviction hooks (see repro.serving.memory)
    # ------------------------------------------------------------------
    def resident_nbytes(self) -> int:
        """Bytes this session's context currently pins in memory.

        The delivered ``logits`` handed to the client are not counted —
        they live on the serving record either way; what is measured is
        the session's inference state (input copy, activation caches,
        plan aux buffers, working logits).
        """
        if self._state is None:
            return 0
        return self._state.nbytes()

    def drop_aux(self) -> int:
        """Tier-1 eviction: release the plan's aux buffers (transparent).

        Returns the bytes freed; the buffers rebuild from the activation
        cache on the next step, bit-for-bit and at no MAC charge.
        """
        if self._state is None:
            return 0
        return self._state.drop_aux()

    def drop_state(self) -> int:
        """Tier-2 eviction: release the whole context (recompute on resume).

        Returns the bytes freed.  The job's serving-level progress
        markers (current subnet, delivered logits) survive — only the
        accelerator-side state is gone, so the next advance replays the
        executed levels first and the backend charges those MACs.
        """
        if self._state is None:
            return 0
        freed = self._state.nbytes()
        self._state = None
        if self._current_subnet >= 0:
            self._recompute_pending = True
        return freed

    def close(self) -> int:
        """Release every resident buffer — the job left the system."""
        if self._state is None:
            return 0
        freed = self._state.nbytes()
        self._state = None
        self._recompute_pending = False
        return freed

    def pending_recompute_macs(self) -> float:
        """MACs the next advance must spend rebuilding evicted state."""
        if not self._recompute_pending or self._current_subnet < 0:
            return 0.0
        return self.backend.recompute_macs(self._current_subnet)

    @property
    def level_history(self) -> List[int]:
        """Copy of the executed-level replay script (checkpoint payload)."""
        return list(self._level_history)

    def restore(self, history: Sequence[int], logits: Optional[np.ndarray]) -> None:
        """Seed a fresh session with another session's checkpoint.

        This is the failover half of the eviction contract: the
        checkpoint is just the executed-level history plus the delivered
        logits — no accelerator state crosses nodes.  The restored
        session is marked recompute-pending, so its next advance replays
        the history on *this* backend (bit-equal by the replay
        invariant) and charges the recompute MACs honestly.
        """
        if self._current_subnet >= 0 or self._state is not None:
            raise RuntimeError("restore() requires a fresh session")
        levels = [int(level) for level in history]
        if levels and not 0 <= levels[-1] < self.backend.num_subnets:
            raise IndexError(
                f"checkpoint level {levels[-1]} out of range for backend "
                f"with {self.backend.num_subnets} subnets"
            )
        self._level_history = levels
        if levels:
            self._current_subnet = levels[-1]
            self._recompute_pending = True
        self._last_logits = logits

    # ------------------------------------------------------------------
    def advance(self) -> StepOutcome:
        """Execute the next subnet level and return its outcome."""
        return self.backend.advance_group([self])[0]


class ExecutionBackend:
    """A network + policy + executor that serves sessions.

    Subclasses define :attr:`name`, :attr:`reuses_activations` and
    :meth:`step_cost` — everything else (session lifecycle, replay,
    step execution) is common.
    """

    name = "backend"
    reuses_activations = True

    def __init__(
        self,
        network,
        policy: Optional[SteppingPolicy] = None,
        apply_prune: bool = True,
        dtype=DEFAULT_SERVING_DTYPE,
        num_subnets: Optional[int] = None,
    ) -> None:
        self.network = network
        self.policy = policy or GreedyPolicy()
        self.apply_prune = apply_prune
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        if num_subnets is not None and int(num_subnets) < 1:
            raise ConfigError("num_subnets cap must be at least 1")
        # One compiled plan per (network, dtype, prune) platform: every
        # backend and session serving this network shares the same
        # read-only packed weights (build once, serve many).
        self.plan = NetworkPlan.for_network(network, apply_prune=apply_prune, dtype=self.dtype)
        #: Served subnet levels: the network's, shrunk by the optional
        #: node cap (a node capped at ``k`` refines no further than
        #: subnet ``k - 1`` — shallow nodes in heterogeneous fleets).
        count = network.num_subnets
        self.num_subnets = count if num_subnets is None else min(int(num_subnets), count)
        # Per-level tables, fixed here and indexed by a session's current
        # level + 1: its ``(current, next)`` edge, the MACs its next step
        # charges (None at the top) and the MACs its context holds — what
        # a warm step from it reuses and what rebuilding it replays.
        levels = range(-1, self.num_subnets)
        top = self.num_subnets - 1
        self._edges = tuple((level, level + 1 if level < top else None) for level in levels)
        self._step_macs = tuple(
            self.step_cost(level, level + 1) if level < top else None for level in levels
        )
        self._held_macs = tuple(
            self.subnet_macs(level) if level >= 0 and self.reuses_activations else 0.0
            for level in levels
        )

    # ------------------------------------------------------------------
    def subnet_macs(self, subnet: int) -> float:
        return float(self.plan.subnet_macs[subnet])

    def step_cost(self, from_subnet: int, to_subnet: int) -> float:
        """MACs charged for stepping ``from_subnet`` -> ``to_subnet``."""
        raise NotImplementedError

    def recompute_macs(self, subnet: int) -> float:
        """MACs to rebuild an evicted context last completed at ``subnet``.

        For reuse backends the replay telescopes to the full cost of the
        reached subnet; the recompute baseline charges nothing — it pays
        the full subnet on every step anyway, so it has no cached work to
        lose (the paper-level story: reuse is what memory buys).
        """
        return self._held_macs[subnet + 1] if subnet >= 0 else 0.0

    def context_nbytes(self, batch_size: int = 1) -> int:
        """Predicted resident footprint of one started context.

        Plan-based: what one request of ``batch_size`` samples pins once
        it has taken a step — used to size memory budgets and as the
        fleet router's per-request memory-demand estimate.
        """
        return self.plan.state_nbytes(batch_size)

    def open(self, inputs: np.ndarray, *, checked: bool = False) -> ExecutionSession:
        """Start a new session for one request's input batch.

        Its first step raises :class:`ConfigError` on a batch the network
        does not take.  ``checked=True`` says the caller already validated
        the shape with
        :meth:`~repro.models.spec.ArchitectureSpec.input_shape_problem`,
        as a serving run does when a request is pushed, so no step checks
        it again.
        """
        return ExecutionSession(self, np.asarray(inputs), checked)

    # ------------------------------------------------------------------
    def advance_group(self, sessions: Sequence[ExecutionSession]) -> List[StepOutcome]:
        """Advance every session by one level in one dispatch.

        The only advance path, for groups of one or more: give each
        unstarted or evicted member a fresh state (its input validated
        and cast once), replay an evicted or restored member's executed
        levels, run the edge's step on every member (one compiled edge
        program per member), and build each outcome from the per-level
        tables.  Only :meth:`step_cost` and :attr:`reuses_activations`
        differ between cost models.  Logits are bit-equal (same dtype) to
        each member's solo :class:`IncrementalInference` steps.

        Raises when the group is empty, mixes edges, or contains a
        finished session — batching policies must only group compatible
        work, so a violation here is a scheduling bug, not bad input.
        """
        if len(sessions) == 1:
            edge = sessions[0].edge
        else:
            edges = {session.edge for session in sessions}
            if len(edges) != 1:
                raise ValueError(
                    f"sessions in one batch must share a subnet edge, got {sorted(edges)}"
                    if edges
                    else "a session group must not be empty"
                )
            edge = edges.pop()
        from_subnet, target = edge
        if target is None:
            raise RuntimeError("session already reached the largest subnet")
        for session in sessions:
            if session._state is None:
                session._state = self._fresh_state(session)
        recomputes = [session.pending_recompute_macs() for session in sessions]
        for session in sessions:
            if session._recompute_pending:
                self._replay(session)
        cost = self._step_macs[from_subnet + 1]
        held = self._held_macs[from_subnet + 1]
        outcomes: List[StepOutcome] = []
        for session, logits, recomputed in zip(
            sessions, self._execute(sessions, from_subnet, target), recomputes
        ):
            session._current_subnet = target
            session._last_logits = logits
            session._level_history.append(target)
            # A replayed member's "reused" MACs were just recomputed, not
            # served from memory: report them as recompute, not reuse.
            reused = 0.0 if recomputed else held
            outcomes.append(StepOutcome(target, logits, cost + recomputed, reused, recomputed))
        return outcomes

    def _fresh_state(self, session: ExecutionSession) -> InferenceState:
        """A not-yet-started state for ``session``'s inputs, cast once.

        The shape is checked once per session, at its first step, unless
        the opener already checked it; a replay does not check again.
        """
        inputs = np.asarray(session.inputs, dtype=self.dtype)
        if not session._checked:
            problem = self.network.spec.input_shape_problem(inputs.shape)
            if problem is not None:
                raise ConfigError(f"inputs {problem}")
            session._checked = True
        return InferenceState.fresh(inputs)

    def _replay(self, session: ExecutionSession) -> None:
        """Rebuild an evicted or restored context from its level history.

        The replay runs the job's original level sequence through the
        same executor as every step (grouped steps are bit-equal to solo
        ones, so one script covers both), restoring the activation
        caches, aux buffers and logits bit-for-bit.
        """
        previous = -1
        for level in session._level_history:
            self._execute([session], previous, level)
            previous = level
        session._recompute_pending = False

    def _execute(
        self, sessions: Sequence[ExecutionSession], from_subnet: int, to_subnet: int
    ) -> List[np.ndarray]:
        """Step every session's state ``from_subnet -> to_subnet``; return their logits."""
        states = [session._state for session in sessions]
        if len(states) == 1:  # a lone member skips the batch wrapper
            state = states[0]
            args = (state.input, state.cache, state.aux, state.logits, from_subnet, to_subnet)
            outs = [self.plan.execute(*args)]
        else:
            members = [BatchMember(s.input, s.cache, s.aux, s.logits) for s in states]
            outs = self.plan.execute_batch(members, from_subnet, to_subnet)
        for state, logits in zip(states, outs):
            state.logits = logits
            state.current_subnet = to_subnet
        return outs


class SteppingBackend(ExecutionBackend):
    """SteppingNet serving: step-ups pay only the delta MACs."""

    name = "steppingnet"
    reuses_activations = True

    def step_cost(self, from_subnet: int, to_subnet: int) -> float:
        base = self.subnet_macs(from_subnet) if from_subnet >= 0 else 0.0
        return self.subnet_macs(to_subnet) - base


class RecomputeBackend(ExecutionBackend):
    """Slimmable-style serving: every step re-executes the full subnet.

    Logits are computed with the same incremental engine (identical
    numerics per level); only the charged MACs model the recomputation —
    the slimmable-network deployment the paper compares against
    (:class:`~repro.runtime.executor.RecomputeExecutor` serves on it).
    """

    name = "recompute"
    reuses_activations = False

    def step_cost(self, from_subnet: int, to_subnet: int) -> float:
        return self.subnet_macs(to_subnet)


#: Name-based registry of execution backends, mirroring ``SCHEDULERS``:
#: declarative configs (:class:`~repro.serving.spec.ServingSpec`) refer to
#: backends by kind.  ``"stepping"`` is the canonical key; the class-level
#: ``name`` attributes (``"steppingnet"``, ``"recompute"``) are accepted
#: as aliases so report fields round-trip back into configs.  The
#: ``"batched*"`` keys name the same two classes — every backend batches
#: — and stay so existing configs keep loading.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "stepping": SteppingBackend,
    SteppingBackend.name: SteppingBackend,
    RecomputeBackend.name: RecomputeBackend,
    "batched": SteppingBackend,
    "batched-stepping": SteppingBackend,
    "batched-recompute": RecomputeBackend,
}


def get_backend(name: str) -> Type[ExecutionBackend]:
    """Resolve an execution-backend class by registry name."""
    try:
        return BACKENDS[name.lower()]
    except KeyError as exc:
        raise ConfigError(
            f"unknown backend '{name}'; available: {sorted(BACKENDS)}"
        ) from exc


@dataclass
class ServingJob:
    """Scheduler-visible bookkeeping for one in-flight request.

    Wraps the immutable :class:`~repro.serving.request.Request` together
    with its :class:`ExecutionSession` and the engine's progress notes;
    schedulers read ``request`` (arrival, deadline, priority) and may
    inspect progress (e.g. least-attained-service policies later).
    """

    request: Request
    session: ExecutionSession
    steps_executed: int = 0
    #: Simulated finish time of the job's last executed step — the
    #: recency signal LRU eviction orders on.
    last_executed_at: Optional[float] = None
    #: Memoised ``(key, stop_reason)`` of the last continuation verdict.
    #: The key is everything the verdict reads that can change while the
    #: job waits at one level — ``(level, now, scheduler depth, next-step
    #: MACs)``, or the level alone under a time-insensitive policy — so a
    #: hit is exact: the verdict a dispatch's settle computed serves the
    #: next pick at the same clock, and continuous batching's re-asks for
    #: refill candidates become a tuple compare.
    stop_memo: Optional[tuple] = None
    #: Retry attempts consumed so far (transient failures + failovers).
    #: Travels with the job across nodes; the retry budget is per
    #: request, not per node.
    retries: int = 0
    #: ``prediction_confidence`` of the session's current logits (the
    #: last executed step's), handed to every continuation verdict;
    #: None before the first step.
    confidence: Optional[float] = None

    @property
    def started(self) -> bool:
        return self.steps_executed > 0

    @property
    def current_subnet(self) -> int:
        return self.session.current_subnet

    @property
    def edge(self) -> tuple:
        """The job's ``(current, next)`` subnet edge — the batching key.

        Two jobs share a forward pass exactly when their edges are
        equal; the schedulers' per-edge ready index buckets on this.
        Session-less jobs (scheduler unit tests) sit at the entry edge
        ``(-1, 0)``, where every real request also starts.
        """
        if self.session is None:
            return (-1, 0)
        return self.session.edge

    @property
    def pending_recompute_macs(self) -> float:
        """Replay surcharge the job's next step must pay (0 when warm)."""
        if self.session is None:
            return 0.0
        return self.session.pending_recompute_macs()

    @property
    def resident_nbytes(self) -> int:
        """Bytes this job's inference context currently pins."""
        return self.session.resident_nbytes()
