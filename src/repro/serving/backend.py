"""Execution backends: how one request's anytime inference is carried out.

An :class:`ExecutionBackend` owns a trained network, a step-up policy and
one :class:`~repro.core.incremental.IncrementalInference` engine.  It
opens an :class:`ExecutionSession` per request; the session exposes the
cost of the next subnet step (``next_step_macs``), executes it
(``advance``) and survives preemption — between two of its steps, other
sessions may use the engine, the accelerator's scratch state being moved
in and out via the engine's ``export_state`` / ``import_state``.

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
built once and every session on the platform serves from them.  The single-request
executors in :mod:`repro.runtime.executor` are one-request calls to the
:class:`~repro.serving.engine.ServingEngine` that drives these same
sessions, so "one batch on an idle device" and "hundreds of requests
under contention" exercise one code path.

Every backend also advances *groups*: sessions sitting at the same
subnet edge step together through one shared-plan pass
(:meth:`~repro.core.plan.NetworkPlan.execute_batch`).  Whether to group
is the serving engine's batching policy's call
(:mod:`repro.serving.batching`), not the backend's; per-request logits
are bit-equal to the solo path, so ``batch_policy="none"`` doubles as
the batching correctness oracle.

Backends also accept a ``num_subnets`` cap: a node declaring
``num_subnets=2`` serves only the two smallest subnet levels —
heterogeneous fleets use this to describe shallow nodes (an MCU that
cannot hold the larger subnets) straight from JSON configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from ..core.incremental import IncrementalInference, InferenceState, StepResult
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

    Sessions are lazily bound to the backend's shared inference engine:
    whenever a session advances it first re-imports its suspended state
    (if another session ran in between), models the cost of the next
    subnet level and records the outcome.  All state transfers are O(1).
    """

    def __init__(self, backend: "ExecutionBackend", inputs: np.ndarray) -> None:
        self.backend = backend
        self.inputs = inputs
        self._state: Optional[InferenceState] = None
        self._started = False
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
        if not self._started:
            return 0
        target = self._current_subnet + 1
        return target if target < self.backend.num_subnets else None

    def next_step_macs(self) -> Optional[float]:
        """Cost (MACs) the backend charges for the next step (None when done).

        Includes the honest recompute surcharge of an evicted context:
        if this session's caches were dropped while it waited, the next
        step must first replay every level it had executed, and that
        work is charged here — schedulers, policies and the trace all
        see the true cost of resuming an evicted job.
        """
        target = self.next_subnet()
        if target is None:
            return None
        cost = self.backend.step_cost(self._current_subnet if self._started else -1, target)
        return cost + self.pending_recompute_macs()

    # ------------------------------------------------------------------
    # Memory accounting and eviction hooks (see repro.serving.memory)
    # ------------------------------------------------------------------
    def resident_nbytes(self) -> int:
        """Bytes this session's context currently pins in memory.

        The delivered ``logits`` handed to the client are not counted —
        they live on the serving record either way; what is measured is
        the engine-side state (input copy, activation caches, plan aux
        buffers, working logits), whether suspended here or currently
        bound in the shared engine.
        """
        if self.backend._active is self:
            return self.backend._engine.state_nbytes()
        if self._state is None:
            return 0
        return self._state.nbytes()

    def drop_aux(self) -> int:
        """Tier-1 eviction: release the plan's aux buffers (transparent).

        Returns the bytes freed; the buffers rebuild from the activation
        cache on the next step, bit-for-bit and at no MAC charge.
        """
        self.backend.unbind(self)
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
        self.backend.unbind(self)
        if self._state is None:
            return 0
        freed = self._state.nbytes()
        self._state = None
        if self._started:
            self._recompute_pending = True
        return freed

    def close(self) -> int:
        """Release every resident buffer — the job left the system."""
        self.backend.unbind(self)
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

        This is the failover half of the PR-5 eviction contract: the
        checkpoint is just the executed-level history plus the delivered
        logits — no accelerator state crosses nodes.  The restored
        session is marked recompute-pending, so its next advance replays
        the history on *this* backend (bit-equal by the replay
        invariant) and charges the recompute MACs honestly.
        """
        if self._started or self._state is not None:
            raise RuntimeError("restore() requires a fresh session")
        levels = [int(level) for level in history]
        if levels and not 0 <= levels[-1] < self.backend.num_subnets:
            raise IndexError(
                f"checkpoint level {levels[-1]} out of range for backend "
                f"with {self.backend.num_subnets} subnets"
            )
        self._level_history = levels
        if levels:
            self._started = True
            self._current_subnet = levels[-1]
            self._recompute_pending = True
        self._last_logits = logits

    def _rebuild(self, engine: IncrementalInference) -> None:
        """Replay the executed level sequence on a fresh engine state.

        The replay runs the exact ``run`` / ``step_to`` sequence the job
        originally took (batched steps are bit-equal to solo ones, so
        one replay script covers both), which restores the activation
        caches, aux buffers and logits bit-for-bit.
        """
        levels = self._level_history
        engine.run(self.inputs, subnet=levels[0])
        for level in levels[1:]:
            engine.step_to(level)
        self._recompute_pending = False

    # ------------------------------------------------------------------
    def advance(self) -> StepOutcome:
        """Execute the next subnet level and return its outcome."""
        target = self.next_subnet()
        if target is None:
            raise RuntimeError("session already reached the largest subnet")
        cost = self.next_step_macs()
        recomputed = self.pending_recompute_macs()
        engine = self.backend.bind(self)
        if self._recompute_pending:
            self._rebuild(engine)
            step = engine.step_to(target)
        elif not self._started:
            step = engine.run(self.inputs, subnet=target)
        else:
            step = engine.step_to(target)
        self._note_step(step)
        reused = float(step.macs_reused) if self.backend.reuses_activations else 0.0
        if recomputed:
            # The "reused" MACs of this step were just recomputed, not
            # served from memory: report them as recompute, not reuse.
            reused = 0.0
        return StepOutcome(
            subnet=step.subnet,
            logits=step.logits,
            macs_charged=float(cost),
            macs_reused=reused,
            macs_recomputed=float(recomputed),
        )

    def suspend(self) -> None:
        """Explicitly detach this session's state from the shared engine."""
        self.backend.unbind(self)

    def _note_step(self, step: StepResult) -> None:
        """Session-side bookkeeping of one executed level.

        The single place the session's progress markers are written —
        the solo :meth:`advance` and the backend's batched group advance
        both go through it, so they can never drift apart.
        """
        self._started = True
        self._current_subnet = step.subnet
        self._last_logits = step.logits
        self._level_history.append(step.subnet)

    # ------------------------------------------------------------------
    # Used by the backend to move state in and out of the shared engine.
    def _export(self, engine: IncrementalInference) -> None:
        self._state = engine.export_state()

    def _import(self, engine: IncrementalInference) -> None:
        engine.import_state(self._state)
        self._state = None


class ExecutionBackend:
    """A network + policy + shared inference engine that serves sessions.

    Subclasses define :attr:`name`, :attr:`reuses_activations` and
    :meth:`step_cost` — everything else (session lifecycle, state
    swapping) is common.
    """

    name = "backend"
    reuses_activations = True

    def __init__(
        self,
        network,
        policy: Optional[SteppingPolicy] = None,
        apply_prune: bool = True,
        dtype=DEFAULT_SERVING_DTYPE,
        compiled: bool = True,
        plan: Optional[NetworkPlan] = None,
        num_subnets: Optional[int] = None,
    ) -> None:
        self.network = network
        self.policy = policy or GreedyPolicy()
        self.apply_prune = apply_prune
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        if num_subnets is not None and int(num_subnets) < 1:
            raise ValueError("num_subnets cap must be at least 1")
        #: Optional cap on the served subnet levels: a node with a cap of
        #: ``k`` refines requests no further than subnet ``k - 1``
        #: (shallow nodes in heterogeneous fleets).
        self._num_subnets_cap = None if num_subnets is None else int(num_subnets)
        # One compiled plan per (network, dtype, prune) platform: every
        # backend, engine and session serving this network shares the
        # same read-only packed weights (build once, serve many).
        if plan is None and compiled and NetworkPlan.supports(network):
            plan = NetworkPlan.for_network(
                network, apply_prune=apply_prune, dtype=self.dtype
            )
        self.plan = plan
        self._engine = IncrementalInference(
            network,
            apply_prune=apply_prune,
            dtype=self.dtype,
            compiled=compiled,
            plan=plan,
        )
        self._active: Optional[ExecutionSession] = None

    # ------------------------------------------------------------------
    @property
    def num_subnets(self) -> int:
        """Served subnet levels (the network's, shrunk by the node cap)."""
        total = self.network.num_subnets
        if self._num_subnets_cap is None:
            return total
        return min(self._num_subnets_cap, total)

    def subnet_macs(self, subnet: int) -> float:
        if self.plan is not None:
            return float(self.plan.subnet_macs[subnet])
        return float(self.network.subnet_macs(subnet, apply_prune=self.apply_prune))

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
        if subnet < 0 or not self.reuses_activations:
            return 0.0
        return self.subnet_macs(subnet)

    def context_nbytes(self, batch_size: int = 1) -> Optional[int]:
        """Predicted resident footprint of one started context.

        Plan-based (``None`` for uncompiled networks): what one request
        of ``batch_size`` samples pins once it has taken a step — used to
        size memory budgets and as the fleet router's per-request
        memory-demand estimate.
        """
        if self.plan is None:
            return None
        return self.plan.state_nbytes(batch_size)

    def open(self, inputs: np.ndarray) -> ExecutionSession:
        """Start a new session for one request's input batch."""
        return ExecutionSession(self, np.asarray(inputs))

    # ------------------------------------------------------------------
    # Observability: per-level wall-clock timing on the compiled plan.
    def attach_plan_timer(self, timer) -> None:
        """Point the compiled plan's per-level timer at ``timer``.

        The plan is shared per ``(network, dtype, prune)`` platform, so
        while attached *every* sharer's executes are timed into the one
        recorder — which is exactly what a fleet-wide trace wants.  The
        run that attached the timer detaches it when it finishes.
        """
        plan = getattr(self, "plan", None)
        if plan is not None:
            plan.timer = timer

    def detach_plan_timer(self) -> None:
        plan = getattr(self, "plan", None)
        if plan is not None:
            plan.timer = None

    # ------------------------------------------------------------------
    def group_edge(self, sessions: Sequence[ExecutionSession]) -> tuple:
        """The single ``(current, next)`` subnet edge shared by ``sessions``.

        Raises when the group is empty, mixes edges, or contains a
        finished session — batching policies must only group compatible
        work, so a violation here is a scheduling bug, not bad input.
        """
        if not sessions:
            raise ValueError("a session group must not be empty")
        edges = {
            (
                session.current_subnet if session._started else -1,
                session.next_subnet(),
            )
            for session in sessions
        }
        if len(edges) != 1:
            raise ValueError(
                f"sessions in one batch must share a subnet edge, got {sorted(edges)}"
            )
        from_subnet, target = edges.pop()
        if target is None:
            raise RuntimeError("session already reached the largest subnet")
        return from_subnet, target

    def advance_group(self, sessions: Sequence[ExecutionSession]) -> List[StepOutcome]:
        """Advance every session by one level through one shared plan pass.

        The stacking mechanic — detach every member's state, rebuild
        evicted members, synthesise fresh state for unstarted ones, run
        one :meth:`~repro.core.plan.NetworkPlan.execute_batch` walk and
        write the results back through ``_note_step`` — is the same for
        every cost model; only :meth:`step_cost` and
        :attr:`reuses_activations` differ.  Logits are bit-equal (same
        dtype) to each member's solo :meth:`ExecutionSession.advance`.
        A lone session takes that solo path; networks a plan cannot
        represent step each member solo after the edge check.
        """
        if len(sessions) == 1:
            return [sessions[0].advance()]
        from_subnet, target = self.group_edge(sessions)
        if self.plan is None:
            # Uncompiled network: no shared pass to run; step each member.
            return [session.advance() for session in sessions]
        cost = self.step_cost(from_subnet, target)
        states: List[InferenceState] = []
        recomputes: List[float] = []
        for session in sessions:
            # An evicted member first replays its executed levels solo
            # (bit-equal to the state it lost) and rejoins the batch with
            # its caches restored; the replay MACs are charged to it.
            recomputes.append(session.pending_recompute_macs())
            if session._recompute_pending:
                session._rebuild(self.bind(session))
            # A group member may be the engine's resident context from an
            # earlier solo step (or the rebuild above): detach it first so
            # every member's state is owned by its session while the
            # shared pass runs.
            if self._active is session:
                session._export(self._engine)
                self._active = None
            state = session._state
            if state is None:
                inputs = np.asarray(session.inputs, dtype=self.dtype)
                if inputs.ndim == 2 and self.network.spec._has_conv():
                    raise ValueError("convolutional network expects (N, C, H, W) input")
                state = InferenceState.fresh(inputs)
                session._state = state
            states.append(state)
        members = [
            BatchMember(
                inputs=state.input, cache=state.cache, aux=state.aux, logits=state.logits
            )
            for state in states
        ]
        batch_logits = self.plan.execute_batch(members, from_subnet, target)
        macs_to = int(self.plan.subnet_macs[target])
        macs_from = int(self.plan.subnet_macs[from_subnet]) if from_subnet >= 0 else 0
        outcomes: List[StepOutcome] = []
        for session, state, logits, recomputed in zip(
            sessions, states, batch_logits, recomputes
        ):
            step = StepResult.from_macs(target, logits, macs_to, macs_from)
            state.logits = logits
            state.current_subnet = target
            state.steps.append(step)
            session._note_step(step)
            reused = float(macs_from) if self.reuses_activations else 0.0
            if recomputed:
                reused = 0.0  # rebuilt this dispatch, not served from memory
            outcomes.append(
                StepOutcome(
                    subnet=target,
                    logits=logits,
                    macs_charged=float(cost + recomputed),
                    macs_reused=reused,
                    macs_recomputed=float(recomputed),
                )
            )
        return outcomes

    # ------------------------------------------------------------------
    # Engine context switching (accelerator scratch-memory model).
    def bind(self, session: ExecutionSession) -> IncrementalInference:
        """Make ``session`` the engine's resident context."""
        if self._active is not session:
            if self._active is not None:
                self._active._export(self._engine)
            session._import(self._engine)
            self._active = session
        return self._engine

    def unbind(self, session: ExecutionSession) -> None:
        if self._active is session:
            session._export(self._engine)
            self._active = None


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
    #: Memoised ``(level, stop_reason)`` of the last continuation check,
    #: valid only while the policy is not time-sensitive (the verdict at
    #: one level cannot change until the session advances).  Continuous
    #: batching re-asks the same question for every refill candidate at
    #: every round; the memo turns those re-asks into a tuple compare.
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
        return (
            self.session.current_subnet if self.started else -1,
            self.session.next_subnet(),
        )

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
