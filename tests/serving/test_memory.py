"""Property tests for the bounded resident-context memory budget.

The load-bearing invariant of :mod:`repro.serving.memory` — and the
headline test here — is *bit-equality*: for any budget large enough to
hold one running context, every request's per-step and final logits
under eviction are identical to the unbounded run across eviction
policies, batching (solo steps and shared-plan batched passes) and dtypes.
Eviction may only trade latency and MAC counts for memory, never
answers.

Alongside it, seeded randomized fuzz pins down the operational
guarantees: the resident budget is never exceeded between events, the
job that just ran is never evicted while any colder context remains,
recompute MACs are charged exactly (``bounded total == unbounded total +
recomputed``), and an evicted batch member recomputes, rejoins a later
shared pass and still matches the oracle bit-for-bit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.core.incremental import IncrementalInference
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    EVICTION_POLICIES,
    LargestFirstEviction,
    LowestProgressEviction,
    LRUEviction,
    MemoryBudget,
    RecomputeBackend,
    Request,
    ServingEngine,
    SteppingBackend,
    get_eviction_policy,
)
from repro.serving.backend import ExecutionSession, ServingJob
from repro.serving.engine import ServingRun

POLICY_NAMES = ("lru", "largest-first", "lowest-progress")


def _full_quality():
    """Refine to the largest subnet regardless of time or confidence.

    Eviction changes step *timing* (recompute is charged honestly), so
    the bit-equality property is stated over time-blind refinement: the
    step sequence must not depend on the clock, only the answers.
    """
    return ConfidencePolicy(threshold=1.0, respect_deadline=False)


def _constant_trace(network, seconds_for_largest=0.4):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="constant")


def _random_requests(rng, images, count, mean_gap=0.15, deadlines=True):
    """Oversubscribed arrivals; random deadlines drive EDF preemption."""
    requests = []
    arrival = 0.0
    for index in range(count):
        arrival += float(rng.exponential(mean_gap))
        deadline = (
            arrival + float(rng.uniform(0.3, 8.0)) if deadlines else None
        )
        requests.append(
            Request(
                request_id=index,
                arrival_time=arrival,
                inputs=images[index % len(images)][None],
                deadline=deadline,
            )
        )
    return requests


def _serve(
    network,
    requests,
    *,
    budget=None,
    policy="lru",
    batched=False,
    scheduler="edf",
    backend_cls=SteppingBackend,
    dtype=np.float32,
    batch_policy=None,
):
    if batch_policy is None and batched:
        batch_policy = "same-level"
    engine = ServingEngine(
        backend_cls(network, policy=_full_quality(), dtype=dtype),
        _constant_trace(network),
        scheduler,
        batch_policy=batch_policy,
        memory_budget_bytes=budget,
        eviction_policy=policy,
        enforce_deadline=False,
    )
    return engine.serve(requests)


def _context_bytes(network, dtype=np.float32, batch_size=1):
    """Predicted footprint of one running context (batch-size-1 request)."""
    engine = IncrementalInference(network, dtype=dtype)
    return engine.plan.state_nbytes(batch_size)


def _assert_bit_equal(oracle, bounded):
    """Every request's outcome matches the unbounded run bit-for-bit."""
    assert len(oracle.jobs) == len(bounded.jobs)
    for a, b in zip(oracle.jobs, bounded.jobs):
        assert a.request.request_id == b.request.request_id
        assert a.status == b.status
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert sa.subnet == sb.subnet
            assert np.array_equal(sa.logits, sb.logits)
        assert np.array_equal(a.final_logits, b.final_logits)


# ----------------------------------------------------------------------
# Footprint accounting
# ----------------------------------------------------------------------
class TestFootprintAccounting:
    def test_plan_prediction_matches_measured_state(self, stepping_network, sample_pool):
        images, _ = sample_pool
        engine = IncrementalInference(stepping_network, dtype=np.float32)
        engine.run(images[:2], subnet=0)
        predicted = engine.plan.state_nbytes(2)
        assert engine.state_nbytes() == predicted
        # Caches are full-width from the first step: stepping further
        # changes no allocation, only the tiny logits stay constant too.
        engine.step_to(2)
        assert engine.state_nbytes() == predicted
        state = engine.export_state()
        assert state.nbytes() == predicted
        assert engine.state_nbytes() == 0  # engine reset on export

    def test_state_nbytes_scales_with_batch(self, stepping_network):
        engine = IncrementalInference(stepping_network, dtype=np.float32)
        single = engine.plan.state_nbytes(1)
        assert engine.plan.state_nbytes(4) == 4 * single
        with pytest.raises(ValueError, match="batch_size"):
            engine.plan.state_nbytes(0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["conv", "mlp"])
    def test_prediction_matches_measured_state_per_batch(
        self, kind, dtype, stepping_network, mlp_spec, rng
    ):
        if kind == "conv":
            network = stepping_network
        else:
            network = SteppingNetwork(mlp_spec, num_subnets=4, rng=rng)
            set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
        shape = tuple(network.spec.input_shape)
        for batch_size in range(1, 5):
            engine = IncrementalInference(network, dtype=dtype)
            engine.run(rng.standard_normal((batch_size,) + shape), subnet=0)
            assert engine.plan.state_nbytes(batch_size) == engine.state_nbytes()
        for invalid in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                engine.plan.state_nbytes(invalid)

    def test_dtype_halves_footprint(self, stepping_network):
        f32 = IncrementalInference(stepping_network, dtype=np.float32)
        f64 = IncrementalInference(stepping_network, dtype=np.float64)
        assert f64.plan.state_nbytes(1) == 2 * f32.plan.state_nbytes(1)

    def test_plan_own_weights_are_counted_separately(self, stepping_network):
        plan = IncrementalInference(stepping_network, dtype=np.float32).plan
        assert plan.nbytes > 0  # the shared packed slabs, not per-request

    def test_drop_aux_frees_exactly_the_aux_bytes(self, stepping_network, sample_pool):
        images, _ = sample_pool
        engine = IncrementalInference(stepping_network, dtype=np.float32)
        engine.run(images[:1], subnet=1)
        state = engine.export_state()
        aux = state.aux_nbytes()
        total = state.nbytes()
        assert aux > 0
        assert state.drop_aux() == aux
        assert state.nbytes() == total - aux
        assert state.drop_aux() == 0  # idempotent

    def test_drop_aux_is_transparent_bitwise(self, stepping_network, sample_pool):
        """Tier-1 eviction changes no logits: buffers rebuild from cache."""
        images, _ = sample_pool
        engine = IncrementalInference(stepping_network, dtype=np.float32)
        control = IncrementalInference(stepping_network, dtype=np.float32)
        engine.run(images[:2], subnet=0)
        control.run(images[:2], subnet=0)
        state = engine.export_state()
        state.drop_aux()
        engine.import_state(state)
        assert np.array_equal(engine.step_to(2).logits, control.step_to(2).logits)

    def test_session_drop_state_sets_recompute(self, stepping_network, sample_pool):
        images, _ = sample_pool
        backend = SteppingBackend(stepping_network, dtype=np.float32)
        session = backend.open(images[:1])
        session.advance()
        session.advance()
        plain_cost = backend.step_cost(1, 2)
        assert session.next_step_macs() == plain_cost
        resident = session.resident_nbytes()
        assert resident == backend.context_nbytes(1)
        logits_before = session.logits
        assert session.drop_state() == resident
        assert session.resident_nbytes() == 0
        assert session.logits is logits_before  # delivered answer survives
        assert session.pending_recompute_macs() == backend.subnet_macs(1)
        assert session.next_step_macs() == plain_cost + backend.subnet_macs(1)
        # Resuming replays levels 0..1 bit-exactly, then steps to 2.
        control = SteppingBackend(stepping_network, dtype=np.float32).open(images[:1])
        for _ in range(3):
            expected = control.advance()
        outcome = session.advance()
        assert outcome.macs_recomputed == backend.subnet_macs(1)
        assert outcome.macs_charged == plain_cost + backend.subnet_macs(1)
        assert outcome.macs_reused == 0.0  # rebuilt, not served from memory
        assert np.array_equal(outcome.logits, expected.logits)


# ----------------------------------------------------------------------
# Eviction policies
# ----------------------------------------------------------------------
class TestEvictionPolicies:
    def test_registry(self):
        assert set(POLICY_NAMES) <= set(EVICTION_POLICIES)
        assert isinstance(get_eviction_policy("lru"), LRUEviction)
        assert isinstance(get_eviction_policy("largest-first"), LargestFirstEviction)
        assert isinstance(get_eviction_policy("lowest-progress"), LowestProgressEviction)
        with pytest.raises(KeyError, match="eviction"):
            get_eviction_policy("random-discard")

    def _jobs(self, stepping_network, sample_pool, levels):
        images, _ = sample_pool
        backend = SteppingBackend(stepping_network, dtype=np.float32)
        jobs = []
        for index, (level, batch) in enumerate(levels):
            session = backend.open(images[:batch])
            for _ in range(level + 1):
                session.advance()
            jobs.append(
                ServingJob(
                    request=Request(request_id=index, arrival_time=0.0, inputs=images[:batch]),
                    session=session,
                    steps_executed=level + 1,
                    last_executed_at=float(index),
                )
            )
        return jobs

    @staticmethod
    def _sizes(jobs):
        return {job.request.request_id: job.session.resident_nbytes() for job in jobs}

    def test_lru_orders_coldest_first(self, stepping_network, sample_pool):
        jobs = self._jobs(stepping_network, sample_pool, [(0, 1), (1, 1), (2, 1)])
        jobs[0].last_executed_at = 5.0  # hottest despite lowest id
        order = LRUEviction().victims(jobs, now=9.0, sizes=self._sizes(jobs))
        assert [job.request.request_id for job in order] == [1, 2, 0]

    def test_largest_first_orders_by_bytes(self, stepping_network, sample_pool):
        jobs = self._jobs(stepping_network, sample_pool, [(1, 1), (1, 4), (1, 2)])
        order = LargestFirstEviction().victims(jobs, now=0.0, sizes=self._sizes(jobs))
        assert [job.request.request_id for job in order] == [1, 2, 0]

    def test_lowest_progress_orders_by_subnet(self, stepping_network, sample_pool):
        jobs = self._jobs(stepping_network, sample_pool, [(2, 1), (0, 1), (1, 1)])
        order = LowestProgressEviction().victims(jobs, now=0.0, sizes=self._sizes(jobs))
        assert [job.request.request_id for job in order] == [1, 2, 0]

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            MemoryBudget(0)
        with pytest.raises(ValueError, match="finite"):
            MemoryBudget(float("inf"))
        with pytest.raises(KeyError, match="eviction"):
            MemoryBudget(1024, "fifo")
        assert not MemoryBudget(None).bounded
        clone = MemoryBudget(1024, "largest-first").clone()
        assert clone.budget_bytes == 1024 and clone.policy.name == "largest-first"


# ----------------------------------------------------------------------
# The headline property: bit-equality under any adequate budget
# ----------------------------------------------------------------------
class TestBitEqualityUnderEviction:
    """Eviction trades latency and MACs for memory — never answers."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stepping_backend_bit_equal(self, stepping_network, sample_pool, policy, dtype):
        images, _ = sample_pool
        context = _context_bytes(stepping_network, dtype)
        requests = _random_requests(np.random.default_rng(2), images, 14)
        oracle = _serve(stepping_network, requests, dtype=dtype)
        bounded = _serve(
            stepping_network,
            requests,
            budget=int(context * 1.2),
            policy=policy,
            dtype=dtype,
        )
        assert bounded.cache_evictions > 0  # tier 2 genuinely engaged
        assert bounded.aux_evictions > 0
        _assert_bit_equal(oracle, bounded)

    def test_inputs_checked_once_per_request(self, stepping_network, sample_pool, monkeypatch):
        """The run checks each request's shape at push; the replays of
        evicted contexts do not check it again."""
        images, _ = sample_pool
        requests = _random_requests(np.random.default_rng(2), images, 14)
        calls = []
        original = type(stepping_network.spec).input_shape_problem
        monkeypatch.setattr(
            type(stepping_network.spec),
            "input_shape_problem",
            lambda spec, shape: calls.append(shape) or original(spec, shape),
        )
        context = _context_bytes(stepping_network)
        bounded = _serve(stepping_network, requests, budget=int(context * 1.2))
        assert bounded.cache_evictions > 0  # replays genuinely happened
        assert len(calls) == len(requests)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_backend_bit_equal(self, stepping_network, sample_pool, policy, dtype):
        images, _ = sample_pool
        context = _context_bytes(stepping_network, dtype)
        requests = _random_requests(
            np.random.default_rng(7), images, 14, deadlines=False
        )
        oracle = _serve(
            stepping_network, requests, batched=True, scheduler="fifo", dtype=dtype
        )
        bounded = _serve(
            stepping_network,
            requests,
            budget=int(context * 1.6),
            policy=policy,
            batched=True,
            scheduler="fifo",
            dtype=dtype,
        )
        assert bounded.cache_evictions > 0
        assert bounded.max_batch_occupancy > 1  # batching genuinely engaged
        _assert_bit_equal(oracle, bounded)

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_budget_and_policy_fuzz(self, stepping_network, sample_pool, seed):
        """Seeded fuzz over arrivals, budget sizes and policies."""
        images, _ = sample_pool
        rng = np.random.default_rng(seed)
        context = _context_bytes(stepping_network)
        requests = _random_requests(rng, images, int(rng.integers(8, 16)))
        scheduler = ["edf", "priority", "fifo"][seed % 3]
        policy = POLICY_NAMES[seed % len(POLICY_NAMES)]
        budget = int(context * float(rng.uniform(1.05, 2.5)))
        oracle = _serve(stepping_network, requests, scheduler=scheduler)
        bounded = _serve(
            stepping_network, requests, budget=budget, policy=policy, scheduler=scheduler
        )
        _assert_bit_equal(oracle, bounded)
        # Budget never exceeded between events (peak is the post-event
        # high-water mark over the whole run).
        assert bounded.peak_resident_bytes <= budget
        # Honest accounting: the bounded run charges exactly the oracle's
        # MACs plus what it spent replaying evicted contexts.
        assert bounded.total_macs == oracle.total_macs + bounded.total_macs_recomputed


# ----------------------------------------------------------------------
# Operational guarantees
# ----------------------------------------------------------------------
class TestNeverEvictRunningJob:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_no_protected_eviction_with_adequate_budget(
        self, stepping_network, sample_pool, policy
    ):
        """A budget that holds one running context never touches it."""
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 14)
        bounded = _serve(
            stepping_network, requests, budget=int(context * 1.2), policy=policy
        )
        assert bounded.eviction_events  # vacuity guard
        assert not any(event.protected for event in bounded.eviction_events)

    def test_recomputed_steps_follow_a_cache_eviction(
        self, stepping_network, sample_pool
    ):
        """Recompute is charged exactly when (and only when) state was lost."""
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 14)
        bounded = _serve(stepping_network, requests, budget=int(context * 1.2))
        evicted_at = {}
        for event in bounded.eviction_events:
            if event.tier == "cache":
                evicted_at.setdefault(event.request_id, []).append(event.time)
        recomputed = 0
        for job in bounded.jobs:
            for step in job.steps:
                if step.macs_recomputed > 0:
                    recomputed += 1
                    times = evicted_at.get(job.request.request_id, [])
                    assert any(t <= step.start_time + 1e-9 for t in times)
        assert recomputed > 0
        assert recomputed == bounded.cache_evictions  # one resume per drop

    def test_budget_exactly_one_context_still_serves(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 10)
        oracle = _serve(stepping_network, requests)
        bounded = _serve(stepping_network, requests, budget=context)
        _assert_bit_equal(oracle, bounded)
        assert bounded.peak_resident_bytes <= context


class TestEvictionBatchingInteraction:
    def test_evicted_member_recomputes_and_rejoins_a_batch(
        self, stepping_network, sample_pool
    ):
        """An evicted member rebuilds inside a later shared pass, bit-equal."""
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(
            np.random.default_rng(7), images, 14, deadlines=False
        )
        oracle = _serve(stepping_network, requests, batched=True, scheduler="fifo")
        bounded = _serve(
            stepping_network,
            requests,
            budget=int(context * 1.6),
            batched=True,
            scheduler="fifo",
        )
        _assert_bit_equal(oracle, bounded)
        assert bounded.cache_evictions > 0
        # Batch membership is visible through the shared dispatch times:
        # every member of one pass starts and finishes at the same instant.
        dispatch_sizes = Counter(
            (step.start_time, step.finish_time)
            for job in bounded.jobs
            for step in job.steps
        )
        rejoined = [
            step
            for job in bounded.jobs
            for step in job.steps
            if step.macs_recomputed > 0
            and dispatch_sizes[(step.start_time, step.finish_time)] > 1
        ]
        assert rejoined  # recomputed *inside* a shared pass


class TestHonestAccounting:
    def test_recompute_backend_loses_nothing_to_eviction(
        self, stepping_network, sample_pool
    ):
        """The slimmable baseline pays full MACs anyway: eviction is free."""
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 12)
        oracle = _serve(stepping_network, requests, backend_cls=RecomputeBackend)
        bounded = _serve(
            stepping_network,
            requests,
            budget=int(context * 1.2),
            backend_cls=RecomputeBackend,
        )
        _assert_bit_equal(oracle, bounded)
        assert bounded.total_macs_recomputed == 0.0
        assert bounded.total_macs == oracle.total_macs

    def test_reuse_is_reported_as_recompute_after_eviction(
        self, stepping_network, sample_pool
    ):
        """Evicted-then-replayed MACs never count as reuse."""
        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 14)
        oracle = _serve(stepping_network, requests)
        bounded = _serve(stepping_network, requests, budget=int(context * 1.2))
        assert bounded.cache_evictions > 0
        assert bounded.total_macs_reused < oracle.total_macs_reused
        assert bounded.recompute_overhead > 0.0
        assert oracle.recompute_overhead == 0.0

    def test_report_dict_includes_memory_metrics(self, stepping_network, sample_pool):
        import json

        images, _ = sample_pool
        context = _context_bytes(stepping_network)
        requests = _random_requests(np.random.default_rng(2), images, 8)
        report = _serve(
            stepping_network, requests, budget=int(context * 1.5), policy="largest-first"
        )
        payload = report.as_dict()
        assert payload["memory_budget_bytes"] == int(context * 1.5)
        assert payload["eviction_policy"] == "largest-first"
        assert payload["peak_resident_bytes"] <= int(context * 1.5)
        json.dumps(payload)  # artifact-ready

    def test_unbounded_run_reports_peak(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = _random_requests(np.random.default_rng(2), images, 12)
        report = _serve(stepping_network, requests)
        context = _context_bytes(stepping_network)
        assert report.memory_budget_bytes is None
        assert report.peak_resident_bytes >= context  # at least one context
        assert report.cache_evictions == report.aux_evictions == 0


class TestResidencyLedger:
    """The run's residency ledger against a full rescan of its live contexts.

    After every event — each dispatch, and every crash, recovery and
    steal — ``run.resident_bytes`` must equal the sum of
    ``session.resident_nbytes()`` over the run's live jobs, bounded or
    not; and the budget's :meth:`MemoryBudget.enforce` must run only
    when that residency is over budget.
    """

    @staticmethod
    def _rescan(run):
        return sum(job.session.resident_nbytes() for job in run._live_jobs())

    def _watch(self, monkeypatch, checked, enforced):
        """Check the ledger after every event of every run, and every enforce."""

        def checking(method):
            def wrapper(run, *args, **kwargs):
                result = method(run, *args, **kwargs)
                assert run.resident_bytes == self._rescan(run), method.__name__
                checked[method.__name__] += 1
                return result

            return wrapper

        for name in ("_advance_once", "crash", "recover", "steal"):
            monkeypatch.setattr(ServingRun, name, checking(getattr(ServingRun, name)))
        production = MemoryBudget.enforce

        def enforce(budget, jobs, *args, **kwargs):
            resident = sum(job.session.resident_nbytes() for job in jobs)
            assert budget.budget_bytes is not None and resident > budget.budget_bytes
            enforced.append(resident)
            return production(budget, jobs, *args, **kwargs)

        monkeypatch.setattr(MemoryBudget, "enforce", enforce)

    @pytest.mark.parametrize("batch_policy", ["none", "same-level"])
    @pytest.mark.parametrize("policy", [None, *POLICY_NAMES])
    def test_ledger_equals_rescan_through_crash_and_steal(
        self, stepping_network, sample_pool, monkeypatch, policy, batch_policy
    ):
        images, _ = sample_pool
        checked, enforced = Counter(), []
        self._watch(monkeypatch, checked, enforced)
        budget = None if policy is None else int(_context_bytes(stepping_network) * 1.5)
        engine = ServingEngine(
            SteppingBackend(stepping_network, policy=_full_quality(), dtype=np.float32),
            _constant_trace(stepping_network),
            "edf",
            batch_policy=batch_policy,
            memory_budget_bytes=budget,
            eviction_policy=policy or "lru",
            enforce_deadline=False,
        )
        requests = _random_requests(np.random.default_rng(3), images, 16, mean_gap=0.05)
        run = engine.open_run(node="n")
        for request in requests:
            run.push(request)

        def push_back(work, now):
            for request in work.unstarted:
                run.push(request, not_before=now)
            for checkpoint in work.interrupted:
                run.push_resumed(checkpoint, resume_at=now)

        run.run_until(0.6)
        # Every job but one leaves: the unstarted ones, then started ones.
        stolen = run.steal(run.queue_depth - 1, 0.6, include_started=True)
        assert stolen.interrupted and run.resident_bytes > 0
        push_back(stolen, 0.6)
        run.run_until(1.2)
        crashed = run.crash(1.2)
        assert run.resident_bytes == 0
        run.recover(1.5)
        push_back(crashed, 1.5)
        report = run.finish()

        assert report.num_jobs == len(requests)
        assert checked["crash"] == checked["recover"] == checked["steal"] == 1
        assert checked["_advance_once"] >= report.num_dispatches
        if budget is None:
            assert enforced == []
        else:
            # Enforce ran, only on overshoots, and far from every dispatch.
            assert report.eviction_events
            assert 0 < len(enforced) < report.num_dispatches
            assert report.peak_resident_bytes <= budget


class TestEnforceReadsTheLedger:
    """``MemoryBudget.enforce`` sizes its victims from the run's residency
    ledger: an over-budget dispatch walks no context's buffers."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_over_budget_dispatch_makes_no_resident_nbytes_call(
        self, stepping_network, sample_pool, monkeypatch, policy
    ):
        images, _ = sample_pool
        inside, calls, enforced = [False], [0], [0]
        production_enforce = MemoryBudget.enforce
        production_nbytes = ExecutionSession.resident_nbytes

        def enforce(budget, *args, **kwargs):
            inside[0] = True
            try:
                freed = production_enforce(budget, *args, **kwargs)
            finally:
                inside[0] = False
            enforced[0] += freed > 0
            return freed

        def resident_nbytes(session):
            calls[0] += inside[0]
            return production_nbytes(session)

        monkeypatch.setattr(MemoryBudget, "enforce", enforce)
        monkeypatch.setattr(ExecutionSession, "resident_nbytes", resident_nbytes)
        engine = ServingEngine(
            SteppingBackend(stepping_network, policy=_full_quality(), dtype=np.float32),
            _constant_trace(stepping_network),
            "edf",
            memory_budget_bytes=int(_context_bytes(stepping_network) * 1.5),
            eviction_policy=policy,
            enforce_deadline=False,
        )
        report = engine.serve(
            _random_requests(np.random.default_rng(4), images, 12, mean_gap=0.02)
        )
        assert enforced[0] > 0 and report.eviction_events
        assert calls[0] == 0


class TestEngineValidation:
    def test_bad_budget_or_policy_fail_fast(self, stepping_network):
        backend = SteppingBackend(stepping_network, dtype=np.float32)
        trace = _constant_trace(stepping_network)
        with pytest.raises(ValueError, match="budget_bytes"):
            ServingEngine(backend, trace, memory_budget_bytes=0)
        with pytest.raises(KeyError, match="eviction"):
            ServingEngine(backend, trace, eviction_policy="newest-first")
