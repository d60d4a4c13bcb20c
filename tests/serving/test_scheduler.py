"""Tests for the scheduling policies, including the ordering properties
the serving engine relies on: FIFO preserves arrival order and EDF never
inverts two deadline-ordered requests on a constant trace."""

import numpy as np
import pytest

from repro.runtime.platform import ResourceTrace
from repro.serving import (
    EDFScheduler,
    FIFOScheduler,
    PriorityScheduler,
    Request,
    Scheduler,
    ServingEngine,
    SteppingBackend,
    get_scheduler,
)
from repro.serving.backend import ServingJob


def _job(request_id, arrival, deadline=None, priority=0):
    request = Request(
        request_id=request_id,
        arrival_time=arrival,
        inputs=np.zeros((1, 3, 12, 12)),
        deadline=deadline,
        priority=priority,
    )
    return ServingJob(request=request, session=None)


class TestSelect:
    def test_fifo_picks_earliest_arrival(self):
        jobs = [_job(0, 2.0), _job(1, 0.5), _job(2, 1.0)]
        assert FIFOScheduler().select(jobs, now=3.0).request.request_id == 1

    def test_fifo_breaks_ties_by_id(self):
        jobs = [_job(3, 1.0), _job(1, 1.0), _job(2, 1.0)]
        assert FIFOScheduler().select(jobs, now=3.0).request.request_id == 1

    def test_edf_picks_earliest_deadline(self):
        jobs = [_job(0, 0.0, deadline=5.0), _job(1, 1.0, deadline=2.0), _job(2, 0.5, deadline=9.0)]
        assert EDFScheduler().select(jobs, now=1.5).request.request_id == 1

    def test_edf_best_effort_loses_to_any_deadline(self):
        jobs = [_job(0, 0.0), _job(1, 1.0, deadline=100.0)]
        assert EDFScheduler().select(jobs, now=1.5).request.request_id == 1

    def test_priority_larger_wins(self):
        jobs = [_job(0, 0.0, priority=0), _job(1, 1.0, priority=5), _job(2, 0.5, priority=2)]
        assert PriorityScheduler().select(jobs, now=1.5).request.request_id == 1

    def test_registry(self):
        assert isinstance(get_scheduler("fifo"), FIFOScheduler)
        assert isinstance(get_scheduler("edf"), EDFScheduler)
        assert isinstance(get_scheduler("priority"), PriorityScheduler)
        with pytest.raises(KeyError):
            get_scheduler("lottery")


class TestReadyQueue:
    """The heap-backed queue must agree with the stateless ordering oracle."""

    @pytest.mark.parametrize("name", ["fifo", "edf", "priority"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pick_matches_select_under_churn(self, name, seed):
        rng = np.random.default_rng(seed)
        scheduler = get_scheduler(name)
        jobs = []
        for index in range(25):
            arrival = round(float(rng.uniform(0.0, 3.0)), 1)
            deadline = (
                None
                if rng.random() < 0.3
                else arrival + round(float(rng.uniform(1.0, 9.0)), 1)
            )
            jobs.append(
                _job(index, arrival, deadline=deadline, priority=int(rng.integers(0, 3)))
            )
        # Admit in arrival order, as the engine does.
        jobs.sort(key=lambda job: (job.request.arrival_time, job.request.request_id))
        scheduler.clear()
        live = []
        order = []
        for job in jobs:
            live.append(job)
            scheduler.add(job)
            # Randomly finalise some jobs between admissions (preemption churn).
            while live and rng.random() < 0.35:
                picked = scheduler.pick(now=0.0)
                assert picked is scheduler.select(live, now=0.0)
                order.append(picked.request.request_id)
                live.remove(picked)
                scheduler.discard(picked)
        while live:
            picked = scheduler.pick(now=0.0)
            assert picked is scheduler.select(live, now=0.0)
            order.append(picked.request.request_id)
            live.remove(picked)
            scheduler.discard(picked)
        assert len(order) == len(jobs)

    def test_pick_is_stable_until_discard(self):
        scheduler = get_scheduler("edf")
        scheduler.clear()
        for job in [_job(0, 0.0, deadline=5.0), _job(1, 0.0, deadline=2.0)]:
            scheduler.add(job)
        first = scheduler.pick(now=0.0)
        assert scheduler.pick(now=1.0) is first  # job stays queued between steps
        scheduler.discard(first)
        assert scheduler.pick(now=1.0).request.request_id == 0

    def test_select_only_subclass_rejected(self, stepping_network):
        """A scheduler must provide an ordering key; select() alone no longer serves."""

        class LIFOScheduler(Scheduler):
            name = "lifo"

            def select(self, jobs, now):
                return max(jobs, key=lambda job: (job.request.arrival_time, job.request.request_id))

        requests = _random_requests(np.random.default_rng(0), 6)
        with pytest.raises(NotImplementedError):
            _serve(stepping_network, requests, LIFOScheduler())

    def test_clear_resets_between_serves(self):
        scheduler = get_scheduler("fifo")
        scheduler.add(_job(0, 0.0))
        scheduler.clear()
        assert len(scheduler) == 0
        with pytest.raises(LookupError):
            scheduler.pick(now=0.0)


class TestReadyQueueFuzz:
    """Randomized op sequences against the stateless ``select`` oracle.

    The engine drives the heap-backed queues through interleaved
    add / pick / discard traffic (including expiry-heap discards that
    never pick), with lazy heap deletion underneath; for every reachable
    queue state, ``pick`` must agree with the ``select`` ordering oracle
    over the same live set, and ``get``/``len`` must track membership.
    """

    @pytest.mark.parametrize("name", ["fifo", "edf", "priority"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_op_sequence_matches_oracle(self, name, seed):
        rng = np.random.default_rng(seed)
        scheduler = get_scheduler(name)
        live = {}
        next_id = 0
        for _ in range(300):
            op = rng.choice(["add", "pick", "expire", "complete", "get"], p=[0.35, 0.25, 0.15, 0.15, 0.1])
            if op == "add":
                arrival = round(float(rng.uniform(0.0, 4.0)), 1)  # ties likely
                deadline = (
                    None
                    if rng.random() < 0.3
                    else arrival + round(float(rng.uniform(0.5, 6.0)), 1)
                )
                job = _job(
                    next_id, arrival, deadline=deadline, priority=int(rng.integers(0, 3))
                )
                live[next_id] = job
                scheduler.add(job)
                next_id += 1
            elif op == "pick" and live:
                picked = scheduler.pick(now=0.0)
                assert picked is scheduler.select(list(live.values()), now=0.0)
                # pick is stable: the winner stays queued until discarded
                assert scheduler.pick(now=1.0) is picked
            elif op == "expire" and live:
                # Expiry-heap path: drop a random job *without* picking it
                # (lazy heap entries must expire silently on later pops).
                victim_id = int(rng.choice(list(live)))
                scheduler.discard(live.pop(victim_id))
                assert scheduler.get(victim_id) is None
            elif op == "complete" and live:
                picked = scheduler.pick(now=0.0)
                live.pop(picked.request.request_id)
                scheduler.discard(picked)
            elif op == "get" and live:
                some_id = int(rng.choice(list(live)))
                assert scheduler.get(some_id) is live[some_id]
            assert len(scheduler) == len(live)
        # Drain: the emptied queue must keep agreeing with the oracle.
        while live:
            picked = scheduler.pick(now=0.0)
            assert picked is scheduler.select(list(live.values()), now=0.0)
            live.pop(picked.request.request_id)
            scheduler.discard(picked)
        with pytest.raises(LookupError):
            scheduler.pick(now=0.0)

    @pytest.mark.parametrize(
        "name",
        ["fifo", "edf", "priority", "batch-aware", "least-recompute", "utility-per-mac"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_index_fuzz_matches_oracle(self, name, seed):
        """The per-edge ready index against the brute-force edge scan.

        Random add / advance / evict / discard / query traffic over jobs
        whose subnet edges and cost signals keep changing (with
        ``reindex`` after every mutation, as the engine guarantees): at
        every reachable state, ``count_at_edge`` must equal the live
        census, ``jobs_at_edge`` must equal the key-sorted edge scan for
        every fetch size, and ``pick`` must agree with ``select``.
        """

        class _Session:
            def __init__(self):
                self.current_subnet = -1
                self._next = 0
                self._recompute = 0.0
                self._macs = 1.0

            def next_subnet(self):
                return self._next

            @property
            def edge(self):
                return self.current_subnet, self._next

            def pending_recompute_macs(self):
                return self._recompute

            def next_step_macs(self):
                return self._macs

        def make_job(request_id, rng):
            arrival = round(float(rng.uniform(0.0, 4.0)), 1)
            request = Request(
                request_id=request_id,
                arrival_time=arrival,
                inputs=np.zeros((1, 3, 12, 12)),
                deadline=(
                    None
                    if rng.random() < 0.3
                    else arrival + round(float(rng.uniform(1.0, 9.0)), 1)
                ),
                priority=int(rng.integers(0, 3)),
            )
            session = _Session()
            session._macs = round(float(rng.uniform(0.5, 4.0)), 2)
            return ServingJob(request=request, session=session)

        rng = np.random.default_rng(seed)
        scheduler = get_scheduler(name)
        live = {}
        next_id = 0
        edges = [(-1, 0), (0, 1), (1, 2), (2, 3)]
        for _ in range(250):
            op = rng.choice(
                ["add", "advance", "evict", "discard", "pick", "edges"],
                p=[0.3, 0.2, 0.1, 0.15, 0.1, 0.15],
            )
            if op == "add":
                job = make_job(next_id, rng)
                live[next_id] = job
                scheduler.add(job)
                next_id += 1
            elif op == "advance" and live:
                # A level executed: the edge moves, cost signals change.
                job = live[int(rng.choice(list(live)))]
                if job.session._next >= 3:
                    continue
                job.steps_executed += 1
                job.session.current_subnet = job.session._next
                job.session._next += 1
                job.session._recompute = 0.0
                job.session._macs = round(float(rng.uniform(0.5, 4.0)), 2)
                scheduler.reindex(job)
            elif op == "evict" and live:
                # Eviction changed the replay surcharge, not the edge.
                job = live[int(rng.choice(list(live)))]
                job.session._recompute = round(float(rng.uniform(1.0, 9.0)), 1)
                scheduler.reindex(job)
            elif op == "discard" and live:
                victim = live.pop(int(rng.choice(list(live))))
                scheduler.discard(victim)
            elif op == "pick" and live:
                picked = scheduler.pick(now=0.0)
                assert picked is scheduler.select(list(live.values()), now=0.0)
            elif op == "edges":
                expected = {}
                for job in live.values():
                    expected.setdefault(job.edge, []).append(job)
                assert sorted(scheduler.edges()) == sorted(expected)
                for edge in edges:
                    at_edge = expected.get(edge, [])
                    assert scheduler.count_at_edge(edge) == len(at_edge)
                    ranked = sorted(at_edge, key=scheduler.key)
                    for fetch in (1, 2, len(at_edge) or 1, None):
                        got = scheduler.jobs_at_edge(edge, fetch)
                        want = ranked if fetch is None else ranked[:fetch]
                        assert [j.request.request_id for j in got] == [
                            j.request.request_id for j in want
                        ]
            assert len(scheduler) == len(live)
        while live:
            picked = scheduler.pick(now=0.0)
            assert picked is scheduler.select(list(live.values()), now=0.0)
            live.pop(picked.request.request_id)
            scheduler.discard(picked)
        assert scheduler.edges() == []

    @pytest.mark.parametrize("name", ["fifo", "edf", "priority"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_expiry_heap_fuzz_end_to_end(self, stepping_network, name, seed):
        """Random deadline traffic through drop_expired admission control.

        Hardens the engine's expiry heap (lazy started/finalised skips):
        dropped jobs must never have consumed accelerator time, started
        deadline jobs must have begun before their deadline, and every
        request must be accounted for exactly once.
        """
        rng = np.random.default_rng(seed)
        requests = []
        arrival = 0.0
        for index in range(18):
            arrival += float(rng.exponential(0.12))
            deadline = (
                None if rng.random() < 0.25 else arrival + float(rng.uniform(0.05, 2.0))
            )
            requests.append(
                Request(
                    request_id=index,
                    arrival_time=arrival,
                    inputs=np.zeros((1, 3, 12, 12)),
                    deadline=deadline,
                    priority=int(rng.integers(0, 3)),
                )
            )
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        trace = ResourceTrace.constant(largest / 0.4, name="constant")
        engine = ServingEngine(
            SteppingBackend(stepping_network), trace, name, drop_expired=True
        )
        report = engine.serve(requests)
        assert report.num_jobs == len(requests)
        statuses = {job.status for job in report.jobs}
        assert statuses <= {"completed", "dropped"}
        for job in report.jobs:
            if job.status == "dropped":
                # Admission control refunds the accelerator entirely.
                assert job.steps == []
                assert job.request.deadline is not None
            elif job.request.deadline is not None and job.steps:
                # A started deadline job began strictly before expiring.
                assert job.steps[0].start_time < job.request.deadline
        completed = [job for job in report.jobs if job.status == "completed"]
        assert len(completed) + len(report.dropped_jobs) == len(requests)


def _serve(network, requests, scheduler):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    trace = ResourceTrace.constant(largest / 0.4, name="constant")
    engine = ServingEngine(SteppingBackend(network), trace, scheduler)
    return engine.serve(requests)


def _random_requests(rng, count, simultaneous=False):
    requests = []
    arrival = 0.0
    for index in range(count):
        if not simultaneous:
            arrival += float(rng.exponential(0.3))
        requests.append(
            Request(
                request_id=index,
                arrival_time=arrival,
                inputs=np.zeros((1, 3, 12, 12)),
                deadline=arrival + float(rng.uniform(0.5, 5.0)),
            )
        )
    return requests


class TestFIFOOrderProperty:
    """FIFO preserves arrival order: requests finish in arrival order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completion_follows_arrival_order(self, stepping_network, seed):
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng, 12)
        report = _serve(stepping_network, requests, "fifo")
        by_arrival = sorted(report.jobs, key=lambda job: job.request.arrival_time)
        completions = [job.completion_time for job in by_arrival]
        assert completions == sorted(completions)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_touch_follows_arrival_order(self, stepping_network, seed):
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng, 12)
        report = _serve(stepping_network, requests, "fifo")
        by_arrival = sorted(report.jobs, key=lambda job: job.request.arrival_time)
        first_starts = [job.steps[0].start_time for job in by_arrival]
        assert first_starts == sorted(first_starts)

    def test_fifo_runs_to_completion(self, stepping_network):
        """No interleaving: a job's steps are contiguous on the accelerator."""
        rng = np.random.default_rng(3)
        requests = _random_requests(rng, 8, simultaneous=True)
        report = _serve(stepping_network, requests, "fifo")
        spans = sorted(
            (job.steps[0].start_time, job.completion_time, job.request.request_id)
            for job in report.jobs
            if job.steps
        )
        for (_, end_a, _), (start_b, _, _) in zip(spans, spans[1:]):
            assert start_b >= end_a - 1e-9


class TestEDFOrderProperty:
    """EDF never inverts two deadline-ordered requests on a constant trace."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_simultaneous_arrivals_served_in_deadline_order(self, stepping_network, seed):
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng, 10, simultaneous=True)
        report = _serve(stepping_network, requests, "edf")
        by_deadline = sorted(report.jobs, key=lambda job: job.request.deadline)
        first_results = [job.first_result_time for job in by_deadline]
        assert first_results == sorted(first_results)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_deadline_inversion_among_ready_jobs(self, stepping_network, seed):
        """Whenever a step starts, no *waiting* request has a strictly
        earlier deadline than the request being served."""
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng, 10)
        report = _serve(stepping_network, requests, "edf")

        schedule = []  # (start_time, request_id)
        for job in report.jobs:
            for step in job.steps:
                schedule.append((step.start_time, step.finish_time, job.request.request_id))
        schedule.sort()
        info = {job.request.request_id: job for job in report.jobs}

        for start, _, running_id in schedule:
            running_deadline = info[running_id].request.deadline
            for other in report.jobs:
                if other.request.request_id == running_id:
                    continue
                # "Ready": arrived, not yet finished at this instant.
                if other.request.arrival_time > start + 1e-9:
                    continue
                if other.completion_time <= start + 1e-9:
                    continue
                assert other.request.deadline >= running_deadline - 1e-9


class TestPrioritySchedulingEndToEnd:
    def test_high_priority_burst_served_first(self, stepping_network):
        inputs = np.zeros((1, 3, 12, 12))
        low = [
            Request(request_id=i, arrival_time=0.0, inputs=inputs, priority=0) for i in range(3)
        ]
        high = [
            Request(request_id=10 + i, arrival_time=0.0, inputs=inputs, priority=9)
            for i in range(3)
        ]
        report = _serve(stepping_network, low + high, "priority")
        high_done = max(job.completion_time for job in report.jobs if job.request.priority == 9)
        low_first = min(job.first_result_time for job in report.jobs if job.request.priority == 0)
        assert high_done <= low_first + 1e-9
