"""Tests for the execution backends and their preemptible sessions."""

import numpy as np
import pytest

from repro.serving.backend import (
    DEFAULT_SERVING_DTYPE,
    RecomputeBackend,
    SteppingBackend,
)
from repro.utils.errors import ConfigError


@pytest.fixture
def inputs(image_batch):
    images, _ = image_batch
    return images[:4]


class TestSteppingBackend:
    def test_step_costs_are_deltas(self, stepping_network):
        backend = SteppingBackend(stepping_network)
        for level in range(1, stepping_network.num_subnets):
            expected = stepping_network.subnet_macs(level) - stepping_network.subnet_macs(level - 1)
            assert backend.step_cost(level - 1, level) == pytest.approx(expected)

    def test_first_step_cost_is_full_subnet(self, stepping_network):
        backend = SteppingBackend(stepping_network)
        assert backend.step_cost(-1, 0) == pytest.approx(stepping_network.subnet_macs(0))

    def test_session_walks_all_levels(self, stepping_network, inputs):
        backend = SteppingBackend(stepping_network)
        session = backend.open(inputs)
        seen = []
        while session.next_subnet() is not None:
            outcome = session.advance()
            seen.append(outcome.subnet)
        assert seen == list(range(stepping_network.num_subnets))
        assert session.next_step_macs() is None

    def test_advance_past_end_raises(self, stepping_network, inputs):
        backend = SteppingBackend(stepping_network)
        session = backend.open(inputs)
        while session.next_subnet() is not None:
            session.advance()
        with pytest.raises(RuntimeError):
            session.advance()

    def test_default_dtype_is_float32(self, stepping_network, inputs):
        backend = SteppingBackend(stepping_network)
        assert backend.dtype == DEFAULT_SERVING_DTYPE
        session = backend.open(inputs)
        outcome = session.advance()
        assert outcome.logits.dtype == np.float32

    def test_float32_close_to_float64(self, stepping_network, inputs):
        fast = SteppingBackend(stepping_network, dtype=np.float32)
        exact = SteppingBackend(stepping_network, dtype=np.float64)
        fast_session, exact_session = fast.open(inputs), exact.open(inputs)
        while fast_session.next_subnet() is not None:
            a = fast_session.advance()
            b = exact_session.advance()
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-4, atol=1e-4)


class TestRecomputeBackend:
    def test_step_costs_are_full_subnets(self, stepping_network):
        backend = RecomputeBackend(stepping_network)
        for level in range(stepping_network.num_subnets):
            assert backend.step_cost(level - 1, level) == pytest.approx(
                stepping_network.subnet_macs(level)
            )

    def test_no_reuse_reported(self, stepping_network, inputs):
        backend = RecomputeBackend(stepping_network)
        session = backend.open(inputs)
        while session.next_subnet() is not None:
            outcome = session.advance()
            assert outcome.macs_reused == 0.0

    def test_logits_match_stepping_backend(self, stepping_network, inputs):
        stepping = SteppingBackend(stepping_network).open(inputs)
        recompute = RecomputeBackend(stepping_network).open(inputs)
        while stepping.next_subnet() is not None:
            a = stepping.advance()
            b = recompute.advance()
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-5)


class TestSessionPreemption:
    """Interleaved sessions on one backend must not corrupt each other's state."""

    def test_interleaved_sessions_match_solo_sessions(
        self, stepping_network, image_batch, solo_logits
    ):
        images, _ = image_batch
        batch_a, batch_b = images[:3], images[3:6]
        backend = SteppingBackend(stepping_network, dtype=np.float64)
        levels = list(range(stepping_network.num_subnets))
        ref_a = solo_logits(stepping_network, batch_a, levels, dtype=np.float64)
        ref_b = solo_logits(stepping_network, batch_b, levels, dtype=np.float64)

        # Interleave two sessions step by step on one backend.
        session_a, session_b = backend.open(batch_a), backend.open(batch_b)
        got_a, got_b = [], []
        while session_a.next_subnet() is not None or session_b.next_subnet() is not None:
            if session_a.next_subnet() is not None:
                got_a.append(session_a.advance().logits)
            if session_b.next_subnet() is not None:
                got_b.append(session_b.advance().logits)

        assert len(got_a) == len(got_b) == len(levels)
        for ref, got in zip(ref_a + ref_b, got_a + got_b):
            assert np.array_equal(ref, got)


class TestInputValidation:
    @pytest.mark.parametrize("backend_cls", [SteppingBackend, RecomputeBackend])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_level_raises_config_error(self, backend_cls, cap, stepping_network):
        with pytest.raises(ConfigError, match="at least 1"):
            backend_cls(stepping_network, num_subnets=cap)

    def test_bad_member_shape_raises_config_error_in_a_group(self, stepping_network, inputs):
        """A malformed member fails at the boundary, whatever the group size."""
        backend = SteppingBackend(stepping_network)
        bad = backend.open(np.zeros((1, 3, 10, 10)))
        good = backend.open(inputs)
        with pytest.raises(ConfigError, match=r"per-sample shape \(3, 10, 10\)"):
            backend.advance_group([bad, good])
        with pytest.raises(ConfigError, match=r"per-sample shape \(3, 10, 10\)"):
            bad.advance()
        # The well-formed member is untouched and still steps.
        assert good.advance().subnet == 0

    def test_a_session_checks_its_shape_once(self, stepping_network, inputs, monkeypatch):
        """The first step checks the shape; replays after an eviction or a
        restore do not, and a session opened ``checked`` never does."""
        calls = []
        original = type(stepping_network.spec).input_shape_problem
        monkeypatch.setattr(
            type(stepping_network.spec),
            "input_shape_problem",
            lambda spec, shape: calls.append(shape) or original(spec, shape),
        )
        backend = SteppingBackend(stepping_network)
        session = backend.open(inputs)
        while session.next_subnet() is not None:
            session.advance()
            session.drop_state()  # the next advance replays from a fresh state
        assert calls == [inputs.shape]
        restored = backend.open(inputs, checked=True)
        restored.restore(session.level_history[:-1], None)
        restored.advance()
        assert calls == [inputs.shape]
        assert np.array_equal(restored.logits, session.logits)


# ----------------------------------------------------------------------
# Per-level tables: every session read agrees with its definition
# ----------------------------------------------------------------------
def _check_level(backend, session):
    """The table-backed session reads at ``session``'s current level."""
    level = session.current_subnet
    top = backend.num_subnets - 1
    target = level + 1 if level < top else None
    assert session.next_subnet() == target
    assert session.edge == (level, target)
    if target is None:
        assert session.next_step_macs() is None
        return
    expected = backend.step_cost(level, target) + session.pending_recompute_macs()
    assert session.next_step_macs() == expected
    held = backend.subnet_macs(level) if level >= 0 and backend.reuses_activations else 0.0
    assert backend.recompute_macs(level) == held


@pytest.mark.parametrize("backend_cls", [SteppingBackend, RecomputeBackend])
@pytest.mark.parametrize("cap", [None, 2])
class TestLevelTables:
    def test_every_level(self, backend_cls, cap, stepping_network, inputs):
        backend = backend_cls(stepping_network, num_subnets=cap)
        assert backend.num_subnets == (cap or stepping_network.num_subnets)
        session = backend.open(inputs)
        _check_level(backend, session)
        levels = []
        while session.next_subnet() is not None:
            levels.append(session.advance().subnet)
            _check_level(backend, session)
        assert levels == list(range(backend.num_subnets))

    def test_after_drop_state(self, backend_cls, cap, stepping_network, inputs):
        backend = backend_cls(stepping_network, num_subnets=cap)
        session = backend.open(inputs)
        while session.next_subnet() is not None:
            session.advance()
            session.drop_state()
            assert (session.pending_recompute_macs() > 0) == backend.reuses_activations
            _check_level(backend, session)
        assert session.current_subnet == backend.num_subnets - 1

    def test_after_restore(self, backend_cls, cap, stepping_network, inputs):
        backend = backend_cls(stepping_network, num_subnets=cap)
        source = backend.open(inputs)
        while source.next_subnet() is not None:
            source.advance()
            restored = backend.open(inputs)
            restored.restore(source.level_history, source.logits)
            _check_level(backend, restored)
            if restored.next_subnet() is not None:
                outcome = restored.advance()
                assert outcome.macs_charged == (
                    backend.step_cost(source.current_subnet, outcome.subnet)
                    + backend.recompute_macs(source.current_subnet)
                )
                _check_level(backend, restored)
