"""Suspend/resume round-trips of the compiled plan's ``aux`` buffers.

The incremental column/pooling buffers live in ``InferenceState.aux``
and move with ``export_state``/``import_state`` like the activation
caches — but unlike the caches they are *pure caches* with a validity
tag: stale buffers (state advanced through another path in between)
must self-invalidate and rebuild rather than corrupt the next step.
These tests pin that contract across suspend/resume, across engines,
across backends (stepping <-> recompute) and across the boundary to the
tests' masked-walk oracle (``tests/oracles.py``).
"""

import numpy as np
import pytest

from oracles import masked_walk
from repro.core import IncrementalInference
from repro.core.incremental import InferenceState
from repro.serving.backend import RecomputeBackend, SteppingBackend


@pytest.fixture
def eval_network(stepping_network, image_batch):
    """The shared tiny conv network, BN-warmed and in eval mode."""
    from repro.baselines.common import set_prefix_assignments

    set_prefix_assignments(stepping_network, [0.25, 0.5, 0.75, 1.0])
    stepping_network.assignment.validate()
    images, _ = image_batch
    stepping_network.train()
    stepping_network.forward(images, subnet=stepping_network.num_subnets - 1)
    stepping_network.eval()
    return stepping_network


@pytest.fixture
def inputs(image_batch):
    images, _ = image_batch
    return images[:3]


def _reference_logits(network, inputs, dtype=np.float64):
    """Uninterrupted compiled stepping: one engine, one context."""
    engine = IncrementalInference(network, dtype=dtype)
    logits = [engine.run(inputs, subnet=0).logits]
    for level in range(1, network.num_subnets):
        logits.append(engine.step_to(level).logits)
    return logits


class TestAuxRoundTrip:
    def test_suspend_resume_preserves_aux_buffers(self, eval_network, inputs):
        reference = _reference_logits(eval_network, inputs)
        engine = IncrementalInference(eval_network)
        assert np.array_equal(engine.run(inputs, subnet=0).logits, reference[0])
        state = engine.export_state()
        # The plan's private buffers travelled with the state and carry
        # the level tag of the last advance.
        assert state.aux["level"] == 0
        assert any(isinstance(key, tuple) and key[0] == "cols" for key in state.aux)
        engine.import_state(state)
        for level in range(1, eval_network.num_subnets):
            assert np.array_equal(engine.step_to(level).logits, reference[level])

    def test_state_moves_between_engines(self, eval_network, inputs):
        """A second engine picks up mid-flight state (and its aux) exactly."""
        reference = _reference_logits(eval_network, inputs)
        first = IncrementalInference(eval_network)
        first.run(inputs, subnet=0)
        first.step_to(1)
        state = first.export_state()
        aux_before = {key: value for key, value in state.aux.items()}
        second = IncrementalInference(eval_network)
        second.import_state(state)
        # Imports move references, not copies: O(1) context switch.
        for key, value in aux_before.items():
            assert second._state.aux[key] is value
        assert np.array_equal(second.step_to(2).logits, reference[2])
        assert np.array_equal(second.step_to(3).logits, reference[3])

    def test_interleaved_contexts_keep_private_aux(self, eval_network, inputs):
        """Two suspended contexts never share or clobber buffers."""
        reference_a = _reference_logits(eval_network, inputs)
        other = inputs[::-1].copy()
        reference_b = _reference_logits(eval_network, other)
        engine = IncrementalInference(eval_network)

        engine.run(inputs, subnet=0)
        state_a = engine.export_state()
        engine.run(other, subnet=0)
        state_b = engine.export_state()
        for level in range(1, eval_network.num_subnets):
            engine.import_state(state_a)
            assert np.array_equal(engine.step_to(level).logits, reference_a[level])
            state_a = engine.export_state()
            engine.import_state(state_b)
            assert np.array_equal(engine.step_to(level).logits, reference_b[level])
            state_b = engine.export_state()

    def test_state_crosses_backends(self, eval_network, inputs):
        """stepping -> recompute -> stepping: one in-flight inference.

        The two serving backends differ only in their charged-cost
        model; their sessions share the InferenceState layout, so a
        request suspended on one can resume on the other with its aux
        buffers intact.
        """
        dtype = np.float64
        reference = _reference_logits(eval_network, inputs, dtype=dtype)
        stepping = SteppingBackend(eval_network, dtype=dtype)
        recompute = RecomputeBackend(eval_network, dtype=dtype)

        def adopt(backend, state):
            """A session on ``backend`` that resumes ``state`` where it stands."""
            session = backend.open(state.input, checked=True)
            session._state = state
            session._current_subnet = state.current_subnet
            return session

        session = stepping.open(inputs)
        assert np.array_equal(session.advance().logits, reference[0])
        state = session._state
        assert state.aux["level"] == 0

        moved = adopt(recompute, state)
        assert np.array_equal(moved.advance().logits, reference[1])
        assert state.aux["level"] == 1

        back = adopt(stepping, state)
        for level in (2, 3):
            assert np.array_equal(back.advance().logits, reference[level])

    def test_stale_aux_self_invalidates_after_oracle_detour(self, eval_network, inputs):
        """plan -> masked walk -> plan: lagging buffers must rebuild.

        The masked walk advances the cache but not the plan's aux
        buffers; on re-import the plan must notice the level tag
        mismatch, drop the stale buffers and repack from the cache
        instead of serving stale columns.
        """
        # The walk applies batch norm explicitly while the plan folds it
        # into the weights: equal up to float associativity, not
        # bit-equal — compare the detour and everything after it with
        # float64 tolerances.
        close = dict(rtol=1e-9, atol=1e-10)
        reference = _reference_logits(eval_network, inputs)
        compiled = IncrementalInference(eval_network)
        compiled.run(inputs, subnet=0)
        state = compiled.export_state()
        assert state.aux["level"] == 0

        np.testing.assert_allclose(masked_walk(eval_network, state, 1), reference[1], **close)
        # The detour advanced the cache to level 1; aux still says 0.
        assert state.aux.get("level") == 0

        compiled.import_state(state)
        np.testing.assert_allclose(compiled.step_to(2).logits, reference[2], **close)
        # Buffers were rebuilt and re-tagged at the new level.
        assert compiled._state.aux["level"] == 2
        np.testing.assert_allclose(compiled.step_to(3).logits, reference[3], **close)

    def test_oracle_state_enters_plan_without_aux(self, eval_network, inputs):
        """States the masked walk advanced (empty aux) are always valid."""
        reference = _reference_logits(eval_network, inputs)
        state = InferenceState.fresh(np.asarray(inputs, dtype=np.float64))
        masked_walk(eval_network, state, 0)
        masked_walk(eval_network, state, 1)
        assert "level" not in state.aux

        compiled = IncrementalInference(eval_network)
        compiled.import_state(state)
        np.testing.assert_allclose(
            compiled.step_to(2).logits, reference[2], rtol=1e-9, atol=1e-10
        )
        assert compiled._state.aux["level"] == 2

    def test_state_copy_isolates_aux(self, eval_network, inputs):
        """copy() must deep-copy aux arrays, not alias the live buffers."""
        engine = IncrementalInference(eval_network)
        engine.run(inputs, subnet=0)
        state = engine.export_state()
        snapshot = state.copy()
        engine.import_state(state)
        engine.step_to(eval_network.num_subnets - 1)
        for key, value in snapshot.aux.items():
            if isinstance(value, np.ndarray):
                live = engine._state.aux.get(key)
                assert live is None or value is not live
        # The snapshot still resumes from its own level correctly.
        fresh = IncrementalInference(eval_network)
        fresh.import_state(snapshot)
        reference = _reference_logits(eval_network, inputs)
        assert np.array_equal(fresh.step_to(1).logits, reference[1])
