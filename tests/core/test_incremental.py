"""Tests for the incremental inference engine — the reuse guarantee of SteppingNet."""

import numpy as np
import pytest

from repro.core.assignment import prefix_assignment
from repro.core.incremental import IncrementalInference, anytime_schedule
from repro.core.network import SteppingNetwork
from repro.models import vgg16
from repro.nn.tensor import no_grad
from repro.utils.errors import ConfigError


@pytest.fixture
def network(tiny_spec, rng, image_loader):
    """A stepping network with a non-trivial, irregular subnet structure."""
    net = SteppingNetwork(tiny_spec.expand(1.5), num_subnets=3, rng=rng)
    # Scatter units over subnets (including some unused) to exercise the
    # general case rather than the all-in-subnet-0 default.
    scatter_rng = np.random.default_rng(7)
    for block in net.parametric_blocks():
        if block.is_output:
            continue
        layer = block.layer
        assignment = scatter_rng.integers(0, 4, size=layer.assignment.num_units)
        assignment[0] = 0  # keep the minimum-width invariant
        layer.assignment.set_assignment(assignment)
    net.assignment.validate()
    return net


@pytest.fixture
def inputs(image_batch):
    return image_batch[0]


class TestExactness:
    def test_initial_run_matches_direct_forward(self, network, inputs):
        engine = IncrementalInference(network)
        result = engine.run(inputs, subnet=0)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=0).data
        np.testing.assert_allclose(result.logits, direct, atol=1e-10)

    @pytest.mark.parametrize("path", [(0, 1, 2), (0, 2), (1, 2)])
    def test_stepping_matches_direct_forward_of_target_subnet(self, network, inputs, path):
        engine = IncrementalInference(network)
        result = engine.run(inputs, subnet=path[0])
        for level in path[1:]:
            result = engine.step_to(level)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=path[-1]).data
        np.testing.assert_allclose(result.logits, direct, atol=1e-10)

    def test_step_up_convenience(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        result = engine.step_up()
        assert result.subnet == 1

    def test_prune_mask_respected(self, network, inputs):
        layer = network.param_layers[0]
        layer.prune_mask[:, :, 0, 0] = 0.0
        engine = IncrementalInference(network, apply_prune=True)
        result = engine.run(inputs, subnet=2)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=2, apply_prune=True).data
        np.testing.assert_allclose(result.logits, direct, atol=1e-10)


class TestMacAccounting:
    def test_step_macs_equal_subnet_difference(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        result = engine.step_to(2)
        assert result.macs_executed == network.subnet_macs(2) - network.subnet_macs(0)
        assert result.macs_reused == network.subnet_macs(0)
        assert result.cumulative_macs == network.subnet_macs(2)

    def test_total_stepped_macs_equal_largest_subnet(self, network, inputs):
        results = anytime_schedule(network, inputs)
        total_executed = sum(step.macs_executed for step in results)
        assert total_executed == network.subnet_macs(network.num_subnets - 1)

    def test_reuse_fraction_grows_with_each_step(self, network, inputs):
        results = anytime_schedule(network, inputs)
        fractions = [step.reuse_fraction for step in results[1:]]
        assert all(f > 0 for f in fractions)

    def test_stepping_cheaper_than_rerunning(self, network, inputs):
        """The headline claim: refining via steps costs less than re-running each subnet."""
        results = anytime_schedule(network, inputs)
        stepped = sum(step.macs_executed for step in results)
        rerun = sum(network.subnet_macs(i) for i in range(network.num_subnets))
        assert stepped < rerun


class TestPredictionsAndState:
    def test_predictions_shape(self, network, inputs):
        engine = IncrementalInference(network)
        result = engine.run(inputs, subnet=0)
        assert result.predictions.shape == (inputs.shape[0],)

    def test_steps_are_recorded(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        engine.step_to(1)
        engine.step_to(2)
        assert [step.subnet for step in engine.steps] == [0, 1, 2]
        assert engine.current_subnet == 2

    def test_reset_clears_state(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        engine.reset()
        assert engine.current_subnet == -1
        assert engine.steps == []

    def test_run_on_new_batch_resets_cache(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        other = inputs + 1.0
        result = engine.run(other, subnet=0)
        network.eval()
        with no_grad():
            direct = network.forward(other, subnet=0).data
        np.testing.assert_allclose(result.logits, direct, atol=1e-10)


class TestErrors:
    def test_step_before_run(self, network):
        with pytest.raises(RuntimeError):
            IncrementalInference(network).step_to(1)

    def test_step_down_rejected(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=2)
        with pytest.raises(ValueError):
            engine.step_to(1)

    def test_step_out_of_range(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        with pytest.raises(IndexError):
            engine.step_to(10)

    @pytest.mark.parametrize("subnet", [1.5, 2.0, True, np.float64(1.0), np.bool_(True)])
    def test_non_integer_subnet_rejected(self, network, inputs, subnet):
        """``run(x, 1.5)`` and ``step_to(2.0)`` used to fail deep in the plan
        with a TypeError, and ``run(x, True)`` returned ``subnet=True``."""
        engine = IncrementalInference(network)
        with pytest.raises(ConfigError, match="integer level"):
            engine.run(inputs, subnet)
        assert engine.current_subnet == -1
        engine.run(inputs, 0)
        with pytest.raises(ConfigError, match="integer level"):
            engine.step_to(subnet)
        assert engine.current_subnet == 0

    def test_numpy_integer_subnet_accepted(self, network, inputs):
        engine = IncrementalInference(network)
        first = engine.run(inputs, np.int64(0))
        stepped = engine.step_to(np.int32(2))
        assert type(first.subnet) is int and type(stepped.subnet) is int
        oracle = IncrementalInference(network)
        oracle.run(inputs, 0)
        assert stepped.logits.tobytes() == oracle.step_to(2).logits.tobytes()

    @pytest.mark.parametrize(
        "bad_call, error",
        [
            (lambda engine, x: engine.run(x, 9), IndexError),
            (lambda engine, x: engine.run(x, -1), IndexError),
            (lambda engine, x: engine.run(x, 1.0), ConfigError),
            (lambda engine, x: engine.run(x[:, :2], 1), ConfigError),
        ],
        ids=["out_of_range", "negative", "float", "bad_shape"],
    )
    def test_rejected_run_leaves_the_engine_unchanged(self, network, inputs, bad_call, error):
        """A rejected ``run`` used to reset the engine first: after
        ``run(x, 1)`` it left ``_input`` set and ``current_subnet == -1``,
        so a following ``step_to(2)`` silently ran from scratch."""
        engine = IncrementalInference(network)
        engine.run(inputs, 1)
        other = np.random.default_rng(11).standard_normal(inputs.shape)
        with pytest.raises(error):
            bad_call(engine, other)
        assert engine.current_subnet == 1
        assert [step.subnet for step in engine.steps] == [1]
        oracle = IncrementalInference(network)
        oracle.run(inputs, 1)
        assert engine.step_to(2).logits.tobytes() == oracle.step_to(2).logits.tobytes()

    def test_anytime_schedule_requires_levels(self, network, inputs):
        with pytest.raises(ValueError):
            anytime_schedule(network, inputs, subnets=[])

    def test_flat_input_rejected_for_conv_network(self, network):
        with pytest.raises(ValueError):
            IncrementalInference(network).run(np.zeros((2, 10)), subnet=0)

    @pytest.mark.parametrize(
        "shape",
        [(1, 4, 32, 32), (1, 3, 28, 28), (0, 3, 32, 32), (3, 32, 32)],
        ids=["extra_channel", "wrong_spatial", "empty_batch", "no_batch_axis"],
    )
    def test_wrong_input_shape_rejected_at_run(self, shape):
        """A 4-channel input used to return logits (the plan packed only
        channels 0-2) and a 28x28 one failed deep in the pack."""
        network = SteppingNetwork(
            vgg16(num_classes=10, width_scale=0.25), num_subnets=4, rng=np.random.default_rng(0)
        )
        engine = IncrementalInference(network)
        with pytest.raises(ConfigError, match="inputs"):
            engine.run(np.zeros(shape), subnet=0)
        assert engine.run(np.zeros((1, 3, 32, 32)), subnet=0).logits.shape == (1, 10)


class TestMlpNetwork:
    def test_incremental_reuse_on_mlp(self, mlp_spec, rng):
        network = SteppingNetwork(mlp_spec, num_subnets=3, rng=rng)
        for block in network.parametric_blocks():
            if block.is_output:
                continue
            layer = block.layer
            layer.assignment.set_assignment(
                prefix_assignment(layer.assignment.num_units, 3, [0.4, 0.7, 1.0]).unit_subnet
            )
        x = np.random.default_rng(0).standard_normal((5, 16))
        engine = IncrementalInference(network)
        engine.run(x, subnet=0)
        stepped = engine.step_to(2)
        network.eval()
        with no_grad():
            direct = network.forward(x, subnet=2).data
        np.testing.assert_allclose(stepped.logits, direct, atol=1e-10)


class TestSuspendResume:
    """export_state / import_state: the serving engine's context switch."""

    def test_export_resets_engine(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        state = engine.export_state()
        assert engine.current_subnet == -1
        assert state.current_subnet == 0

    def test_resume_continues_with_reuse(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        state = engine.export_state()
        engine.import_state(state)
        result = engine.step_to(2)
        assert result.macs_executed == network.subnet_macs(2) - network.subnet_macs(0)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=2).data
        np.testing.assert_allclose(result.logits, direct, atol=1e-10)

    def test_interleaved_contexts_stay_isolated(self, network, inputs):
        """One engine serves two input batches alternately, like the
        serving engine multiplexing preempted requests."""
        batch_a, batch_b = inputs[:2], inputs[2:4]
        engine = IncrementalInference(network)

        engine.run(batch_a, subnet=0)
        state_a = engine.export_state()
        engine.run(batch_b, subnet=0)
        state_b = engine.export_state()

        engine.import_state(state_a)
        stepped_a = engine.step_to(2)
        state_a = engine.export_state()
        engine.import_state(state_b)
        stepped_b = engine.step_to(1)

        network.eval()
        with no_grad():
            direct_a = network.forward(batch_a, subnet=2).data
            direct_b = network.forward(batch_b, subnet=1).data
        np.testing.assert_allclose(stepped_a.logits, direct_a, atol=1e-10)
        np.testing.assert_allclose(stepped_b.logits, direct_b, atol=1e-10)

    def test_import_none_resets(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        engine.import_state(None)
        assert engine.current_subnet == -1

    def test_state_copy_is_isolated(self, network, inputs):
        engine = IncrementalInference(network)
        engine.run(inputs, subnet=0)
        state = engine.export_state()
        snapshot = state.copy()
        engine.import_state(state)
        engine.step_to(2)  # mutates the live state's caches in place
        assert snapshot.current_subnet == 0
        for key, value in snapshot.cache.items():
            assert value.flags.owndata or value.base is not state.cache.get(key)


class TestInferenceDtype:
    def test_default_is_float64(self, network, inputs):
        engine = IncrementalInference(network)
        result = engine.run(inputs, subnet=0)
        assert result.logits.dtype == np.float64

    def test_float32_pipeline(self, network, inputs):
        engine = IncrementalInference(network, dtype=np.float32)
        result = engine.run(inputs, subnet=0)
        assert result.logits.dtype == np.float32
        stepped = engine.step_to(2)
        assert stepped.logits.dtype == np.float32
        for cached in engine._state.cache.values():
            assert cached.dtype == np.float32

    def test_float32_close_to_float64(self, network, inputs):
        exact = IncrementalInference(network).run(inputs, subnet=2)
        fast = IncrementalInference(network, dtype=np.float32).run(inputs, subnet=2)
        np.testing.assert_allclose(fast.logits, exact.logits, rtol=1e-4, atol=1e-4)
