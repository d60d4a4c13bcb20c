"""Plan equivalence: the compiled plan must reproduce the tests'
per-step-masking oracle (``tests/oracles.py``) and a from-scratch forward
pass.

Parametrised over dtype (float32/float64), pruning on/off and model
family (conv with batch norm, plain MLP); every combination steps
through several subnet levels and checks the logits three ways:

* compiled vs masked-walk stepped logits (same dtype, same path shape);
* compiled stepped logits vs a from-scratch ``network.forward`` of the
  target subnet (the ground truth the paper's reuse guarantee promises);
* exact MAC accounting (plan-cached counts equal the network's).
"""

import numpy as np
import pytest

from oracles import masked_ladder, masked_walk, patch_columns
from repro.baselines.common import set_prefix_assignments
from repro.core import IncrementalInference, NetworkPlan, SteppingNetwork
from repro.core import plan as plan_module
from repro.core.plan import BatchMember
from repro.core.pruning import apply_unstructured_pruning
from repro.models import lenet5, lenet_3c1l, mlp, tiny_cnn, vgg16
from repro.nn.tensor import no_grad
from repro.serving.backend import RecomputeBackend, SteppingBackend
from repro.utils.errors import ConfigError

TOLERANCES = {
    np.dtype(np.float64): dict(rtol=1e-9, atol=1e-10),
    np.dtype(np.float32): dict(rtol=2e-3, atol=1e-4),
}


def _conv_network():
    """Conv net with batch norm, scattered assignment and warm BN stats."""
    spec = tiny_cnn(num_classes=4, input_shape=(3, 12, 12), width_scale=0.5)
    network = SteppingNetwork(spec.expand(1.5), num_subnets=4, rng=np.random.default_rng(0))
    scatter_rng = np.random.default_rng(7)
    for block in network.parametric_blocks():
        if block.is_output:
            continue
        assignment = scatter_rng.integers(0, 5, size=block.layer.assignment.num_units)
        assignment[0] = 0
        block.layer.assignment.set_assignment(assignment)
    network.assignment.validate()
    # Move the BN running statistics off their init values so folding is
    # exercised against non-trivial means/variances.
    warm = np.random.default_rng(1).standard_normal((8, 3, 12, 12))
    network.train()
    network.forward(warm, subnet=3)
    network.eval()
    return network, np.random.default_rng(2).standard_normal((6, 3, 12, 12))


def _mlp_network():
    spec = mlp(num_classes=4, input_dim=16, hidden=(12, 8))
    network = SteppingNetwork(spec, num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    return network, np.random.default_rng(3).standard_normal((5, 16))


def _avg_pool_tanh_network():
    """Exotic block mix: tanh, average pooling with overlapping windows
    (kernel != stride, exercising the generic pooling fallback) and a
    batch-normalised hidden linear layer."""
    from repro.models.spec import (
        ArchitectureSpec,
        ConvSpec,
        FlattenSpec,
        LinearSpec,
        PoolSpec,
    )

    spec = ArchitectureSpec(
        "avg-tanh",
        (3, 12, 12),
        4,
        (
            ConvSpec(8, kernel_size=3, padding=1, activation="tanh"),
            PoolSpec("avg", 3, stride=2),
            ConvSpec(12, kernel_size=3, padding=1, activation="relu"),
            PoolSpec("max", 2),
            FlattenSpec(),
            LinearSpec(10, batch_norm=True, activation="tanh"),
            LinearSpec(4, activation="none", is_output=True),
        ),
    )
    network = SteppingNetwork(spec, num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    warm = np.random.default_rng(4).standard_normal((8, 3, 12, 12))
    network.train()
    network.forward(warm, subnet=3)
    network.eval()
    return network, np.random.default_rng(5).standard_normal((5, 3, 12, 12))


MODELS = {"conv": _conv_network, "mlp": _mlp_network, "avg_tanh": _avg_pool_tanh_network}


@pytest.fixture(params=sorted(MODELS))
def model(request):
    network, inputs = MODELS[request.param]()
    return network, inputs


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("prune", [False, True])
class TestPlanEquivalence:
    @pytest.mark.parametrize("path", [(0, 1, 2, 3), (0, 2), (1, 3), (3,)])
    def test_compiled_matches_oracle_and_forward(self, model, dtype, prune, path):
        network, inputs = model
        if prune:
            apply_unstructured_pruning(network, 3e-2)
        tol = TOLERANCES[np.dtype(dtype)]
        compiled = IncrementalInference(network, apply_prune=prune, dtype=dtype)
        want = masked_ladder(network, inputs, path, dtype, prune)
        got = compiled.run(inputs, subnet=path[0])
        np.testing.assert_allclose(got.logits, want[0], **tol)
        for level, expected in zip(path[1:], want[1:]):
            got = compiled.step_to(level)
            np.testing.assert_allclose(got.logits, expected, **tol)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=path[-1], apply_prune=prune).data
        np.testing.assert_allclose(got.logits, direct, **tol)

    def test_mac_accounting_matches_network(self, model, dtype, prune):
        network, inputs = model
        if prune:
            apply_unstructured_pruning(network, 3e-2)
        compiled = IncrementalInference(network, apply_prune=prune, dtype=dtype)
        compiled.run(inputs, subnet=0)
        result = compiled.step_to(2)
        expected_to = network.subnet_macs(2, apply_prune=prune)
        expected_from = network.subnet_macs(0, apply_prune=prune)
        assert result.cumulative_macs == expected_to
        assert result.macs_executed == expected_to - expected_from
        assert result.macs_reused == expected_from


class TestPlanObject:
    def test_subnet_macs_precomputed(self):
        network, _ = _conv_network()
        plan = NetworkPlan(network, apply_prune=True, dtype=np.float32)
        assert plan.subnet_macs == tuple(
            network.subnet_macs(level) for level in range(network.num_subnets)
        )

    def test_for_network_shares_one_plan_per_platform(self):
        network, _ = _conv_network()
        a = NetworkPlan.for_network(network, dtype=np.float32)
        b = NetworkPlan.for_network(network, dtype=np.float32)
        other_dtype = NetworkPlan.for_network(network, dtype=np.float64)
        other_prune = NetworkPlan.for_network(network, dtype=np.float32, apply_prune=False)
        assert a is b
        assert other_dtype is not a and other_prune is not a

    def test_for_network_refresh_recompiles(self):
        network, _ = _conv_network()
        stale = NetworkPlan.for_network(network, dtype=np.float32)
        fresh = NetworkPlan.for_network(network, dtype=np.float32, refresh=True)
        assert fresh is not stale
        assert NetworkPlan.for_network(network, dtype=np.float32) is fresh

    def test_backends_share_the_platform_plan(self):
        network, _ = _conv_network()
        stepping = SteppingBackend(network)
        recompute = RecomputeBackend(network)
        assert stepping.plan is recompute.plan

    def test_refresh_plan_picks_up_mutations(self):
        network, inputs = _conv_network()
        engine = IncrementalInference(network, dtype=np.float64)
        before = engine.run(inputs, subnet=3).logits.copy()
        network.param_layers[0].prune_mask[:, :, 0, 0] = 0.0
        engine.refresh_plan()
        after = engine.run(inputs, subnet=3).logits
        (want,) = masked_ladder(network, inputs, [3])
        np.testing.assert_allclose(after, want, rtol=1e-9, atol=1e-10)
        assert not np.allclose(after, before)


class TestBatchEntryPoints:
    """The entry rules the span tracer's work counter relies on: a lone
    member enters through the public ``execute``; a group never calls it
    (its MACs would count twice)."""

    @staticmethod
    def _counted_step(monkeypatch, size):
        network, inputs = _conv_network()
        plan = NetworkPlan(network, dtype=np.float64)
        members = [BatchMember(inputs=inputs[i : i + 1], cache={}, aux={}) for i in range(size)]
        for member, logits in zip(members, plan.execute_batch(members, -1, 0)):
            member.logits = logits
        calls = []
        execute = NetworkPlan.execute

        def counted(self, *args, **kwargs):
            calls.append(args)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(NetworkPlan, "execute", counted)
        plan.execute_batch(members, 0, 1)
        return len(calls)

    def test_lone_member_enters_through_execute(self, monkeypatch):
        assert self._counted_step(monkeypatch, 1) == 1

    def test_group_bypasses_execute(self, monkeypatch):
        assert self._counted_step(monkeypatch, 3) == 0

    def test_empty_group_rejected(self):
        network, _ = _conv_network()
        with pytest.raises(ValueError):
            NetworkPlan(network).execute_batch([], -1, 0)


class TestPlanStructuralLimits:
    """Networks a plan cannot represent fail loudly, with ``ConfigError``,
    wherever a plan is built: the plan, the engine and the backends."""

    def _non_incremental_network(self):
        spec = mlp(num_classes=4, input_dim=16, hidden=(12, 8))
        network = SteppingNetwork(
            spec, num_subnets=3, enforce_incremental=False, rng=np.random.default_rng(0)
        )
        set_prefix_assignments(network, [0.4, 0.7, 1.0])
        return network, np.random.default_rng(6).standard_normal((5, 16))

    def test_compile_rejects_non_incremental_layers(self):
        network, _ = self._non_incremental_network()
        with pytest.raises(ConfigError, match="enforce_incremental"):
            NetworkPlan(network)

    def test_engine_rejects_non_incremental_network(self):
        network, _ = self._non_incremental_network()
        with pytest.raises(ConfigError, match="enforce_incremental"):
            IncrementalInference(network)

    @pytest.mark.parametrize("backend_cls", [SteppingBackend, RecomputeBackend])
    def test_backend_rejects_non_incremental_network(self, backend_cls):
        network, _ = self._non_incremental_network()
        with pytest.raises(ConfigError, match="enforce_incremental"):
            backend_cls(network)

    def test_pool_before_any_parametric_layer_rejected(self):
        from repro.models.spec import (
            ArchitectureSpec,
            ConvSpec,
            FlattenSpec,
            LinearSpec,
            PoolSpec,
        )

        spec = ArchitectureSpec(
            "pool-first",
            (3, 12, 12),
            4,
            (
                PoolSpec("max", 2),
                ConvSpec(8, kernel_size=3, padding=1),
                FlattenSpec(),
                LinearSpec(4, activation="none", is_output=True),
            ),
        )
        network = SteppingNetwork(spec, num_subnets=3, rng=np.random.default_rng(0))
        set_prefix_assignments(network, [0.4, 0.7, 1.0])
        for build in (NetworkPlan, IncrementalInference, SteppingBackend):
            with pytest.raises(ConfigError, match="before pooling"):
                build(network)

    def test_for_network_cache_does_not_leak(self):
        import gc
        import weakref

        network, _ = _mlp_network()
        NetworkPlan.for_network(network)
        ref = weakref.ref(network)
        del network
        gc.collect()
        assert ref() is None


class TestCompiledStateInterop:
    """The plan writes the same cache layout as the masked-walk oracle,
    so suspended state moves freely between the two."""

    def test_state_migrates_between_compiled_and_oracle(self):
        network, inputs = _conv_network()
        compiled = IncrementalInference(network, dtype=np.float64)
        compiled.run(inputs, subnet=0)
        stepped = masked_walk(network, compiled.export_state(), 3)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=3).data
        np.testing.assert_allclose(stepped, direct, rtol=1e-9, atol=1e-10)

    def test_state_migrates_oracle_to_compiled_and_back(self):
        """Oracle steps in the middle must not leave the plan's
        incremental buffers stale (they are dropped and repacked)."""
        network, inputs = _conv_network()
        compiled = IncrementalInference(network, dtype=np.float64)
        compiled.run(inputs, subnet=0)
        state = compiled.export_state()
        masked_walk(network, state, 1)  # advances the cache without touching aux buffers
        compiled.import_state(state)
        stepped = compiled.step_to(3)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=3).data
        np.testing.assert_allclose(stepped.logits, direct, rtol=1e-9, atol=1e-10)

    def test_interleaved_compiled_contexts_stay_isolated(self):
        network, inputs = _conv_network()
        batch_a, batch_b = inputs[:2], inputs[2:4]
        engine = IncrementalInference(network, dtype=np.float64)
        engine.run(batch_a, subnet=0)
        state_a = engine.export_state()
        engine.run(batch_b, subnet=1)
        state_b = engine.export_state()
        engine.import_state(state_a)
        stepped_a = engine.step_to(3)
        engine.export_state()
        engine.import_state(state_b)
        stepped_b = engine.step_to(2)
        network.eval()
        with no_grad():
            direct_a = network.forward(batch_a, subnet=3).data
            direct_b = network.forward(batch_b, subnet=2).data
        np.testing.assert_allclose(stepped_a.logits, direct_a, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(stepped_b.logits, direct_b, rtol=1e-9, atol=1e-10)


class TestPlanInvalidationHooks:
    """Structural mutations must drop cached plans (train-then-serve safety).

    The network subscribes ``invalidate_plans`` to every layer assignment,
    so construction moves, assignment overwrites, pruning and revival all
    force the next ``for_network`` to recompile instead of serving a
    stale snapshot.
    """

    def _cached(self, network):
        return NetworkPlan.for_network(network, dtype=np.float32)

    def test_move_units_forces_recompile(self):
        network, _ = _conv_network()
        stale = self._cached(network)
        layer = network.param_layers[0]
        movable = layer.assignment.units_in_exactly(0)
        layer.assignment.move_units(movable[:1], 1)
        fresh = self._cached(network)
        assert fresh is not stale
        assert fresh.subnet_macs == tuple(
            network.subnet_macs(level) for level in range(network.num_subnets)
        )

    def test_set_assignment_forces_recompile(self):
        network, _ = _mlp_network()
        stale = self._cached(network)
        set_prefix_assignments(network, [0.4, 0.6, 0.8, 1.0])
        assert self._cached(network) is not stale

    def test_pruning_forces_recompile(self):
        network, _ = _conv_network()
        stale = self._cached(network)
        apply_unstructured_pruning(network, 5e-2)
        assert self._cached(network) is not stale

    def test_revival_forces_recompile(self):
        from repro.core.pruning import revive_incoming_synapses

        network, _ = _conv_network()
        apply_unstructured_pruning(network, 5e-2)
        stale = self._cached(network)
        revived = revive_incoming_synapses(network, 0, [0, 1])
        assert revived > 0
        assert self._cached(network) is not stale

    def test_unchanged_network_keeps_its_plan(self):
        network, _ = _conv_network()
        assert self._cached(network) is self._cached(network)

    def test_mutated_plan_serves_correct_logits(self):
        """End to end: compile, mutate, recompile via the cache, compare
        against the masked-walk oracle."""
        network, inputs = _conv_network()
        self._cached(network)  # populate the cache pre-mutation
        layer = network.param_layers[1]
        movable = layer.assignment.units_in_exactly(0)
        if movable.size > 1:
            layer.assignment.move_units(movable[:1], 2)
        apply_unstructured_pruning(network, 4e-2)
        compiled = IncrementalInference(network, dtype=np.float64)
        got = compiled.run(inputs, subnet=2).logits
        (want,) = masked_ladder(network, inputs, [2])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_retraining_invalidates_plans(self, image_loader):
        """Weight updates (distillation retraining) also stale the plan."""
        from repro.core import SteppingConfig, TrainingConfig, retrain_with_distillation

        network, _ = _conv_network()
        stale = self._cached(network)
        config = SteppingConfig(
            retrain_epochs=1,
            use_distillation=False,
            training=TrainingConfig(learning_rate=0.01, batch_size=16),
        )
        retrain_with_distillation(network, None, image_loader, config)
        assert self._cached(network) is not stale


def _assigned_network(spec, assignment: str):
    """``spec`` as a 4-level stepping net with prefix or shuffled unit levels."""
    network = SteppingNetwork(spec, num_subnets=4, rng=np.random.default_rng(0))
    if assignment == "prefix":
        set_prefix_assignments(network, [0.25, 0.5, 0.75, 1.0])
    else:
        shuffle_rng = np.random.default_rng(7)
        for block in network.parametric_blocks():
            if not block.is_output:
                levels = shuffle_rng.integers(0, 4, size=block.layer.assignment.num_units)
                levels[0] = 0
                block.layer.assignment.set_assignment(levels)
    network.assignment.validate()
    warm = np.random.default_rng(1).standard_normal((4,) + tuple(spec.input_shape))
    network.train()
    network.forward(warm, subnet=3)
    network.eval()
    return network


def _unit_indices(plan):
    """Every compiled unit-set index: slab indices and per-level active sets."""
    for step in plan.steps:
        if isinstance(step, plan_module._HiddenStep):
            yield from (slab.index for slab in step.slabs.levels)
        if isinstance(step, (plan_module._HiddenStep, plan_module._PoolStep)):
            yield from step.active


class TestSliceIndexOracle:
    """Contiguous unit ranges index with basic slices; the same plan compiled
    with every unit set forced to an index array is the bit-exact oracle.

    A slice and an index array select the same elements, so every op is
    bit-identical except a BLAS product on a strided view, whose result
    can depend on the operand's layout — which is why the output head
    gathers a contiguous copy.
    """

    MODELS = {
        "tiny_cnn": lambda: tiny_cnn(num_classes=4, input_shape=(3, 12, 12), width_scale=0.5).expand(1.5),
        "vgg16": lambda: vgg16(num_classes=10, width_scale=0.25),
    }

    @staticmethod
    def _plans(network, dtype, monkeypatch):
        sliced = NetworkPlan(network, dtype=dtype)
        with monkeypatch.context() as patch:
            patch.setattr(plan_module, "_as_slice", lambda units: None)
            arrays = NetworkPlan(network, dtype=dtype)
        return sliced, arrays

    @staticmethod
    def _walk_solo(plan, inputs, ladder):
        cache, aux, logits, level, out = {}, {}, None, -1, []
        for target in ladder:
            logits = plan.execute(inputs, cache, aux, logits, level, target)
            level = target
            out.append(logits)
        return out

    @staticmethod
    def _walk_batch(plan, inputs, ladder):
        members = [BatchMember(inputs=x, cache={}, aux={}) for x in inputs]
        level, out = -1, []
        for position, target in enumerate(ladder):
            if position == 1:
                members[0].aux.clear()  # one member repacks from its cache, solo
            logits = plan.execute_batch(members, level, target)
            for member, member_logits in zip(members, logits):
                member.logits = member_logits
            level = target
            out.extend(logits)
        return out

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_match_index_arrays_bit_for_bit(self, monkeypatch, model_name, assignment, dtype):
        spec = self.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        sliced, arrays = self._plans(network, dtype, monkeypatch)
        assert all(not isinstance(index, slice) for index in _unit_indices(arrays))
        kinds = {type(index) for index in _unit_indices(sliced)} - {type(None)}
        assert kinds == ({slice} if assignment == "prefix" else {slice, np.ndarray})

        rng = np.random.default_rng(5)
        for batch in (1, 3):
            shape = (batch,) + tuple(spec.input_shape)
            solo = rng.standard_normal(shape).astype(dtype)
            group = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
            for ladder in ([0, 1, 2, 3], [0, 2, 3], [1, 3]):
                for walk, inputs in ((self._walk_solo, solo), (self._walk_batch, group)):
                    got = walk(sliced, inputs, ladder)
                    want = walk(arrays, inputs, ladder)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (batch, ladder)


def _conv_steps(plan):
    return [
        step
        for step in plan.steps
        if isinstance(step, plan_module._HiddenStep) and step.kind == "conv"
    ]


def _im2col_steps(plan):
    """The conv steps that pack a column buffer (every conv but the dense ones)."""
    return [step for step in _conv_steps(plan) if not step.dense]


def _pool_steps(plan):
    return [step for step in plan.steps if isinstance(step, plan_module._PoolStep)]


def _poison_heap(plan, samples, dtype):
    """Fill and free a block the size of each column buffer, conv output
    cache and pooled map.  A buffer taken from ``np.empty`` next likely
    reuses one, so an element a cold step leaves unwritten shows as NaN,
    not as the zeros a freed buffer held."""
    for step in _im2col_steps(plan):
        kh, kw = step.kernel
        pixels = samples * step.out_spatial[0] * step.out_spatial[1]
        np.full((1 + step.in_channels * kh * kw, pixels), np.nan, dtype)
    for step in _conv_steps(plan):
        np.full((samples, step.num_units) + step.out_spatial, np.nan, dtype)
    for step in _pool_steps(plan):
        np.full((samples, step.num_channels) + step.out_spatial, np.nan, dtype)


class TestDepthOracle:
    """A conv step to level ``t`` multiplies only the operand rows of the
    input channels active at ``t``: its GEMM depth is
    ``span*(last active input channel + 1)``, where ``span`` is ``kh*kw``
    (im2col) or the input map's ``h*w`` (dense).  Each slab carries its
    folded bias as column 0 on top.  The full-depth product of the same
    step is the oracle; it agrees within the tier-1 tolerances (a shorter
    BLAS reduction can round differently)."""

    @pytest.mark.parametrize("model_name", sorted(TestSliceIndexOracle.MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depth_is_the_last_active_input_channel(self, model_name, assignment, dtype):
        network = _assigned_network(TestSliceIndexOracle.MODELS[model_name](), assignment)
        plan = NetworkPlan(network, dtype=dtype)
        steps = _conv_steps(plan)
        assert steps
        truncated = False
        for step in steps:
            block = next(b for b in network.blocks if b.param_index == step.param_index)
            in_levels = np.asarray(network.input_unit_subnet(step.param_index))
            height, width = step.in_spatial if step.dense else step.kernel
            span = height * width  # GEMM columns per input channel
            for level in range(plan.num_subnets):
                active = np.flatnonzero(in_levels <= level)
                last = int(active[-1]) + 1 if active.size else 0
                truncated |= last < step.in_channels
                assert step.slabs.depths[level] == span * last
                assert step.slabs.levels[level].weight.shape[1] == 1 + span * last
                for from_subnet in range(-1, level):
                    assert step.slabs.pack(from_subnet, level).weight.shape[1] == 1 + span * last
                # Soundness: every masked weight past the depth is zero.
                units = block.layer.assignment.units_in_exactly(level)
                weight = block.layer.weight_rows(units, level, in_levels)
                assert not weight[:, last:].any()
        assert truncated

    @pytest.mark.parametrize("model_name", sorted(TestSliceIndexOracle.MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_truncated_product_matches_full_depth(self, model_name, assignment, dtype):
        spec = TestSliceIndexOracle.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        plan = NetworkPlan(network, dtype=dtype)
        tol = TOLERANCES[np.dtype(dtype)]
        inputs = np.random.default_rng(6).standard_normal((2,) + tuple(spec.input_shape))
        cache, aux, logits, level = {}, {}, None, -1
        for target in range(plan.num_subnets):
            logits = plan.execute(inputs.astype(dtype), cache, aux, logits, level, target)
            for step in _im2col_steps(plan):
                slab = step.slabs.pack(level, target)
                cols = aux[("cols", step.param_index)]
                width = slab.weight.shape[1]  # the bias column and the depth
                wide = np.zeros((slab.weight.shape[0], cols.shape[0]), dtype=dtype)
                wide[:, :width] = slab.weight
                assert (cols[0] == 1).all()  # the ones row meets the bias column
                assert not cols[width:].any()  # rows past the depth are inactive
                np.testing.assert_allclose(slab.weight @ cols[:width], wide @ cols, **tol)
            level = target

    @pytest.mark.parametrize("model_name", sorted(TestSliceIndexOracle.MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inactive_column_rows_are_zero(self, model_name, assignment, dtype):
        """Every column-buffer row of an input channel inactive at the
        member's level is zero: the shuffled assignment's gap rows too, not
        only the rows past the depth.  Channel rows sit below the buffer's
        ones row; dense convs have no buffer.  A cold step zeroes just
        these rows of an uninitialised buffer and packs the rest, so this
        holds after warm steps, cold rebuilds and batched steps, at 1, 3, 1
        and 3 samples (the plan's scratch map grows, then serves a smaller
        count).  Fresh conv output caches and pooled maps, also from
        ``np.empty``, hold zeros at every unit or channel inactive at the
        level and no NaN anywhere."""
        spec = TestSliceIndexOracle.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        plan = NetworkPlan(network, dtype=dtype)
        input_levels = {
            step.param_index: np.asarray(network.input_unit_subnet(step.param_index))
            for step in _im2col_steps(plan)
        }
        unit_levels = {
            step.param_index: np.asarray(network.param_layers[step.param_index].assignment.unit_subnet)
            for step in _conv_steps(plan)
        }
        pooled_levels, pooled = {}, None
        for step in plan.steps:  # a pooled map has the channels of the conv before it
            if step in _conv_steps(plan):
                pooled = unit_levels[step.param_index]
            elif isinstance(step, plan_module._PoolStep):
                pooled_levels[("pool", step.index)] = pooled
        gaps = False

        def check(cache, aux, level):
            nonlocal gaps
            for param, in_levels in input_levels.items():
                cols = aux[("cols", param)]
                assert (cols[0] == 1).all(), param
                rows = np.flatnonzero(in_levels > level)
                assert not cols[1:].reshape(in_levels.size, -1)[rows].any(), (param, level)
                active = np.flatnonzero(in_levels <= level)
                gaps |= bool(rows.size and active.size and rows[0] < active[-1])
            maps = [(cache[param], levels) for param, levels in unit_levels.items()]
            maps += [(aux[key], levels) for key, levels in pooled_levels.items()]
            for values, levels in maps:
                assert not np.isnan(values).any(), level
                assert not values[:, levels > level].any(), level

        rng = np.random.default_rng(10)
        for batch, cold_at in ((1, (1, 3)), (3, (2,)), (1, (2,)), (3, (1, 3))):
            shape = (batch,) + tuple(spec.input_shape)
            inputs = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
            cache, aux, logits, level = {}, {}, None, -1
            members = [BatchMember(inputs=x, cache={}, aux={}) for x in inputs]
            for target in range(plan.num_subnets):
                if target in cold_at:
                    aux.clear()  # a cold rebuild; the next step runs warm on it
                    members[1].aux.clear()  # one cold member in a batched step
                if target in cold_at or target == 0:
                    _poison_heap(plan, batch, dtype)
                logits = plan.execute(inputs[0], cache, aux, logits, level, target)
                check(cache, aux, target)
                for member, member_logits in zip(
                    members, plan.execute_batch(members, level, target)
                ):
                    member.logits = member_logits
                    check(member.cache, member.aux, target)
                level = target
        assert gaps == (assignment == "shuffled")


class TestScratchReuseOracle:
    """The im2col scratch pad is plan state shared by every request: a
    ladder on a plan that already served other batch sizes is bit-equal
    to the same ladder on a freshly built plan.  Catches pad state that
    leaks across sample counts — a pad that does not grow, or a view
    sized by a stale count.  A border dirtied by any pack shows within
    one ladder, so the oracle-equivalence tests above catch it."""

    @pytest.mark.parametrize("model_name", sorted(TestSliceIndexOracle.MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ladders_on_a_shared_plan_match_fresh_plans(self, model_name, assignment, dtype):
        spec = TestSliceIndexOracle.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        shared = NetworkPlan(network, dtype=dtype)
        rng = np.random.default_rng(8)
        ladder = [0, 1, 2, 3]
        for batch in (1, 3, 1):
            shape = (batch,) + tuple(spec.input_shape)
            solo = rng.standard_normal(shape).astype(dtype)
            group = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
            for walk, inputs in (
                (TestSliceIndexOracle._walk_solo, solo),
                (TestSliceIndexOracle._walk_batch, group),
            ):
                got = walk(shared, inputs, ladder)
                want = walk(NetworkPlan(network, dtype=dtype), inputs, ladder)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (batch, walk)
        for step in _im2col_steps(shared):  # the flat scratch holds 3 samples
            (ph, pw), (height, width) = step.padding, step.in_spatial
            row, guard = (width, pw) if step.rows else (width + 2 * pw, 0)
            plane = step.in_channels * (height + 2 * ph) * row
            assert step.scratch.shape == (3 * plane + 2 * guard,), step.param_index
        assert all(step.scratch is None for step in _conv_steps(shared) if step.dense)


def _ladder_network(spec, levels: int, assignment: str):
    """``spec`` as a pruned ``levels``-level stepping net, prefix or shuffled.

    The prefix fractions are the 32-level serving ladder's: a 1/16 entry
    subnet, then equal steps, so most edges add no unit to the narrow
    first layers.
    """
    network = SteppingNetwork(spec, num_subnets=levels, rng=np.random.default_rng(0))
    if assignment == "prefix":
        entry = 1.0 / 16.0 if levels > 4 else 1.0 / levels
        set_prefix_assignments(
            network, [entry + level * (1.0 - entry) / (levels - 1) for level in range(levels)]
        )
    else:
        shuffle_rng = np.random.default_rng(7)
        for block in network.parametric_blocks():
            if not block.is_output:
                drawn = shuffle_rng.integers(0, levels, size=block.layer.assignment.num_units)
                drawn[0] = 0
                block.layer.assignment.set_assignment(drawn)
    network.assignment.validate()
    warm = np.random.default_rng(1).standard_normal((4,) + tuple(spec.input_shape))
    network.train()
    network.forward(warm, subnet=levels - 1)
    network.eval()
    apply_unstructured_pruning(network, 3e-2)
    return network


class TestEdgeProgramOracle:
    """Every ``(from, to)`` edge, jumps included, three ways, byte for byte:

    * the warm program, on a state a complete pass left at ``from``;
    * the cold program, on the same state after ``drop_aux`` — it
      rebuilds every column buffer and pooled map from the cache;
    * the same state as one member of a 3-member ``execute_batch``, whose
      walk is independent of the compiled programs.

    Logits, activation caches and rebuilt ``aux`` buffers must all agree.
    A warm program that leaves out an op with work to do (say, a pool's
    update) or runs one on the wrong channels breaks the first two apart.
    """

    NETWORKS = {
        "vgg16": (lambda: vgg16(num_classes=10, width_scale=0.25), 4),
        "tiny_cnn32": (
            lambda: tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=0.5).expand(1.5),
            32,
        ),
    }

    @staticmethod
    def _state_bytes(state):
        arrays = [state.logits] + [state.cache[key] for key in sorted(state.cache)]
        arrays += [state.aux[key] for key in sorted(state.aux, key=repr) if key != "level"]
        return [(array.dtype.str, array.shape, array.tobytes()) for array in arrays]

    @staticmethod
    def _step(plan, state, to_subnet):
        state.logits = plan.execute(
            state.input, state.cache, state.aux, state.logits, state.current_subnet, to_subnet
        )
        state.current_subnet = to_subnet
        return state

    @pytest.mark.parametrize("model_name", sorted(NETWORKS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_warm_cold_and_batched_agree_on_every_edge(self, model_name, assignment, dtype):
        from repro.core.incremental import InferenceState

        make, levels = self.NETWORKS[model_name]
        spec = make()
        network = _ladder_network(spec, levels, assignment)
        plan = NetworkPlan(network, dtype=dtype)
        rng = np.random.default_rng(9)
        for batch in (1, 3):
            shape = (batch,) + tuple(spec.input_shape)
            states = [
                InferenceState.fresh(rng.standard_normal(shape).astype(dtype)) for _ in range(3)
            ]
            for from_subnet in range(-1, levels - 1):
                for to_subnet in range(from_subnet + 1, levels):
                    warm = self._step(plan, states[0].copy(), to_subnet)
                    cold = states[0].copy()
                    cold.drop_aux()
                    cold = self._step(plan, cold, to_subnet)
                    group = [state.copy() for state in states]
                    members = [
                        BatchMember(inputs=s.input, cache=s.cache, aux=s.aux, logits=s.logits)
                        for s in group
                    ]
                    batched = group[0]
                    batched.logits = plan.execute_batch(members, from_subnet, to_subnet)[0]
                    want = self._state_bytes(warm)
                    edge = (batch, from_subnet, to_subnet)
                    assert self._state_bytes(cold) == want, edge
                    assert self._state_bytes(batched) == want, edge
                # Walk the ladder one warm step to reach the next ``from``.
                states = [self._step(plan, state, from_subnet + 1) for state in states]
        warm_ops = {key[:2]: len(p.ops) for key, p in plan._programs.items() if key[2]}
        cold_ops = {key[:2]: len(p.ops) for key, p in plan._programs.items() if not key[2]}
        assert len(cold_ops) == levels * (levels + 1) // 2
        assert len(warm_ops) == levels * (levels - 1) // 2
        assert all(warm_ops[edge] < cold_ops[edge] for edge in warm_ops)
        if model_name == "tiny_cnn32" and assignment == "prefix":
            # Elision is real here: some edges skip whole layers, some all of them.
            assert len(set(warm_ops.values())) > 1 and min(warm_ops.values()) == 0


def _small_map_spec(stride: int, padding: int):
    """A conv net whose later convs see maps no larger than their 3x3 window.

    The first conv (6x6 input) packs im2col columns; after a 2x2 pool the
    second reads the pooled 3x3 map and the third the second's cache, both
    through the dense form when the rule admits them.
    """
    from repro.models.spec import ArchitectureSpec, ConvSpec, FlattenSpec, LinearSpec, PoolSpec

    return ArchitectureSpec(
        "small-maps",
        (3, 6, 6),
        4,
        (
            ConvSpec(8, kernel_size=3, padding=1),
            PoolSpec("max", 2),
            ConvSpec(12, kernel_size=3, stride=stride, padding=padding),
            ConvSpec(10, kernel_size=3, padding=1),
            FlattenSpec(),
            LinearSpec(4, activation="none", is_output=True),
        ),
    )


class TestDenseConv:
    """A conv whose input map is no larger than its kernel window
    (``in_h*in_w <= kh*kw``) runs as one dense GEMM over the flattened map,
    which never issues more MACs than im2col; every other conv keeps its
    column buffer."""

    def test_vgg16_at_32_compiles_exactly_its_2x2_convs_dense(self):
        network = _assigned_network(vgg16(num_classes=10, width_scale=0.25), "prefix")
        plan = NetworkPlan(network, dtype=np.float32)
        steps = _conv_steps(plan)
        assert len(steps) == 13
        assert [number + 1 for number, step in enumerate(steps) if step.dense] == [11, 12, 13]
        assert all(step.in_spatial == (2, 2) for step in steps if step.dense)

    @pytest.mark.parametrize("side, dense", [(3, True), (4, False)])
    def test_the_rule_stops_at_the_kernel_window(self, side, dense):
        from repro.models.spec import ArchitectureSpec, ConvSpec, FlattenSpec, LinearSpec

        spec = ArchitectureSpec(
            "one-conv",
            (3, side, side),
            4,
            (ConvSpec(6), FlattenSpec(), LinearSpec(4, activation="none", is_output=True)),
        )
        network = _assigned_network(spec, "shuffled")
        compiled = IncrementalInference(network)
        (step,) = _conv_steps(compiled.plan)
        assert step.dense is dense
        inputs = np.random.default_rng(14).standard_normal((2, 3, side, side))
        tol = TOLERANCES[np.dtype(np.float64)]
        ladder = range(network.num_subnets)
        want = masked_ladder(network, inputs, ladder)
        np.testing.assert_allclose(compiled.run(inputs, subnet=0).logits, want[0], **tol)
        for level in ladder[1:]:
            np.testing.assert_allclose(compiled.step_to(level).logits, want[level], **tol)
        assert (("cols", step.param_index) in compiled.export_state().aux) is not dense

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_steps_match_oracle(self, stride, padding, assignment, dtype):
        spec = _small_map_spec(stride, padding)
        network = _assigned_network(spec, assignment)
        compiled = IncrementalInference(network, dtype=dtype)
        steps = _conv_steps(compiled.plan)
        assert [step.dense for step in steps] == [False, True, True]
        tol = TOLERANCES[np.dtype(dtype)]
        rng = np.random.default_rng(11)
        for samples in (1, 3):
            inputs = rng.standard_normal((samples,) + tuple(spec.input_shape))
            for ladder in ([0, 1, 2, 3], [1, 3]):
                want = masked_ladder(network, inputs, ladder, dtype)
                got = compiled.run(inputs, subnet=ladder[0]).logits
                np.testing.assert_allclose(got, want[0], **tol)
                for level, expected in zip(ladder[1:], want[1:]):
                    got = compiled.step_to(level).logits
                    np.testing.assert_allclose(got, expected, **tol)
                buffers = {key for key in compiled.export_state().aux if key[0] == "cols"}
                assert buffers == {("cols", steps[0].param_index)}  # none for dense convs

    @pytest.mark.parametrize("samples", [1, 3])
    def test_vgg16_state_nbytes_follows_the_buffers(self, samples):
        network = _assigned_network(vgg16(num_classes=10, width_scale=0.25), "prefix")
        engine = IncrementalInference(network, dtype=np.float32)
        inputs = np.random.default_rng(12).standard_normal((samples, 3, 32, 32))
        engine.run(inputs, subnet=0)
        assert engine.plan.state_nbytes(samples) == engine.state_nbytes()


class TestModelZooTolerance:
    """Compiled ladders on the paper's models hold the documented tolerance
    of the masked-walk oracle: the bias column, the depth cut and the dense
    convs change only the order of float sums."""

    MODELS = {
        "tiny_cnn": lambda: tiny_cnn(num_classes=4, input_shape=(3, 12, 12), width_scale=0.5).expand(1.5),
        "lenet5": lambda: lenet5(num_classes=10),
        "lenet_3c1l": lambda: lenet_3c1l(num_classes=10, width_scale=0.5),
        "vgg16": lambda: vgg16(num_classes=10, width_scale=0.25),
    }

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_compiled_ladder_matches_oracle(self, model_name, assignment, dtype):
        spec = self.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        apply_unstructured_pruning(network, 3e-2)
        compiled = IncrementalInference(network, dtype=dtype)
        inputs = np.random.default_rng(13).standard_normal((2,) + tuple(spec.input_shape))
        tol = TOLERANCES[np.dtype(dtype)]
        ladder = range(network.num_subnets)
        want = masked_ladder(network, inputs, ladder, dtype)
        np.testing.assert_allclose(compiled.run(inputs, subnet=0).logits, want[0], **tol)
        for level in ladder[1:]:
            np.testing.assert_allclose(compiled.step_to(level).logits, want[level], **tol)


def _odd_convs_spec():
    """Convs off the zoo's 3x3 "same" path: a 5x5 "same" conv (two wrap
    distances), a 1x1 conv (none) and a stride-2 conv (padded scratch)."""
    from repro.models.spec import ArchitectureSpec, ConvSpec, FlattenSpec, LinearSpec

    return ArchitectureSpec(
        "odd-convs",
        (3, 10, 6),
        4,
        (
            ConvSpec(8, kernel_size=5, padding=2),
            ConvSpec(6, kernel_size=1, padding=0),
            ConvSpec(8, kernel_size=3, stride=2, padding=1),
            FlattenSpec(),
            LinearSpec(4, activation="none", is_output=True),
        ),
    )


def _narrow_spec():
    """A 5x5 "same" conv over a map one pixel wide: every pixel of the
    outer taps lies in the padding, so a wrap view spans whole rows."""
    from repro.models.spec import ArchitectureSpec, ConvSpec, FlattenSpec, LinearSpec

    return ArchitectureSpec(
        "narrow",
        (3, 30, 1),
        4,
        (
            ConvSpec(6, kernel_size=5, padding=2),
            FlattenSpec(),
            LinearSpec(4, activation="none", is_output=True),
        ),
    )


def _conv_inputs(plan):
    """Each im2col conv step, with a reader of its input map from one
    member's ``(inputs, cache, aux)``."""
    read, pairs = (lambda x, cache, aux: x), []
    for step in plan.steps:
        if isinstance(step, plan_module._HiddenStep):
            if step.kind == "conv" and not step.dense:
                pairs.append((step, read))
            read = lambda x, cache, aux, key=step.param_index: cache[key]  # noqa: E731
        elif isinstance(step, plan_module._PoolStep):
            read = lambda x, cache, aux, key=("pool", step.index): aux[key]  # noqa: E731
    return pairs


class TestColumnBufferOracle:
    """After every step each im2col conv's column buffer holds, at the rows
    of the input channels active at the member's level, the bytes of
    ``oracles.patch_columns`` over the conv's current input map.

    Checked after warm steps, cold rebuilds and 3-member ``execute_batch``
    steps (one member cold), over a full and a jump ladder, at 1 and 3
    samples.  The oracle pads with ``np.pad`` and gathers with the training
    path's im2col, so it checks both scratch geometries: a wrap entry left
    unzeroed holds a neighbouring row's pixel, and a misplaced run shifts
    a whole patch.
    """

    MODELS = {
        **TestModelZooTolerance.MODELS,
        "odd_convs": _odd_convs_spec,
        "narrow": _narrow_spec,
    }

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("assignment", ["prefix", "shuffled"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_columns_match_im2col(self, model_name, assignment, dtype):
        spec = self.MODELS[model_name]()
        network = _assigned_network(spec, assignment)
        plan = NetworkPlan(network, dtype=dtype)
        pairs = _conv_inputs(plan)
        assert pairs
        in_levels = {
            step.param_index: np.asarray(network.input_unit_subnet(step.param_index))
            for step, _ in pairs
        }

        def check(x, cache, aux, level):
            for step, read in pairs:
                kh, kw = step.kernel
                cols = aux[("cols", step.param_index)]
                rows = cols[1:].reshape(step.in_channels, kh * kw, -1)
                want = patch_columns(read(x, cache, aux), step.kernel, step.stride, step.padding)
                active = np.flatnonzero(in_levels[step.param_index] <= level)
                got, want = rows[active], want.reshape(rows.shape)[active]
                assert got.tobytes() == want.tobytes(), (step.param_index, level)

        rng = np.random.default_rng(15)
        for samples in (1, 3):
            shape = (samples,) + tuple(spec.input_shape)
            inputs = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
            for ladder in ([0, 1, 2, 3], [1, 3]):
                for cold in (False, True):
                    cache, aux, logits, level = {}, {}, None, -1
                    for target in ladder:
                        if cold:
                            aux.clear()
                        logits = plan.execute(inputs[0], cache, aux, logits, level, target)
                        level = target
                        check(inputs[0], cache, aux, level)
                members = [BatchMember(inputs=x, cache={}, aux={}) for x in inputs]
                level = -1
                for position, target in enumerate(ladder):
                    if position == 1:
                        members[1].aux.clear()  # one cold member in a batched step
                    for member, logits in zip(members, plan.execute_batch(members, level, target)):
                        member.logits = logits
                        check(member.inputs, member.cache, member.aux, target)
                    level = target

    def test_same_stride1_convs_pack_whole_rows(self):
        """Stride-1 convs whose output row is as wide as their input row
        take the rows geometry, with one wrap view per padding column:
        VGG-16 conv 1-10 (its 2x2 convs are dense), the tiny CNN and
        LeNet-3C1L; LeNet-5's 5x5 "valid" convs and stride-2 convs keep the
        padded scratch."""
        expected = {
            "vgg16": ([True] * 10, [1] * 10),
            "tiny_cnn": ([True, True], [1, 1]),
            "lenet_3c1l": ([True] * 3, [1] * 3),
            "lenet5": ([False, False], [0, 0]),
            "odd_convs": ([True, True, False], [2, 0, 0]),
            "narrow": ([True], [2]),
        }
        for name, (rows, wraps) in expected.items():
            spec = self.MODELS[name]()
            plan = NetworkPlan(_assigned_network(spec, "prefix"), dtype=np.float32)
            plan.execute(np.zeros((1,) + tuple(spec.input_shape), np.float32), {}, {}, None, -1, 3)
            steps = _im2col_steps(plan)
            assert [step.rows for step in steps] == rows, name
            assert [len(step.views[1][2]) for step in steps] == wraps, name
