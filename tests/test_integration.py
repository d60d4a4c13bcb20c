"""Cross-module integration tests: the claims the paper makes, end to end.

These tests run on the shared smoke-scale SteppingNet result (see
``trained_smoke_result`` in conftest) plus dedicated small scenarios, and
assert the qualitative properties the paper's evaluation reports:
incremental accuracy enhancement, MAC-budget compliance, computational
reuse when stepping, and the advantage of flexible subnet structures.
"""

import numpy as np
import pytest

from repro.analysis.experiments import SMOKE, prepare_data, prepare_spec, scaled_config
from repro.analysis.metrics import monotonic_violations
from repro.baselines import train_any_width, train_slimmable
from repro.core import IncrementalInference, anytime_schedule, build_steppingnet
from repro.nn.tensor import no_grad
from repro.serving import SteppingBackend
from repro.utils.errors import ConfigError


def _forward_logits(network, inputs, subnet):
    """Eval-mode masked forward logits of ``subnet``, as the evaluation computes them."""
    was_training = network.training
    network.eval()
    try:
        with no_grad():
            return network.forward(inputs, subnet=subnet).data
    finally:
        network.train(was_training)


def assert_served_accuracy_is_reported(network, loader, reported):
    """A float64 plan ladder over ``loader`` predicts what the masked forward does.

    Per batch, one :class:`IncrementalInference` ladder serves every
    subnet; its per-sample argmax must equal ``network.forward(subnet=k)``'s
    for every ``k``, and its accuracies must equal ``reported`` — the
    accuracies the construction flow evaluated on the masked forward.
    """
    engine = IncrementalInference(network, dtype=np.float64)
    levels = range(network.num_subnets)
    correct = [0] * network.num_subnets
    total = 0
    for batch, (inputs, labels) in enumerate(loader):
        served = [engine.run(inputs, subnet=0)] + [engine.step_to(k) for k in levels[1:]]
        for k, step in zip(levels, served):
            direct = _forward_logits(network, inputs, k)
            for sample in np.flatnonzero(step.predictions != direct.argmax(axis=-1)):
                top2 = np.sort(direct[sample])[-2:]
                pytest.fail(
                    f"subnet {k}, batch {batch}, sample {sample}: served class "
                    f"{step.predictions[sample]} but the forward pass predicts "
                    f"{direct[sample].argmax()} (top-2 logit gap {top2[1] - top2[0]:.3g})"
                )
            correct[k] += int((step.predictions == labels).sum())
        total += len(labels)
    assert [count / total for count in correct] == list(reported)


class TestPaperClaims:
    def test_mac_budgets_hold_for_every_subnet(self, trained_smoke_result):
        result, _ = trained_smoke_result
        for fraction, budget in zip(result.mac_fractions, result.config.mac_budgets):
            assert fraction <= budget + 0.02

    def test_largest_subnet_approaches_teacher_accuracy(self, trained_smoke_result):
        result, _ = trained_smoke_result
        # The paper reports the largest subnet within a few points of the
        # original network; at smoke scale we only require the same order.
        assert result.subnet_accuracies[-1] >= result.teacher_accuracy - 0.25

    def test_incremental_accuracy_enhancement(self, trained_smoke_result):
        result, _ = trained_smoke_result
        assert monotonic_violations(result.subnet_accuracies, tolerance=0.05) <= 1
        assert result.subnet_accuracies[-1] >= result.subnet_accuracies[0]

    def test_stepping_reuses_all_previous_macs(self, trained_smoke_result):
        result, test_loader = trained_smoke_result
        network = result.network
        inputs, _ = next(iter(test_loader))
        steps = anytime_schedule(network, inputs)
        # Executing all levels via stepping costs exactly the largest subnet.
        assert sum(s.macs_executed for s in steps) == network.subnet_macs(network.num_subnets - 1)
        # Every stepped result equals the direct forward pass of its level.
        network.eval()
        with no_grad():
            for step in steps:
                direct = network.forward(inputs, subnet=step.subnet).data
                np.testing.assert_allclose(step.logits, direct, atol=1e-8)

    def test_served_accuracy_is_the_reported_accuracy(self, trained_smoke_result):
        """Table I's accuracies are what the compiled plan serves."""
        result, test_loader = trained_smoke_result
        assert_served_accuracy_is_reported(result.network, test_loader, result.subnet_accuracies)

    def test_preliminary_decision_available_at_small_fraction_of_macs(self, trained_smoke_result):
        """The autonomous-driving motivation: subnet 1 yields usable predictions cheaply."""
        result, test_loader = trained_smoke_result
        network = result.network
        inputs, labels = next(iter(test_loader))
        engine = IncrementalInference(network)
        first = engine.run(inputs, subnet=0)
        chance = 1.0 / result.spec.num_classes
        accuracy = float((first.predictions == labels).mean())
        assert first.cumulative_macs < 0.2 * network.subnet_macs(network.num_subnets - 1)
        assert accuracy >= chance - 0.1


class TestAgainstBaselines:
    @pytest.fixture(scope="class")
    def comparison(self):
        train_loader, test_loader, num_classes = prepare_data("cifar10", SMOKE)
        spec = prepare_spec("lenet-3c1l", num_classes, SMOKE)
        config = scaled_config("lenet-3c1l", SMOKE)
        stepping = build_steppingnet(spec, train_loader, test_loader, config)
        any_width = train_any_width(spec, train_loader, test_loader, config, epochs=2)
        slimmable = train_slimmable(spec, train_loader, test_loader, config, epochs=2)
        return stepping, any_width, slimmable, test_loader

    @pytest.mark.parametrize("method", [0, 1], ids=["steppingnet", "any-width"])
    def test_served_accuracy_is_the_reported_accuracy(self, comparison, method):
        result, test_loader = comparison[method], comparison[-1]
        assert_served_accuracy_is_reported(result.network, test_loader, result.subnet_accuracies)

    def test_slimmable_network_cannot_be_served(self, comparison):
        """Slimmable subnets are not incremental: no plan, so no backend."""
        slimmable = comparison[2].network
        with pytest.raises(ConfigError, match="enforce_incremental"):
            SteppingBackend(slimmable)
        with pytest.raises(ConfigError, match="enforce_incremental"):
            IncrementalInference(slimmable)

    def test_all_methods_respect_the_same_budgets(self, comparison):
        stepping, any_width, slimmable, _ = comparison
        budgets = stepping.config.mac_budgets
        for fractions in (stepping.mac_fractions, any_width.mac_fractions, slimmable.mac_fractions):
            for fraction, budget in zip(fractions, budgets):
                assert fraction <= budget + 0.02

    def test_steppingnet_competitive_with_baselines_on_average(self, comparison):
        """Fig. 6's qualitative claim, relaxed to smoke scale: SteppingNet's mean
        accuracy over the subnets is at least as good as the weaker baseline."""
        stepping, any_width, slimmable, _ = comparison
        stepping_mean = np.mean(stepping.subnet_accuracies)
        baseline_min = min(np.mean(any_width.subnet_accuracies), np.mean(slimmable.subnet_accuracies))
        assert stepping_mean >= baseline_min - 0.05

    def test_steppingnet_subnet_structures_are_irregular(self, comparison):
        """SteppingNet's advantage is structural freedom: after construction the
        unit-to-subnet assignment is generally not a width prefix."""
        stepping = comparison[0]
        irregular = False
        for block in stepping.network.parametric_blocks():
            if block.is_output:
                continue
            assignment = block.layer.assignment.unit_subnet
            if np.any(np.diff(assignment) < 0):
                irregular = True
        assert irregular
