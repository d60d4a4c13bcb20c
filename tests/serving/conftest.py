"""Serving-test fixtures.

Like the runtime tests, the serving tests need genuinely distinct subnet
sizes (the engine schedules and charges per-level deltas), so the
freshly initialised network is given calibrated nested prefix
assignments without running the slow construction flow.
"""

import numpy as np
import pytest

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.core.incremental import IncrementalInference


@pytest.fixture
def stepping_network(tiny_spec, rng):
    network = SteppingNetwork(tiny_spec.expand(1.5), num_subnets=4, rng=rng)
    set_prefix_assignments(network, [0.25, 0.5, 0.75, 1.0])
    network.assignment.validate()
    return network


@pytest.fixture
def sample_pool(image_dataset):
    images = np.stack([image_dataset[i][0] for i in range(16)])
    labels = np.array([image_dataset[i][1] for i in range(16)])
    return images, labels


@pytest.fixture
def solo_logits():
    """Per-level logits of solo ``IncrementalInference`` steps: the serving reference.

    ``solo_logits(network, inputs, levels)`` runs ``levels[0]`` then
    ``step_to`` each later level on a fresh engine of its own, so no
    serving path is its own reference.
    """

    def run(network, inputs, levels, dtype=np.float32):
        engine = IncrementalInference(network, dtype=dtype)
        logits = [engine.run(inputs, subnet=levels[0]).logits]
        logits.extend(engine.step_to(level).logits for level in levels[1:])
        return logits

    return run
