"""Tests for RNG management, checkpoints and logging utilities."""

import numpy as np
import pytest

from repro import nn
from repro.utils import (
    MetricHistory,
    derive_generator,
    get_logger,
    get_seed,
    load_checkpoint,
    load_json,
    new_generator,
    save_checkpoint,
    save_json,
    set_seed,
)


class TestRng:
    def test_set_get_seed(self):
        set_seed(123)
        assert get_seed() == 123

    def test_new_generator_uses_global_seed(self):
        set_seed(7)
        a = new_generator().standard_normal(4)
        b = new_generator().standard_normal(4)
        np.testing.assert_allclose(a, b)

    def test_explicit_seed_overrides_global(self):
        set_seed(7)
        a = new_generator(1).standard_normal(3)
        b = new_generator(2).standard_normal(3)
        assert not np.allclose(a, b)

    def test_derive_generator_streams_differ(self):
        base = new_generator(0)
        g1 = derive_generator(base, 1)
        base2 = new_generator(0)
        g2 = derive_generator(base2, 2)
        assert not np.allclose(g1.standard_normal(4), g2.standard_normal(4))


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(0)), nn.BatchNorm1d(3))
        path = save_checkpoint(model, tmp_path / "ckpt.npz")
        clone = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(9)), nn.BatchNorm1d(3))
        load_checkpoint(clone, path)
        np.testing.assert_allclose(model[0].weight.data, clone[0].weight.data)

    def test_missing_file(self, tmp_path):
        model = nn.Linear(2, 2)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(model, tmp_path / "missing.npz")

    def test_creates_parent_dirs(self, tmp_path):
        model = nn.Linear(2, 2)
        path = save_checkpoint(model, tmp_path / "deep" / "nested" / "ckpt.npz")
        assert path.exists()


class TestJson:
    def test_roundtrip_with_numpy_types(self, tmp_path):
        data = {"accuracy": np.float64(0.5), "counts": np.array([1, 2, 3]), "nested": {"x": np.int64(3)}}
        path = save_json(data, tmp_path / "result.json")
        loaded = load_json(path)
        assert loaded["accuracy"] == pytest.approx(0.5)
        assert loaded["counts"] == [1, 2, 3]
        assert loaded["nested"]["x"] == 3


class TestLogging:
    def test_logger_is_singleton_per_name(self):
        assert get_logger("repro.test") is get_logger("repro.test")

    def test_metric_history_series_and_latest(self):
        history = MetricHistory()
        history.log(loss=1.0, accuracy=0.2)
        history.log(loss=0.5)
        assert history.series("loss") == [1.0, 0.5]
        assert history.latest("accuracy") == 0.2
        assert history.latest("missing") is None
        assert len(history) == 2

    def test_metric_history_to_dicts_copy(self):
        history = MetricHistory()
        history.log(loss=1.0)
        records = history.to_dicts()
        records[0]["loss"] = 99.0
        assert history.latest("loss") == 1.0

