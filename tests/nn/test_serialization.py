"""Tests of model parameter (de)serialization."""

from __future__ import annotations

import numpy as np
from reference_featurization import stack_sets

from repro.core.model import MSCN, forward
from repro.nn.serialization import load_state_dict, save_state_dict, state_dict_num_bytes


def make_model(hidden: int = 8, seed: int = 1) -> MSCN:
    return MSCN(4, 3, 5, hidden_units=hidden, rng=np.random.default_rng(seed))


def test_save_and_load_roundtrip(tmp_path):
    model = make_model()
    path = tmp_path / "weights.npz"
    save_state_dict(model.state_dict(), path)
    loaded = load_state_dict(path)
    assert set(loaded) == set(model.state_dict())
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(loaded[name], value)


def test_loaded_state_restores_model_output(tmp_path):
    source = make_model(seed=2)
    target = make_model(seed=77)
    path = tmp_path / "weights.npz"
    save_state_dict(source.state_dict(), path)
    target.load_state_dict(load_state_dict(path))
    rng = np.random.default_rng(3)
    batch = stack_sets(
        [
            (rng.normal(size=(2, 4)), rng.normal(size=(1, 3)), rng.normal(size=(3, 5)))
            for _ in range(5)
        ]
    )
    np.testing.assert_array_equal(
        forward(batch, source.layers), forward(batch, target.layers)
    )


def test_state_dict_num_bytes_tracks_model_size():
    small = make_model(hidden=8)
    large = make_model(hidden=64)
    small_bytes = state_dict_num_bytes(small.state_dict())
    large_bytes = state_dict_num_bytes(large.state_dict())
    assert large_bytes > small_bytes
    # At least the raw float64 payload must be accounted for.
    assert small_bytes >= small.num_parameters() * 8
