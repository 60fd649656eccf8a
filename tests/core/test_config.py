"""Tests of the MSCN configuration object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden_units", 0),
            ("epochs", 0),
            ("batch_size", 0),
            ("learning_rate", 0.0),
            ("validation_fraction", 1.0),
            ("num_samples", 0),
        ],
    )
    def test_rejects_invalid_values(self, field, value):
        with pytest.raises(ValueError):
            MSCNConfig(**{field: value})

    def test_defaults_match_paper_best_configuration(self):
        config = MSCNConfig()
        assert config.hidden_units == 256
        assert config.epochs == 100
        assert config.batch_size == 1024
        assert config.learning_rate == pytest.approx(1e-3)
        assert config.num_samples == 1000
        assert config.loss is LossKind.Q_ERROR
        assert config.variant is FeaturizationVariant.BITMAPS

    def test_accepts_string_enums(self):
        config = MSCNConfig(loss="mse", variant="no_samples")
        assert config.loss is LossKind.MSE
        assert config.variant is FeaturizationVariant.NO_SAMPLES

    def test_replace_returns_modified_copy(self):
        base = MSCNConfig()
        changed = base.replace(hidden_units=64)
        assert changed.hidden_units == 64
        assert base.hidden_units == 256
        assert changed.epochs == base.epochs


class TestDtype:
    """``dtype`` is the one precision setting: it accepts numpy's aliases of
    float32 and float64, stores the canonical name, and rejects the rest."""

    def test_default_is_float32(self):
        config = MSCNConfig()
        assert config.dtype == "float32"
        assert config.np_dtype == np.dtype(np.float32)

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("float32", "float32"),
            ("f4", "float32"),
            ("single", "float32"),
            (np.float32, "float32"),
            (np.dtype(np.float32), "float32"),
            ("float64", "float64"),
            ("f8", "float64"),
            ("double", "float64"),
            ("float", "float64"),
            (np.float64, "float64"),
            (np.dtype(np.float64), "float64"),
            ("f", "float32"),
            ("d", "float64"),
            ("<f8", "float64"),
        ],
    )
    def test_aliases_map_to_the_canonical_name(self, alias, canonical):
        config = MSCNConfig(dtype=alias)
        assert config.dtype == canonical
        assert config.np_dtype == np.dtype(canonical)

    @pytest.mark.parametrize(
        "value",
        [
            "float16",
            "half",
            "int8",
            "bool",
            "nope",
            None,
            "bfloat16",
            "complex64",
            "fast",
            "float128",
            "int16",
            "uint8",
            np.float16,
            3,
            "",
        ],
    )
    def test_rejects_other_dtypes_with_value_error(self, value):
        with pytest.raises(ValueError, match="dtype must be one of"):
            MSCNConfig(dtype=value)
