"""Tests of the versioned model registry and service hot-swap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.serving import EstimationService, ModelRegistry


@pytest.fixture(scope="module")
def registry_estimators(tiny_database, tiny_samples, tiny_workload):
    """Two differently seeded trained estimators (distinguishable estimates)."""
    base = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, num_samples=50)
    first = MSCNEstimator(tiny_database, base.replace(seed=13), samples=tiny_samples)
    first.fit(tiny_workload)
    second = MSCNEstimator(tiny_database, base.replace(seed=14), samples=tiny_samples)
    second.fit(tiny_workload)
    return first, second


class TestRegistry:
    def test_publish_and_load_roundtrip_identical_estimates(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        first, _ = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:25]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        version = registry.publish("mscn", first)
        assert version == 1
        restored = registry.load("mscn")
        np.testing.assert_allclose(
            restored.estimate_many(queries), first.estimate_many(queries), rtol=1e-6
        )

    def test_publish_assigns_increasing_versions_and_moves_current(
        self, tmp_path, tiny_database, registry_estimators
    ):
        first, second = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        assert registry.publish("mscn", first) == 1
        assert registry.publish("mscn", second) == 2
        assert registry.versions("mscn") == [1, 2]
        assert registry.current_version("mscn") == 2
        assert registry.names() == ["mscn"]

    def test_set_current_rolls_back(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        first, second = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:10]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        registry.publish("mscn", second)
        registry.set_current("mscn", 1)
        assert registry.current_version("mscn") == 1
        np.testing.assert_allclose(
            registry.load("mscn").estimate_many(queries),
            first.estimate_many(queries),
            rtol=1e-6,
        )

    def test_load_specific_version(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        first, second = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:10]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        registry.publish("mscn", second)
        np.testing.assert_allclose(
            registry.load("mscn", version=1).estimate_many(queries),
            first.estimate_many(queries),
            rtol=1e-6,
        )

    def test_unknown_model_and_version_raise(self, tmp_path, tiny_database,
                                             registry_estimators):
        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        with pytest.raises(KeyError):
            registry.current_version("missing")
        with pytest.raises(KeyError):
            registry.load("missing")
        registry.publish("mscn", first)
        with pytest.raises(KeyError):
            registry.load("mscn", version=7)
        with pytest.raises(KeyError):
            registry.set_current("mscn", 7)

    def test_invalid_names_rejected(self, tmp_path, tiny_database):
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        for name in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                registry._check_name(name)


class TestServiceHotSwap:
    def test_swap_serves_new_model_and_clears_cache(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        first, second = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:30]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        registry.publish("mscn", second)
        with EstimationService(registry.load("mscn", version=1)) as service:
            before = service.estimate_many(queries)
            np.testing.assert_allclose(before, first.estimate_many(queries), rtol=1e-6)
            assert len(service.cache) > 0

            service.swap_model(registry.load("mscn"))  # CURRENT is version 2
            assert len(service.cache) == 0  # stale results were invalidated
            after = service.estimate_many(queries)
            np.testing.assert_allclose(after, second.estimate_many(queries), rtol=1e-6)
            assert not np.allclose(before, after)
            assert service.stats().model_swaps == 1

    def test_roundtrip_through_registry_preserves_served_estimates(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        """save -> publish -> hot-swap -> identical estimates end to end."""
        first, _ = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:20]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        with EstimationService(first) as service:
            direct = service.estimate_many(queries)
            service.swap_model(registry.load("mscn"))
            reloaded = service.estimate_many(queries)
        np.testing.assert_allclose(direct, reloaded, rtol=1e-6)


class TestCrashSafety:
    """Checksum manifests, corruption detection, retry, promote/rollback."""

    def test_publish_writes_a_verifiable_manifest(
        self, tmp_path, tiny_database, registry_estimators
    ):
        import json

        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        version = registry.publish("mscn", first)
        manifest_path = tmp_path / "models" / "mscn" / "versions" / "1" / "MANIFEST.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["algorithm"] == "sha256"
        assert "MANIFEST.json" not in manifest["files"]
        assert len(manifest["files"]) >= 2  # weights + metadata at least
        registry.verify("mscn", version)  # pristine snapshot passes

    def test_corrupted_snapshot_raises_typed_error_and_is_not_retried(
        self, tmp_path, tiny_database, registry_estimators
    ):
        from repro.serving import RetryPolicy, SnapshotCorruptionError

        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        weights = next(
            (tmp_path / "models" / "mscn" / "versions" / "1").glob("*.npz")
        )
        data = bytearray(weights.read_bytes())
        data[len(data) // 2] ^= 0xFF
        weights.write_bytes(bytes(data))

        naps: list[float] = []
        retrying = ModelRegistry(tmp_path / "models", tiny_database, sleeper=naps.append)
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            retrying.load("mscn", retry=RetryPolicy(max_attempts=5))
        assert "checksum mismatch" in str(excinfo.value)
        assert naps == []  # corruption is permanent: no backoff, no retries

    def test_missing_snapshot_file_is_detected(
        self, tmp_path, tiny_database, registry_estimators
    ):
        from repro.serving import SnapshotCorruptionError

        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        next((tmp_path / "models" / "mscn" / "versions" / "1").glob("*.npz")).unlink()
        with pytest.raises(SnapshotCorruptionError, match="missing file"):
            registry.load("mscn")

    def test_transient_failures_retry_with_deterministic_backoff(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        from repro.serving import RetryPolicy
        from repro.utils.faults import FaultPlan, FaultSpec

        first, _ = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:10]]
        naps: list[float] = []
        registry = ModelRegistry(tmp_path / "models", tiny_database, sleeper=naps.append)
        registry.publish("mscn", first)
        policy = RetryPolicy(max_attempts=3, seed=5)
        plan = FaultPlan([FaultSpec("registry.load", max_triggers=2)])
        with plan.activate():
            restored = registry.load("mscn", retry=policy)  # 2 failures, then ok
        np.testing.assert_allclose(
            restored.estimate_many(queries), first.estimate_many(queries), rtol=1e-6
        )
        assert naps == policy.delays()  # the full deterministic schedule

    def test_exhausted_retries_raise_model_load_error_with_cause(
        self, tmp_path, tiny_database, registry_estimators
    ):
        from repro.serving import ModelLoadError
        from repro.utils.faults import FaultPlan, FaultSpec, InjectedFault

        first, _ = registry_estimators
        registry = ModelRegistry(
            tmp_path / "models", tiny_database, sleeper=lambda _: None
        )
        registry.publish("mscn", first)
        plan = FaultPlan([FaultSpec("registry.load")])  # always failing
        from repro.serving import RetryPolicy

        with plan.activate():
            with pytest.raises(ModelLoadError) as excinfo:
                registry.load("mscn", retry=RetryPolicy(max_attempts=3))
        assert "3 attempt(s)" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_retry_policy_schedule_is_deterministic_and_capped(self):
        from repro.serving import RetryPolicy

        policy = RetryPolicy(
            max_attempts=6,
            base_delay_seconds=0.5,
            multiplier=3.0,
            max_delay_seconds=2.0,
            jitter=0.5,
            seed=11,
        )
        assert policy.delays() == policy.delays()
        assert len(policy.delays()) == 5
        for delay, base in zip(policy.delays(), [0.5, 1.5, 2.0, 2.0, 2.0]):
            assert base <= delay <= base * 1.5
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_promote_keeps_a_validated_version(
        self, tmp_path, tiny_database, registry_estimators
    ):
        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        seen = []
        version = registry.promote("mscn", first, validator=lambda m: seen.append(m) or True)
        assert version == 1
        assert registry.current_version("mscn") == 1
        assert len(seen) == 1  # validator saw the re-loaded estimator

    def test_failed_promotion_rolls_back_to_previous_version(
        self, tmp_path, tiny_database, registry_estimators, tiny_workload
    ):
        from repro.serving import ModelPromotionError

        first, second = registry_estimators
        queries = [labelled.query for labelled in tiny_workload[:10]]
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        with pytest.raises(ModelPromotionError):
            registry.promote("mscn", second, validator=lambda m: False)
        assert registry.current_version("mscn") == 1  # rolled back
        assert registry.versions("mscn") == [1, 2]  # bad version kept for forensics
        np.testing.assert_allclose(
            registry.load("mscn").estimate_many(queries),
            first.estimate_many(queries),
            rtol=1e-6,
        )

    def test_failed_first_promotion_leaves_no_current(
        self, tmp_path, tiny_database, registry_estimators
    ):
        from repro.serving import ModelPromotionError

        first, _ = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        with pytest.raises(ModelPromotionError):
            registry.promote("mscn", first, validator=lambda m: False)
        assert registry.names() == []
        with pytest.raises(KeyError):
            registry.current_version("mscn")

    def test_promotion_rolls_back_when_validator_raises(
        self, tmp_path, tiny_database, registry_estimators
    ):
        from repro.serving import ModelPromotionError

        first, second = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)

        def exploding_validator(model):
            raise ValueError("q-error regression")

        with pytest.raises(ModelPromotionError) as excinfo:
            registry.promote("mscn", second, validator=exploding_validator)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert registry.current_version("mscn") == 1

    def test_previous_version_tracks_the_rollback_target(
        self, tmp_path, tiny_database, registry_estimators
    ):
        first, second = registry_estimators
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", first)
        assert registry.previous_version("mscn") is None
        registry.publish("mscn", second)
        assert registry.previous_version("mscn") == 1
