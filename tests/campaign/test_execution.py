"""ExecutionOptions: validation, facade equivalence, checkpoint errors."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.backends import get_backend
from repro.campaign import (
    CampaignSpec,
    CheckpointStore,
    ExecutionOptions,
    checkpoint_path,
    run_campaign,
)
from repro.errors import CheckpointError, DimensionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sampling import sample

SPEC = CampaignSpec("snake_1", side=6, trials=40, seed=99, shard_size=8)


class TestValidation:
    def test_defaults_are_not_campaign_mode(self):
        options = ExecutionOptions()
        assert not options.campaign_mode

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 2},
            {"shard_size": 8},
            {"checkpoint_dir": "/tmp/ck"},
            {"store": "/tmp/store"},
            {"max_shards": 2, "checkpoint_dir": "/tmp/ck"},
        ],
    )
    def test_campaign_granularity_options_force_campaign_mode(self, kwargs):
        assert ExecutionOptions(**kwargs).campaign_mode

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"workers": 0}, "workers"),
            ({"retries": -1}, "retries"),
            ({"shard_size": 0}, "shard_size"),
            ({"max_shards": 0}, "max_shards"),
            ({"resume": True}, "requires checkpoint_dir"),
            ({"max_shards": 3}, "requires checkpoint_dir"),
        ],
    )
    def test_invalid_options_rejected_at_construction(self, kwargs, match):
        with pytest.raises(DimensionError, match=match):
            ExecutionOptions(**kwargs)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ExecutionOptions().workers = 2  # type: ignore[misc]

class TestFacadeEquivalence:
    def test_execution_matches_loose_kwargs(self):
        loose = sample("snake_1", side=6, trials=40, seed=99, workers=2)
        packed = sample(
            "snake_1", side=6, trials=40, seed=99,
            execution=ExecutionOptions(workers=2),
        )
        np.testing.assert_array_equal(packed.values, loose.values)
        assert packed.values_digest == loose.values_digest

    def test_loose_and_execution_conflict_raises(self):
        with pytest.raises(DimensionError, match="not both"):
            sample(
                "snake_1", side=6, trials=40, seed=99,
                workers=2, execution=ExecutionOptions(workers=2),
            )

    def test_sample_adopts_execution(self, tmp_path):
        options = ExecutionOptions(
            workers=2, shard_size=8, checkpoint_dir=tmp_path, max_shards=2
        )
        partial = sample(
            "snake_1", side=6, trials=40, seed=99, execution=options
        )
        assert partial.complete is False
        assert partial.meta["workers"] == 2

    def test_execution_store_threads_through_facade(self, tmp_path):
        cold = sample(
            "snake_1", side=6, trials=40, seed=99,
            execution=ExecutionOptions(store=tmp_path),
        )
        assert cold.meta["store"]["hit"] is False
        warm = sample("snake_1", side=6, trials=40, seed=99, store=tmp_path)
        assert warm.meta["store"]["hit"] is True
        assert warm.values_digest == cold.values_digest


class TestExperimentConfig:
    def test_execution_defaults_to_in_process(self):
        cfg = ExperimentConfig(scale="quick")
        assert cfg.execution == ExecutionOptions()
        # Unset: the samplers resolve the registry default when they run.
        assert cfg.execution.backend is None
        assert not cfg.execution.campaign_mode

    def test_execution_is_the_only_home_of_execution_knobs(self, tmp_path):
        for knob in ("backend", "workers", "checkpoint_dir", "resume"):
            with pytest.raises(TypeError):
                ExperimentConfig(**{knob: None})
        options = ExecutionOptions(workers=2, checkpoint_dir=tmp_path)
        assert ExperimentConfig(execution=options).execution is options

    def test_retired_rect_backend_is_unknown(self):
        for name in ("rect", "native"):
            for build, kwargs in (
                (ExecutionOptions, {}),
                (CampaignSpec, {"algorithm": "snake_1", "side": 6, "trials": 8}),
            ):
                with pytest.raises(DimensionError, match=f"unknown backend '{name}'") as excinfo:
                    build(backend=name, **kwargs)
                assert "available: vectorized, reference, mesh" in str(excinfo.value)


    def test_backend_instance_is_refused(self, tmp_path):
        """A backend is named, not passed: an instance would land in the
        sample's metadata and break its JSON records."""
        backend = get_backend("vectorized")
        for build in (
            lambda: ExecutionOptions(backend=backend),
            lambda: CampaignSpec("snake_1", side=6, trials=8, backend=backend),
            lambda: sample("snake_1", side=4, trials=8, seed=1, backend=backend),
            lambda: sample("snake_1", side=4, trials=8, seed=1, backend=backend,
                           store=tmp_path / "store"),
        ):
            with pytest.raises(DimensionError, match="registry name or None"):
                build()

    def test_in_process_meta_names_the_backend(self):
        for backend in (None, "vectorized", "reference"):
            result = sample("snake_1", side=4, trials=8, seed=1, backend=backend)
            assert result.meta["backend"] == (backend or "vectorized")


class TestCheckpointErrorFields:
    def test_fingerprint_mismatch_is_structured(self, tmp_path):
        """The mismatch error names the offending file and both spec
        identities as attributes, not just prose."""
        run_campaign(SPEC, workers=1, checkpoint_dir=tmp_path, max_shards=2)
        other = replace(SPEC, algorithm="snake_2")
        path = checkpoint_path(tmp_path, SPEC)
        with pytest.raises(CheckpointError) as excinfo:
            CheckpointStore(path, other).load()
        err = excinfo.value
        assert err.path == path
        assert err.spec_fingerprint == other.fingerprint
        assert err.checkpoint_fingerprint == SPEC.fingerprint
        assert err.spec_identity["algorithm"] == "snake_2"
        assert err.checkpoint_identity["algorithm"] == "snake_1"
        assert "differing identity field(s): algorithm" in str(err)

    def test_non_mismatch_errors_leave_fields_none(self, tmp_path):
        run_campaign(SPEC, workers=1, checkpoint_dir=tmp_path, max_shards=2)
        path = checkpoint_path(tmp_path, SPEC)
        lines = path.read_text().splitlines()
        lines.insert(1, "{torn but not the tail}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt") as excinfo:
            CheckpointStore(path, SPEC).load()
        assert excinfo.value.spec_fingerprint is None
        assert excinfo.value.checkpoint_fingerprint is None
