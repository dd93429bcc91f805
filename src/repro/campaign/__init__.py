"""repro.campaign — sharded, resumable, parallel Monte-Carlo campaigns.

A *campaign* is a declared Monte-Carlo estimation job — ``(algorithm,
side, input_kind, trials, kind, root seed)`` — split into deterministic
shards (``SeedSequence.spawn`` children), executed by one round-based
loop (in-process, or across a worker-process pool) with per-shard retry,
checkpointed to a JSONL store so interrupted runs resume, and merged into
one :class:`~repro.campaign.result.SampleResult`.

The determinism contract: for a fixed :class:`CampaignSpec`, the merged
sample is **bit-identical** regardless of worker count, shard completion
order, backend, or how many interrupt/resume cycles the campaign went
through.  See docs/PERFORMANCE.md ("Parallel campaigns").

Most callers want the :func:`repro.experiments.sample` facade instead of
building specs by hand; this package is the engine underneath it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "KINDS": "repro.campaign.spec",
    "CampaignSpec": "repro.campaign.spec",
    "ExecutionOptions": "repro.campaign.execution",
    "Shard": "repro.campaign.spec",
    "ShardRecord": "repro.campaign.checkpoint",
    "SampleResult": "repro.campaign.result",
    "run_campaign": "repro.campaign.runner",
    "CheckpointStore": "repro.campaign.checkpoint",
    "checkpoint_path": "repro.campaign.checkpoint",
    "CHECKPOINT_SCHEMA_VERSION": "repro.campaign.checkpoint",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
