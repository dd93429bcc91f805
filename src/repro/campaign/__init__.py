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

from repro.campaign.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    ShardRecord,
    checkpoint_path,
)
from repro.campaign.execution import ExecutionOptions
from repro.campaign.result import SampleResult
from repro.campaign.runner import run_campaign
from repro.campaign.spec import KINDS, CampaignSpec, Shard

__all__ = [
    "KINDS",
    "CampaignSpec",
    "ExecutionOptions",
    "Shard",
    "ShardRecord",
    "SampleResult",
    "run_campaign",
    "CheckpointStore",
    "checkpoint_path",
    "CHECKPOINT_SCHEMA_VERSION",
]
