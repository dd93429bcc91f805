"""Lightweight progress reporting for long CLI runs.

:class:`ProgressPrinter` is an observer that prints one line when a run
starts and one when it ends (with step count and wall time), throttled so
batched Monte-Carlo sweeps — hundreds of runs per experiment — do not flood
the terminal: after the first ``verbose_runs`` runs it only reports every
``every``-th run plus a final tally via :meth:`summary`.

Campaign shard lines additionally carry a rolling completion rate and an
ETA (computed from shards actually executed this session — restored
checkpoint shards are excluded, they replay instantly).
"""

from __future__ import annotations

import sys
from typing import TextIO

import numpy as np

from repro.obs.events import (
    CampaignEnd,
    CampaignStart,
    Observer,
    RunEnd,
    RunStart,
    ShardEnd,
)
from repro.obs.timing import StopWatch, format_seconds

__all__ = ["ProgressPrinter"]


class ProgressPrinter(Observer):
    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        every: int = 25,
        verbose_runs: int = 3,
        prefix: str = "  ",
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.every = max(1, every)
        self.verbose_runs = verbose_runs
        self.prefix = prefix
        self.runs_started = 0
        self.runs_finished = 0
        self.steps_total = 0
        self.shards_finished = 0
        self._current: RunStart | None = None
        self._campaign_shards = 0
        self._fresh_shards = 0
        self._campaign_watch: StopWatch | None = None

    def _say(self, message: str) -> None:
        print(f"{self.prefix}{message}", file=self.stream, flush=True)

    def on_run_start(self, event: RunStart) -> None:
        self.runs_started += 1
        self._current = event
        if self.runs_started <= self.verbose_runs:
            batch = (
                f" x{int(np.prod(event.batch_shape))}" if event.batch_shape else ""
            )
            self._say(
                f"run {self.runs_started}: {event.executor} {event.algorithm} "
                f"{event.rows}x{event.cols}{batch}"
            )

    def on_run_end(self, event: RunEnd) -> None:
        self.runs_finished += 1
        if event.steps is not None:
            arr = np.asarray(event.steps).reshape(-1)
            self.steps_total += int(arr[arr >= 0].sum())
        if (
            self.runs_finished <= self.verbose_runs
            or self.runs_finished % self.every == 0
        ):
            self._say(
                f"run {self.runs_finished} done in {format_seconds(event.wall_time)} "
                f"({self.steps_total} steps observed so far)"
            )

    def on_campaign_start(self, event: CampaignStart) -> None:
        self.shards_finished = 0
        self._fresh_shards = 0
        self._campaign_shards = event.num_shards
        self._campaign_watch = StopWatch().start()
        resumed = (
            f", {event.resumed_shards} from checkpoint"
            if event.resumed_shards
            else ""
        )
        self._say(
            f"campaign {event.campaign[:12]}: {event.algorithm} "
            f"side={event.side} trials={event.trials} "
            f"({event.num_shards} shards x{event.workers} workers{resumed})"
        )

    def _shard_pace(self) -> str:
        """Rolling rate + ETA over the *fresh* shards of this campaign.

        Checkpoint-restored shards replay instantly and would inflate the
        rate (and collapse the ETA) if counted, so only shards actually
        computed this session feed the estimate.
        """
        if self._campaign_watch is None or self._fresh_shards == 0:
            return ""
        elapsed = self._campaign_watch.elapsed
        if elapsed <= 0:
            return ""
        rate = self._fresh_shards / elapsed
        remaining = self._campaign_shards - self.shards_finished
        if remaining <= 0:
            return f", {rate:.1f} shards/s"
        return f", {rate:.1f} shards/s, eta {format_seconds(remaining / rate)}"

    def on_shard_end(self, event: ShardEnd) -> None:
        self.shards_finished += 1
        if not event.from_checkpoint:
            self._fresh_shards += 1
        # Shards are coarse (seconds each), so throttle far less than runs.
        if (
            event.from_checkpoint
            or self.shards_finished % max(1, self.every // 5) == 0
            or self.shards_finished == self._campaign_shards
        ):
            source = "checkpoint" if event.from_checkpoint else (
                format_seconds(event.elapsed)
                + (f", attempt {event.attempts}" if event.attempts > 1 else "")
            )
            self._say(
                f"shard {event.index} done ({event.trials} trials, {source}) "
                f"[{self.shards_finished}/{self._campaign_shards}"
                f"{self._shard_pace()}]"
            )

    def on_campaign_end(self, event: CampaignEnd) -> None:
        state = "complete" if event.complete else (
            f"partial: {event.completed_shards}/{event.num_shards} shards"
        )
        self._say(
            f"campaign {event.campaign[:12]} {state}: {event.trials} trials "
            f"in {format_seconds(event.elapsed)}"
        )

    def summary(self) -> str:
        return (
            f"{self.runs_finished} runs, {self.steps_total} steps observed"
        )
