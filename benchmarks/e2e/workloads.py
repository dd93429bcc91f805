"""The five workloads of the end-to-end benchmark.

Each workload is what a user of the repository runs to regenerate part of
Savari's results, and each stresses a different layer (see README.md for
the layer -> metric -> workload map):

* ``paper-full``     Theorem 2 at full scale: sides 8-32, batches of 256.
                     Completion checks and kernels share the time.
* ``paper-quick``    six experiments at quick scale; small sides and
                     batches make it dispatch-bound.
* ``moments``        fixed-step 0-1 moment estimates (Lemmas 4/9/11 and
                     the variances); completion never runs, input drawing
                     dominates.
* ``campaign-store`` sharded, checkpointed campaigns into a fresh result
                     store, then repeated requests served from it.
* ``certify``        0-1-principle certificates; no executor runs.

A workload exposes ``setup(seed, workdir)`` (imports, schedule builds,
``compiled_schedule`` warm-up, temp dirs) and ``run_pass()``, which
returns one :class:`Op` per public call.  Only public, non-deprecated APIs
are called, through their module attribute, so the tracer's rebinding
sees them.  No backend is named: the schedule registry picks it.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.analysis.semantics as semantics
import repro.backends as backends
import repro.experiments as experiments
import repro.schedules as schedules
from repro.store import LocalResultStore

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Op:
    """One public call of a pass.

    ``key`` names the pinned output the call must reproduce (several calls
    may share one, e.g. a cold campaign and the hits that repeat it);
    ``error`` is non-empty when the call's own cross-check failed;
    ``hit`` marks a request served from the result store.
    """

    key: str
    digest: str
    seconds: float
    error: str = ""
    hit: bool = False


def text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def warm_compile(pairs: list[tuple[str, int]]) -> None:
    """Build each ``(algorithm, side)`` schedule and compile it for its mesh."""
    for name, side in pairs:
        schedule = schedules.resolve(name, side)
        rows, cols = schedules.mesh_shape(schedule, side)
        backends.compiled_schedule(schedule, rows, cols)


class ExperimentsWorkload:
    """A fixed list of registry experiments regenerated at one scale."""

    #: Tracer counter that counts this workload's trials (inputs drawn).
    trials_counter = "randomness.grids"
    #: Columns holding a paper claim that must hold for every seed.
    claim_columns = ("bound holds", "consistent")

    def __init__(self, scale: str, exp_ids: tuple[str, ...], families: tuple[str, ...]):
        self.scale = scale
        self.exp_ids = exp_ids
        self.families = families

    def setup(self, seed: int, workdir: Path) -> None:
        self.cfg = experiments.ExperimentConfig(scale=self.scale, seed=seed)
        pairs = []
        for name in self.families:
            family = schedules.get_family(name)
            if family.topology == "linear":
                sides = self.cfg.linear_sizes
            elif family.requires_even_side:
                sides = self.cfg.even_sides
            else:
                sides = self.cfg.even_sides + self.cfg.odd_sides
            pairs.extend((name, side) for side in sides)
        warm_compile(pairs)

    def run_pass(self) -> list[Op]:
        ops = []
        for exp_id in self.exp_ids:
            start = perf_counter()
            table = experiments.run_experiment(exp_id, self.cfg)
            seconds = perf_counter() - start
            ops.append(Op(exp_id, text_digest(table.to_text()), seconds, self._claims(table)))
        return ops

    def _claims(self, table) -> str:
        for column in self.claim_columns:
            if column in table.headers:
                index = table.headers.index(column)
                failed = sum(not row[index] for row in table.rows)
                if failed:
                    return f"{failed} row(s) of {column!r} do not hold"
        return ""


class CampaignStoreWorkload:
    """Cold sharded campaigns into a fresh store, then repeated requests."""

    trials_counter = "campaign.trials"
    specs = (
        ("snake_1", 24),
        ("row_major_col_first", 24),
        ("odd_even", 256),
        ("random_network[seed=3]", 32),
    )
    trials = 128
    shard_size = 32
    # In-process shards: a pool would run more processes than a 2-core
    # host has cores, and the pass would time the scheduler.
    workers = 1
    repeats = 25

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        warm_compile(list(self.specs))

    def run_pass(self) -> list[Op]:
        root = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.workdir))
        try:
            store = LocalResultStore(root / "store")
            ops = [self._request(spec, side, root, store, cold=True)
                   for spec, side in self.specs]
            for _ in range(self.repeats):
                ops.extend(self._request(spec, side, root, store, cold=False)
                           for spec, side in self.specs)
            return ops
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _request(self, spec: str, side: int, root: Path, store, *, cold: bool) -> Op:
        start = perf_counter()
        result = experiments.sample(
            spec, side=side, trials=self.trials, seed=self.seed,
            workers=self.workers, shard_size=self.shard_size,
            checkpoint_dir=root / "checkpoints", store=store,
        )
        seconds = perf_counter() - start
        hit = bool(result.meta.get("store", {}).get("hit"))
        error = ""
        if hit == cold:
            error = "cold request served from a fresh store" if cold else "repeat request missed"
        return Op(f"{spec}@{side}", result.values_digest, seconds, error, hit)


class CertifyWorkload:
    """Certificates for every family at its declared sides, plus random
    networks; the certificate cache is cleared before each pass."""

    trials_counter = "certify.inputs"

    def setup(self, seed: int, workdir: Path) -> None:
        entries = []
        for name in schedules.available_families():
            for side in schedules.get_family(name).certified_sides:
                entries.append((name, side))
        entries += [("random_network[seed=3]", 12), ("random_network[seed=3]", 16)]
        # Seed-drawn networks stay at 1x12: their cost hardly varies with
        # the draw, while a 1x16 certificate's cost varies by half.
        for drawn in np.random.SeedSequence(seed).generate_state(4):
            entries.append((f"random_network[seed={int(drawn)}]", 12))
        self.entries = []
        for name, side in entries:
            schedule = schedules.resolve(name, side)
            rows, cols = schedules.mesh_shape(schedule, side)
            self.entries.append((schedule, rows, cols))

    def run_pass(self) -> list[Op]:
        semantics.semantics_cache_clear()
        ops = []
        for schedule, rows, cols in self.entries:
            start = perf_counter()
            cert = semantics.certify_sortedness(schedule, rows, cols)
            seconds = perf_counter() - start
            ops.append(Op(
                f"{schedule.name}@{rows}x{cols}",
                f"{cert.verdict}:{cert.step_bound}",
                seconds,
                "" if cert.certified else f"verdict {cert.verdict}: {cert.reason}",
            ))
        return ops


WORKLOADS = {
    "paper-full": lambda: ExperimentsWorkload(
        "full", ("E-T2",), ("row_major_row_first",)),
    "paper-quick": lambda: ExperimentsWorkload(
        "quick", ("E-T2", "E-SCALE", "E-TAILS", "E-T12", "E-1D", "E-RECT"),
        ("row_major_row_first", "row_major_col_first", "snake_1", "snake_2", "snake_3",
         "shearsort", "odd_even")),
    "moments": lambda: ExperimentsWorkload(
        "quick", ("E-L4", "E-L9", "E-VAR"),
        ("row_major_row_first", "row_major_col_first", "snake_1", "snake_2")),
    "campaign-store": CampaignStoreWorkload,
    "certify": CertifyWorkload,
}


class Checker:
    """Checks every op of a run against its pin, or, for an unpinned seed,
    against the first output seen under the same key in this run."""

    def __init__(self, pins: dict[str, str] | None):
        self.pinned = pins is not None
        self.reference: dict[str, str] = dict(pins or {})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            self.attempted += 1
            if self.pinned:
                expected = self.reference.get(op.key)
            else:
                expected = self.reference.setdefault(op.key, op.digest)
            problem = op.error
            if not problem and op.digest != expected:
                problem = f"digest {op.digest} != expected {expected}"
            if problem:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.key}: {problem}")
