"""Regenerate ``expected.json``: the outputs every pinned seed must
reproduce, and each workload's per-pass trial count.

    PYTHONPATH=src python3 benchmarks/e2e/pin.py

Each workload runs one traced pass per pinned seed, in this process.  The
trial count comes from the tracer's work counters and must not depend on
the seed.  Re-pin only with a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEEDS = (20260706, 7, 1993)  # the default seed, then two holdouts


def pin_workload(name: str, workdir: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    entry: dict = {"digests": {}}
    for seed in SEEDS:
        workload = WORKLOADS[name]()
        workload.setup(seed, workdir)
        tracer = Tracer()
        ops, _ = tracer.traced_pass(workload.run_pass)
        digests: dict[str, str] = {}
        for op in ops:
            if op.error:
                raise SystemExit(f"{name} seed {seed}: {op.key}: {op.error}")
            if digests.setdefault(op.key, op.digest) != op.digest:
                raise SystemExit(f"{name} seed {seed}: {op.key} is not deterministic")
        entry["digests"][str(seed)] = digests
        trials = tracer.per_pass_count(workload.trials_counter)
        if entry.setdefault("trials_per_pass", trials) != trials:
            raise SystemExit(f"{name}: the trial count depends on the seed")
    trials = entry["trials_per_pass"]
    if float(trials).is_integer():
        entry["trials_per_pass"] = int(trials)
    return entry


def main() -> int:
    from workloads import WORKLOADS

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=ROOT / ".bench_work"))
    try:
        pins = {name: pin_workload(name, workdir) for name in WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(
        json.dumps({"seeds": list(SEEDS), "workloads": pins}, indent=1, sort_keys=True)
        + "\n"
    )
    for name, entry in pins.items():
        print(f"{name}: {entry['trials_per_pass']} trials per pass", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
