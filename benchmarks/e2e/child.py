"""Run one benchmark workload in a fresh interpreter.

``run.py`` starts this script once per set-up probe (``--setup-only``) and
once per measured run, so no cache leaks from one workload, or one run,
into the next.  The script prints nothing; it writes its findings as JSON
to ``--result``.

A measured run checks one warm-up pass, then repeats passes until
``--seconds`` have gone by, timing the reference computation
(``reference.py``) before the first pass and after each one.  With
``--trace 1`` every untraced pass is followed by a traced one, which
gives the per-layer numbers and, against the untraced passes, the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
perf_counter = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(workload, args: argparse.Namespace, pins: dict) -> dict:
    import workloads

    digests = pins.get("digests", {}).get(str(args.seed))
    checker = workloads.Checker(digests)
    errors: list[str] = []
    trials = pins.get("trials_per_pass")
    if trials is None:
        errors.append(f"no pinned trial count for {args.workload}")

    checker.check(workload.run_pass())  # warm-up: lazy caches fill, outputs checked
    # The workload's own footprint, before the reference adds its arrays.
    peak_rss_mb = _peak_rss_mb()
    from reference import reference_pass

    reference_pass()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    walls: list[float] = []
    references = [reference_pass()]  # one before every pass, one after the last
    traced_walls: list[float] = []
    hit_seconds: list[float] = []
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        start = perf_counter()
        ops = workload.run_pass()
        walls.append(perf_counter() - start)
        references.append(reference_pass())
        checker.check(ops)
        hit_seconds.extend(op.seconds for op in ops if op.hit)
        if tracer is not None:
            ops, wall = tracer.traced_pass(workload.run_pass)
            traced_walls.append(wall)
            checker.check(ops)

    record: dict = {
        "passes": walls,
        "references": references,
        "trials_per_pass": trials,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "digest_check": "pinned" if checker.pinned else "unpinned",
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        counted = tracer.per_pass_count(workload.trials_counter)
        if trials is not None and counted != trials:
            errors.append(
                f"traced pass counted {counted} trials ({workload.trials_counter}), "
                f"pinned {trials}"
            )
        layer = tracer.metrics()
        wall = statistics.median(walls)
        layer["wall_s"] = wall
        layer["trials_per_s"] = None if trials is None else trials / wall
        layer["reference_s"] = statistics.median(references)
        layer["trace.overhead_ratio"] = statistics.median(traced_walls) / wall
        # Request latency is read from the untraced passes.
        layer["store.hit_p50_ms"] = (
            statistics.median(hit_seconds) * 1e3 if hit_seconds else None
        )
        record["traced_passes"] = traced_walls
        record["layers"] = layer
        record["trace"] = tracer.record()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    import workloads  # the first import of numpy and repro in this process

    import_s = perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]()
    start = perf_counter()
    workload.setup(args.seed, Path(args.workdir))
    record: dict = {"import_s": import_s, "setup_s": perf_counter() - start}
    if not args.setup_only:
        pins = json.loads((HERE / "expected.json").read_text())
        record.update(_measure(workload, args, pins["workloads"].get(args.workload, {})))
        if args.trace:
            record["layers"]["setup.import_s"] = import_s
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
