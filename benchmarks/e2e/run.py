"""The repository benchmark: regenerate Savari's results end to end.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out RESULT.json]

Prints ``workload metric value unit`` for every metric, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` (the default) the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Without
``--workload`` every workload runs, one after another, and the JSON keys
its metrics ``<workload>.<metric>``.  ``--out`` also writes every pass,
set-up probe and, when tracing, the spans.

Each workload runs in its own fresh interpreter (``child.py``).
``wall_rel`` is the median over its timed passes of the pass wall time
over that of the reference computation (``reference.py``) run beside it,
and ``setup_s`` the median of five more interpreters that only set up.
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  Exit code 1 means
an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("paper-full", "paper-quick", "moments", "campaign-store", "certify")
DEFAULT_SEED = 20260706
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def _child(argv: list[str], workdir: Path, timeout: float) -> tuple[dict, float]:
    """Run ``child.py`` in a fresh interpreter; returns its record and wall."""
    fd, result = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv,
         "--workdir", str(workdir), "--result", result],
        env=env, stdout=subprocess.DEVNULL,
    )
    # A blocking wait returns the moment the child exits; Popen.wait(timeout)
    # would poll and round set-up probes up to its 50 ms sleep steps.
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if returncode != 0:
        raise RuntimeError(f"child {' '.join(argv)} exited with {returncode}")
    return json.loads(Path(result).read_text()), wall


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict, workdir: Path) -> dict:
    """One workload: set-up probes (untraced runs only), then the run."""
    base = ["--workload", name, "--seed", str(seed)]
    probes: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(_child([*base, "--setup-only"], workdir, PROBE_TIMEOUT_S)[1])
    record, _ = _child(
        [*base, "--seconds", str(seconds), "--trace", str(int(trace))],
        workdir, RUN_TIMEOUT_S,
    )
    metrics: dict[str, float | None]
    if trace:
        declared = spec["per_layer"]
        metrics = {m["name"]: record["layers"].get(m["name"]) for m in declared}
    else:
        declared = spec["end_to_end"]
        refs = record["references"]
        metrics = {
            # Each pass over the mean of the reference runs either side of it.
            "wall_rel": statistics.median(
                2 * wall / (before + after)
                for wall, before, after in zip(record["passes"], refs, refs[1:])
            ),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "fail_ratio": record["failed"] / record["attempted"],
        "digest_check": record["digest_check"],
        "failures": record["failures"] + record["errors"],
        "metrics": {
            key: {"value": metrics.get(key), "unit": unit} for key, unit in units.items()
        },
        "passes": record["passes"],
        "references": record["references"],
        "setup_probes_s": probes,
        "trace": record.get("trace"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro package or no BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace), spec, workdir)
            for name in names
        }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        for failure in res["failures"]:
            print(f"{name} FAILED {failure}", file=sys.stderr)
        missing = [key for key, m in res["metrics"].items() if m["value"] is None]
        for key, m in res["metrics"].items():
            shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name} {key} {shown} {m['unit']}")
        print(f"{name} fail_ratio {res['fail_ratio']:.6g} 1")
        print(f"{name} digest_check {res['digest_check']}")
        if missing:
            print(f"{name} missing_boundaries {','.join(missing)}")
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        for key, m in res["metrics"].items():
            # A boundary that never fired reads 0 here; the lines above and
            # --out name it as missing.
            value = 0 if m["value"] is None else m["value"]
            summary["metrics"][prefix + key] = {"value": value, "unit": m["unit"]}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "workloads": results,
        }, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
