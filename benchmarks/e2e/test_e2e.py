"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They check the limits BENCHMARK.json must keep, the output pins, the tracer's
restore-everything guarantee, compare.py's verdicts, the run.py command
line, and that an injected completion-check slowdown is flagged on the
workloads that check completion and attributed to ``completion.s``.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "expected.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = run.DEFAULT_SEED


def _setup(name: str, tmp_path: Path, seed: int = SEED):
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, tmp_path)
    return workload


# ---------------------------------------------------------------------------
# BENCHMARK.json and the pins.
# ---------------------------------------------------------------------------


def test_benchmark_json_keeps_its_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 <= m["bound"] <= 0.25
        assert UNIT.fullmatch(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_workloads_metrics_and_pins_line_up():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(PINS["workloads"]) == set(declared)
    for entry in PINS["workloads"].values():
        assert set(entry["digests"]) == {str(seed) for seed in PINS["seeds"]}
        assert entry["trials_per_pass"] > 0
    assert str(SEED) in PINS["workloads"]["certify"]["digests"]
    # Everything the tracer and the child report is declared, and vice versa.
    reported = set(tracer.Tracer().metrics()) | {
        "setup.import_s", "wall_s", "trials_per_s", "reference_s", "trace.overhead_ratio",
        "store.hit_p50_ms"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def test_pinned_outputs_pass_and_a_perturbed_pin_fails_every_op(tmp_path):
    workload = _setup("certify", tmp_path)
    ops = workload.run_pass()
    pins = PINS["workloads"]["certify"]["digests"][str(SEED)]

    good = workloads.Checker(pins)
    good.check(ops)
    assert (good.attempted, good.failed) == (len(ops), 0)

    perturbed = workloads.Checker({key: "0" * 16 for key in pins})
    perturbed.check(ops)
    assert perturbed.failed / perturbed.attempted == 1


def test_unpinned_seed_still_cross_checks(tmp_path):
    checker = workloads.Checker(None)
    first = [workloads.Op("a", "x", 0.1), workloads.Op("b", "y", 0.1)]
    checker.check(first)
    checker.check(first)
    assert checker.failed == 0 and not checker.pinned
    checker.check([workloads.Op("a", "z", 0.1), workloads.Op("b", "y", 0.1, "missed")])
    assert checker.failed == 2


@pytest.mark.parametrize("name", ["paper-quick", "campaign-store", "certify"])
def test_traced_pass_keeps_outputs_and_restores_every_wrapper(name, tmp_path):
    workload = _setup(name, tmp_path)
    untraced = [(op.key, op.digest) for op in workload.run_pass()]

    log: list[tuple[object, str, object]] = []

    class Recording(tracer.Tracer):
        def _patch(self, owner, attr, replacement):
            log.append((owner, attr, getattr(owner, attr)))
            super()._patch(owner, attr, replacement)

    rec = Recording()
    ops, _ = rec.traced_pass(workload.run_pass)
    assert [(op.key, op.digest) for op in ops] == untraced
    assert len(log) > 10
    for owner, attr, original in log:
        assert getattr(owner, attr) is original, (owner, attr)
    assert {"prepare", "apply_step", "done_mask", "get", "put", "sample", "run_sort",
            "certify_sortedness"} <= {attr for _, attr, _ in log}
    layers = rec.metrics()
    if name == "certify":
        assert layers["certify.calls"] == len(ops) and layers["kernel.s"] is None
    else:
        assert layers["experiments.self_s"] is not None
    assert layers["trace.coverage"] > 0.9


# ---------------------------------------------------------------------------
# compare.py.
# ---------------------------------------------------------------------------


def _runs(values: list[float], workload="paper-quick", metric="wall_rel", failed=0):
    return [
        {"workloads": {workload: {
            "failed": failed, "attempted": 10,
            "metrics": {metric: {"value": v, "unit": "s"}},
        }}}
        for v in values
    ]


def _verdicts(parent, change, spec=SPEC, **kwargs) -> dict[str, str]:
    rows = compare.compare(_runs(parent, **kwargs), _runs(change, **kwargs), spec)
    return {row["metric"]: row["verdict"] for row in rows}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_compare_verdicts_on_synthetic_runs():
    assert _verdicts(PARENT, [v * 1.3 for v in PARENT]) == {"wall_rel": "regressed"}
    assert _verdicts(PARENT, [v * 1.02 for v in reversed(PARENT)]) == {"wall_rel": "unchanged"}
    assert _verdicts(PARENT, [v * 0.8 for v in PARENT]) == {"wall_rel": "improved"}
    # A gain needs ten pairs; fewer leave it open.
    assert _verdicts(PARENT[:5], [v * 0.8 for v in PARENT[:5]]) == {"wall_rel": "unresolved"}
    noisy = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3, 0.7, 1.1, 1.0, 1.25]
    assert _verdicts(noisy, [v * 1.12 for v in reversed(noisy)]) == {"wall_rel": "unresolved"}
    # Where higher is better, a 30% drop regresses and a rise does not.
    spec = dict(SPEC, end_to_end=[
        {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}])
    assert _verdicts(PARENT, [v * 0.7 for v in PARENT], spec, metric="trials_per_s") == {
        "trials_per_s": "regressed"}
    assert _verdicts(PARENT, [v * 1.3 for v in PARENT], spec, metric="trials_per_s") == {
        "trials_per_s": "improved"}


def test_compare_exit_status(tmp_path):
    def write(prefix, runs):
        paths = []
        for i, data in enumerate(runs):
            path = tmp_path / f"{prefix}{i}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
        return paths

    parent = write("p", _runs(PARENT))
    assert compare.main([*parent, "--", *write("same", _runs(PARENT))]) == 0
    assert compare.main([*parent, "--", *write("slow", _runs([v * 1.3 for v in PARENT]))]) == 1
    assert compare.main([*parent, "--", *write("bad", _runs(PARENT, failed=1))]) == 1
    assert compare.main(parent) == 2


# ---------------------------------------------------------------------------
# The run.py command line.
# ---------------------------------------------------------------------------


def _run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_run_py_prints_every_metric_and_a_result_line():
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _run_py(ROOT, "--workload", "certify", "--seed", "5", "--seconds", "1",
                       "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert any(line.startswith(f"certify {m['name']} ") for line in lines)
        assert "certify digest_check unpinned" in lines


def test_run_py_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_py(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Regression detection: a doubled completion check.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def doubled_completion_checks():
    """Make every executor's ``done_mask`` do its work twice."""
    patched = []
    for cls in tracer._executor_run_classes():
        if "done_mask" in vars(cls):
            original = vars(cls)["done_mask"]

            def doubled(self, _original=original):
                _original(self)
                return _original(self)

            patched.append((cls, original))
            cls.done_mask = doubled
    try:
        yield
    finally:
        for cls, original in patched:
            cls.done_mask = original


def _timed(workload, slow: bool, passes: int) -> float:
    """``wall_rel`` over ``passes`` passes, as ``run.py`` computes it."""
    ratios = []
    before = reference.reference_pass()
    for _ in range(passes):
        with doubled_completion_checks() if slow else contextlib.nullcontext():
            start = tracer.perf_counter()
            workload.run_pass()
            wall = tracer.perf_counter() - start
        after = reference.reference_pass()
        ratios.append(2 * wall / (before + after))
        before = after
    return statistics.median(ratios)


@pytest.mark.parametrize("name, flagged, pairs, passes", [
    ("paper-quick", True, 7, 3),
    ("paper-full", True, 3, 1),
    ("moments", False, 5, 1),
    ("certify", False, 5, 1),
])
def test_doubled_completion_check_is_flagged_where_completion_runs(
    name, flagged, pairs, passes, tmp_path
):
    workload = _setup(name, tmp_path)
    workload.run_pass()  # warm-up
    parent, change = [], []
    for i in range(pairs):  # alternate which side runs first
        for slow in (bool(i % 2), not i % 2):
            (change if slow else parent).append(_timed(workload, slow, passes))
    row = next(
        r for r in compare.compare(_runs(parent, workload=name), _runs(change, workload=name),
                                   SPEC)
        if r["metric"] == "wall_rel"
    )
    assert (row["verdict"] == "regressed") == flagged, row


def test_trace_attributes_the_slowdown_to_completion(tmp_path):
    workload = _setup("paper-quick", tmp_path)
    workload.run_pass()
    base = tracer.Tracer()
    base.traced_pass(workload.run_pass)
    slow = tracer.Tracer()
    with doubled_completion_checks():
        slow.traced_pass(workload.run_pass)
    deltas = {layer: slow.self_s.get(layer, 0.0) - base.self_s.get(layer, 0.0)
              for layer in set(base.self_s) | set(slow.self_s)}
    assert max(deltas, key=deltas.get) == "completion", deltas
    wall_delta = slow.traced_wall - base.traced_wall
    assert deltas["completion"] > 0.5 * wall_delta
    assert slow.metrics()["completion.s"] > 1.5 * base.metrics()["completion.s"]
