"""Per-layer tracing for the end-to-end benchmark, installed from outside.

The program under test carries no benchmark hooks.  :class:`Tracer`
wraps its public boundaries for the duration of a traced pass and puts
every original back afterwards:

* every registered backend's ``prepare``;
* ``apply_step`` / ``done_mask`` on every ``ExecutorRun`` subclass
  (discovered through ``available_backends()`` and ``__subclasses__``);
* ``run_experiment``, ``sample``, ``run_campaign``, ``run_sort``,
  ``run_steps``, ``compiled_schedule``, ``certify_sortedness`` and the
  public functions of ``repro.randomness``, ``repro.zeroone`` and
  ``repro.theory`` -- rebound in every loaded ``repro.*`` module that
  binds them, because callers import them by name;
* ``LocalResultStore.get`` / ``put``.

Op-level boundaries record spans (name, start, end, parent) in memory.
The two per-step boundaries (``apply_step``, ``done_mask``) only feed
timers and counts, so that a run of thousands of steps does not grow the
span list.  A boundary's self time is its duration minus the time of the
boundaries it encloses, so self times of all layers add up to the traced
wall time minus the harness's own work.  Shard, checkpoint and merge
costs come from the span tree the campaign runner already records
(``shard``, ``checkpoint``, ``merge``), grafted across processes when a
campaign uses a pool.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps
from pathlib import Path
from typing import Any, Callable

import repro.backends as backends
import repro.campaign as campaign
import repro.experiments as experiments
from repro.analysis import semantics
from repro.backends import (
    ExecutorRun,
    available_backends,
    get_backend,
    schedule_cache_info,
)
from repro.obs.prof import SpanProfiler, aggregate_spans, use_profiler
from repro.store import LocalResultStore

perf_counter = time.perf_counter

# Modules whose public functions are traced as a whole layer.
_FUNCTION_LAYERS = {
    "repro.randomness": "randomness",
    "repro.zeroone": "zeroone",
    "repro.theory": "theory",
}

# Per-layer metrics read straight from the accumulators, per traced pass.
_SELF_TIME = {
    "compile.s": "compile",
    "experiments.self_s": "experiments",
    "randomness.s": "randomness",
    "prepare.s": "prepare",
    "kernel.s": "kernel",
    "completion.s": "completion",
    "driver.self_s": "driver",
    "zeroone.s": "zeroone",
    "theory.s": "theory",
    "campaign.s": "campaign",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "certify.s": "certify",
}
_CALLS = {
    "prepare.calls": "prepare",
    "kernel.steps": "kernel",
    "completion.calls": "completion",
    "store.gets": "store.get",
    "store.puts": "store.put",
    "certify.calls": "certify",
}
_COUNTERS = {  # metric: (layer that must have fired, counter)
    "compile.misses": ("compile", "compile.misses"),
    "sampling.calls": ("experiments", "sampling.calls"),
    "randomness.grids": ("randomness", "randomness.grids"),
    "kernel.grid_steps": ("kernel", "kernel.grid_steps"),
    "kernel.cell_steps": ("kernel", "kernel.cell_steps"),
    "campaign.retries": ("campaign", "campaign.retries"),
    "store.bytes": ("store.put", "store.bytes"),
    "certify.inputs": ("certify", "certify.inputs"),
    "certify.interpreter_steps": ("certify", "certify.interpreter_steps"),
}
_GRAFTED = {  # metric: (span the campaign runner grafts, field)
    "campaign.shards": ("shard", "count"),
    "campaign.shard_busy_s": ("shard", "wall"),
    "campaign.checkpoint_s": ("checkpoint", "wall"),
    "campaign.merge_s": ("merge", "wall"),
}


def _public_functions(prefix: str) -> list[Callable]:
    """Functions named in ``__all__`` and defined under ``prefix``, taken
    from the already-loaded modules of that package."""
    found: dict[int, Callable] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if (
                callable(obj)
                and not isinstance(obj, type)
                and str(getattr(obj, "__module__", "")).startswith(prefix)
            ):
                found[id(obj)] = obj
    return list(found.values())


def _executor_run_classes() -> list[type]:
    for name in available_backends():
        get_backend(name)  # imports the backend's module and its run class
    seen: list[type] = []
    todo = list(ExecutorRun.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Wraps the program's layer boundaries and accumulates per-layer cost.

    ``install()`` / ``restore()`` bracket each traced pass; statistics
    accumulate across passes until :meth:`metrics` reads them out.
    """

    def __init__(self) -> None:
        self.spans: list[Any] = []  # [name, start, end, parent index]
        self.self_s: dict[str, float] = {}  # layer -> self seconds
        self.calls: dict[str, int] = {}  # layer -> boundary calls
        self.counts: dict[str, float] = {}  # named work counters
        self.hit_ms: list[float] = []  # store.get latency of hits
        self.span_totals: dict[str, dict[str, float]] = {}  # grafted spans
        self.passes = 0
        self.traced_wall = 0.0
        self._origin = perf_counter()
        self._stack: list[list[Any]] = []  # open frames: [span index, layer, child s]
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        functions: dict[int, tuple[Callable, Callable]] = {}

        def add(fn: Callable, layer: str, after: Callable | None = None,
                before: Callable | None = None) -> None:
            functions[id(fn)] = (fn, self._span_wrapper(fn, layer, before, after))

        add(experiments.run_experiment, "experiments")
        add(experiments.sample, "experiments", after=self._after_sample)
        add(campaign.run_campaign, "campaign", after=self._after_campaign)
        add(backends.run_sort, "driver", after=self._after_run_sort)
        add(backends.run_steps, "driver")
        add(backends.compiled_schedule, "compile")
        add(semantics.certify_sortedness, "certify",
            before=self._before_certify, after=self._after_certify)
        for prefix, layer in _FUNCTION_LAYERS.items():
            after = self._after_randomness if layer == "randomness" else None
            for fn in _public_functions(prefix):
                if id(fn) not in functions:
                    add(fn, layer, after=after)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

        backend_classes = {type(get_backend(name)) for name in available_backends()}
        for cls in sorted(backend_classes, key=lambda c: c.__qualname__):
            if "prepare" in vars(cls):
                self._patch(cls, "prepare",
                            self._span_wrapper(vars(cls)["prepare"], "prepare"))
        for cls in _executor_run_classes():
            if "apply_step" in vars(cls):
                self._patch(cls, "apply_step",
                            self._step_wrapper(vars(cls)["apply_step"], "kernel"))
            if "done_mask" in vars(cls):
                self._patch(cls, "done_mask",
                            self._step_wrapper(vars(cls)["done_mask"], "completion"))
        self._patch(LocalResultStore, "get", self._span_wrapper(
            vars(LocalResultStore)["get"], "store.get", after=self._after_store_get))
        self._patch(LocalResultStore, "put", self._span_wrapper(
            vars(LocalResultStore)["put"], "store.put", after=self._after_store_put))

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # Wrappers.
    # ------------------------------------------------------------------

    def _span_wrapper(self, fn: Callable, layer: str, before: Callable | None = None,
                      after: Callable | None = None) -> Callable:
        tracer = self
        name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', fn)}"

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            token = before(args, kwargs) if before is not None else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans[index] = [
                    name, start - tracer._origin, end - tracer._origin,
                    None if parent is None else parent[0],
                ]
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + duration - frame[2]
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            if after is not None:
                after(token, args, result, duration, parent)
            return result

        return traced

    def _step_wrapper(self, fn: Callable, layer: str) -> Callable:
        tracer = self
        kernel = layer == "kernel"

        @wraps(fn)
        def timed(run: Any, *args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            result = fn(run, *args, **kwargs)
            duration = perf_counter() - start
            stack = tracer._stack
            if stack:
                stack[-1][2] += duration
            tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + duration
            tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            if kernel:
                grids = 1
                for dim in run.batch_shape:
                    grids *= dim
                tracer._count("kernel.grid_steps", grids)
                tracer._count("kernel.cell_steps", grids * run.rows * run.cols)
            return result

        return timed

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _after_sample(self, token, args, result, duration, parent) -> None:
        self._count("sampling.calls", 1)

    def _after_campaign(self, token, args, result, duration, parent) -> None:
        meta = result.meta
        if meta.get("store", {}).get("hit"):
            return
        self._count("campaign.trials", len(result))
        self._count("campaign.retries", int(meta.get("shard_retries", 0)))
        self.counts["campaign.workers"] = max(
            self.counts.get("campaign.workers", 1), int(meta.get("workers", 1))
        )

    def _after_run_sort(self, token, args, outcome, duration, parent) -> None:
        steps = outcome.steps
        grids = int(steps.size)
        ran = int(steps.max()) if bool(outcome.completed.all()) else outcome.max_steps
        self._count("driver.useful_steps", int(steps.sum()))
        self._count("driver.grid_steps_run", grids * ran)

    def _after_randomness(self, token, args, result, duration, parent) -> None:
        # Count each drawn grid once: the *_grid helpers delegate to the
        # *_mesh ones, so only the outermost randomness call counts.
        if getattr(result, "ndim", 0) >= 2 and (parent is None or parent[1] != "randomness"):
            grids = 1
            for dim in result.shape[:-2]:
                grids *= dim
            self._count("randomness.grids", grids)

    def _before_certify(self, args, kwargs) -> int:
        return semantics.semantics_cache_info().interpreter_steps

    def _after_certify(self, token, args, cert, duration, parent) -> None:
        after = semantics.semantics_cache_info().interpreter_steps
        self._count("certify.interpreter_steps", max(0, after - token))
        self._count("certify.inputs", cert.inputs_checked)

    def _after_store_get(self, token, args, payload, duration, parent) -> None:
        if payload is not None:
            self._count("store.hits", 1)
            self.hit_ms.append(duration * 1e3)

    def _after_store_put(self, token, args, path, duration, parent) -> None:
        self._count("store.bytes", Path(path).stat().st_size)

    # ------------------------------------------------------------------
    # Passes and read-out.
    # ------------------------------------------------------------------

    def traced_pass(self, run_pass: Callable[[], Any]) -> Any:
        """Run one pass with every boundary wrapped and an ambient span
        profiler installed (which makes campaigns graft worker spans)."""
        misses = schedule_cache_info().misses
        profiler = SpanProfiler()
        self.install()
        try:
            with use_profiler(profiler):
                start = perf_counter()
                result = run_pass()
                wall = perf_counter() - start
        finally:
            self.restore()
        self._count("compile.misses", schedule_cache_info().misses - misses)
        for name, entry in aggregate_spans(profiler.roots).items():
            totals = self.span_totals.setdefault(name, {"wall": 0.0, "count": 0})
            totals["wall"] += entry["wall"]
            totals["count"] += entry["count"]
        self.passes += 1
        self.traced_wall += wall
        return result, wall

    def metrics(self) -> dict[str, float | None]:
        """Per-pass layer metrics; ``None`` marks a boundary that never fired."""
        n = max(self.passes, 1)
        s, c, k, g = self.self_s, self.calls, self.counts, self.span_totals

        def ratio(num: float, den: float, fired: bool) -> float | None:
            return num / den if fired and den else None

        out: dict[str, float | None] = {}
        for metric, layer in _SELF_TIME.items():
            out[metric] = s[layer] / n if layer in c else None
        for metric, layer in _CALLS.items():
            out[metric] = c[layer] / n if layer in c else None
        for metric, (layer, counter) in _COUNTERS.items():
            out[metric] = k.get(counter, 0) / n if layer in c else None
        for metric, (span, field) in _GRAFTED.items():
            out[metric] = g[span][field] / n if span in g else None
        out["kernel.us_per_step"] = ratio(
            s.get("kernel", 0.0) * 1e6, c.get("kernel", 0), "kernel" in c)
        out["kernel.ns_per_cell_step"] = ratio(
            s.get("kernel", 0.0) * 1e9, k.get("kernel.cell_steps", 0), "kernel" in c)
        out["driver.useful_ratio"] = ratio(
            k.get("driver.useful_steps", 0), k.get("driver.grid_steps_run", 0), True)
        out["campaign.parallel_eff"] = ratio(
            g.get("shard", {}).get("wall", 0.0),
            g.get("campaign", {}).get("wall", 0.0) * k.get("campaign.workers", 1),
            "shard" in g)
        out["store.hit_ratio"] = ratio(
            k.get("store.hits", 0), c.get("store.get", 0), "store.get" in c)
        # A p95 needs at least ten hits beyond it.
        out["store.hit_tail_ms"] = (
            statistics.quantiles(self.hit_ms, n=20, method="inclusive")[-1]
            if len(self.hit_ms) >= 200 else None
        )
        out["certify.inputs_per_s"] = ratio(
            k.get("certify.inputs", 0), s.get("certify", 0.0), "certify" in c)
        out["trace.coverage"] = ratio(sum(s.values()), self.traced_wall, True)
        return out

    def per_pass_count(self, name: str) -> float:
        """A work counter (e.g. a workload's trial counter) per traced pass."""
        return self.counts.get(name, 0) / max(self.passes, 1)

    def record(self) -> dict[str, Any]:
        """Everything the traced run keeps, JSON-ready."""
        return {
            "passes": self.passes,
            "traced_wall_s": self.traced_wall,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "grafted_spans": self.span_totals,
            "spans": [span for span in self.spans if span is not None],
        }

