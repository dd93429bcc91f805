"""The curated benchmark suite: what ``repro bench`` measures.

Each :class:`BenchCase` names one operation worth tracking over time:

* ``driver_steps_*`` — the hot step loop (``run_steps``) at small and
  medium sides;
* ``compile_cache_*`` — schedule compilation, cold (cache cleared every
  iteration) and warm (pure cache hit);
* ``campaign_workers*`` — the sharded Monte-Carlo engine, serial and with
  a 2-process pool, through the public :func:`repro.experiments.sample`
  facade;
* ``sort_<family>_side<S>`` — sort-to-completion for every registered
  schedule family (paper algorithms, shearsort, the linear odd-even sort,
  a pinned random network), each on its own topology's default backend
  (side 16 in the smoke suite; 16/32/64 in the full suite);
* ``service_cache_hit`` / ``service_cache_miss`` — the content-addressed
  result store through ``sample(..., store=...)``: a warm hit (pure
  lookup + decode, the zero-kernel-steps path) vs a cold miss (lookup +
  campaign + put, the store emptied before every timed iteration);
* ``certify_cold`` / ``certify_cached`` — the 0-1 sortedness certifier on
  a side-4 schedule: a cold exhaustive model check (65 536 0-1 matrices
  through the comparator-IR interpreter) vs a pure content-addressed
  cache hit, pinning the re-analysis-is-free contract to a number;
* ``span_overhead_disabled`` — the module-level :func:`repro.obs.prof.span`
  fast path with **no** profiler installed, pinning the package's
  zero-overhead-when-disabled guarantee to a number.

A case separates ``setup`` (untimed: build grids, warm caches) from
``body`` (timed: one iteration over the prepared state), so the reported
wall times measure the operation, not its scaffolding.  Inputs are drawn
from fixed seeds — every process benches identical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import BenchmarkError

__all__ = ["BenchCase", "build_cases", "case_names"]

SUITES = ("smoke", "full")

_SEED = 20260808  # fixed: identical inputs on every bench run
_STEPS = 64  # driver-loop iterations per timed body
_TRIALS = 48  # campaign trials per timed body
_COMPILE_SIDE = 32  # mesh side for the compile-cache cases
_CERTIFY_SIDE = 4  # mesh side for the 0-1 certifier cases (exhaustive limit)
_NETWORK_STEPS = 128  # pinned random-network cycle length (side-independent)


@dataclass(frozen=True)
class BenchCase:
    """One benchmarked operation.

    ``setup()`` runs once per case, untimed, and returns the state the
    timed ``body(state)`` consumes.  ``repeats`` is the case's default
    timed-iteration count (the CLI can override it globally).
    """

    name: str
    group: str
    setup: Callable[[], Any]
    body: Callable[[Any], Any]
    repeats: int = 5
    meta: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Case bodies.  Module-level (not closures over heavy state) so the setup /
# body split stays explicit; each setup returns exactly what its body needs.
# ---------------------------------------------------------------------------


def _grid(side: int, *, seed: int = _SEED):
    from repro.randomness import random_permutation_grid

    return random_permutation_grid(side, rng=seed)


def _setup_driver(side: int) -> Callable[[], Any]:
    def setup():
        from repro.backends import get_backend
        from repro.backends.compile import compiled_schedule
        from repro.core.runner import resolve_algorithm

        schedule = resolve_algorithm("snake_1")
        compiled_schedule(schedule, side)  # warm the cache: time the loop
        return get_backend("vectorized"), schedule, _grid(side)

    return setup


def _body_driver(state) -> Any:
    from repro.backends import run_steps

    backend, schedule, grid = state
    return run_steps(backend, schedule, grid, _STEPS)


def _setup_compile() -> Any:
    from repro.schedules import mesh_shape

    schedules = [_family_schedule(name, _COMPILE_SIDE) for name in _algorithm_names()]
    return [(s, mesh_shape(s, _COMPILE_SIDE)) for s in schedules]


def _body_compile_miss(entries) -> Any:
    from repro.backends.compile import compiled_schedule, schedule_cache_clear

    schedule_cache_clear()
    for schedule, (rows, cols) in entries:
        compiled_schedule(schedule, rows, cols)


def _body_compile_hit(entries) -> Any:
    from repro.backends.compile import compiled_schedule

    for schedule, (rows, cols) in entries:
        compiled_schedule(schedule, rows, cols)


def _setup_campaign(workers: int) -> Callable[[], Any]:
    def setup():
        return {
            "algorithm": "snake_1",
            "side": 8,
            "trials": _TRIALS,
            "seed": _SEED,
            "shard_size": 12,
            "workers": workers,
        }

    return setup


def _body_campaign(kwargs) -> Any:
    from repro.experiments import sample

    kwargs = dict(kwargs)
    return sample(kwargs.pop("algorithm"), **kwargs)


def _setup_sort(algorithm: str, side: int) -> Callable[[], Any]:
    def setup():
        from repro.randomness import random_permutation_mesh
        from repro.schedules import execution_backend, mesh_shape

        schedule = _family_schedule(algorithm, side)
        grid = random_permutation_mesh(mesh_shape(schedule, side), rng=_SEED)
        return execution_backend(), schedule, grid

    return setup


def _body_sort(state) -> Any:
    from repro.backends import run_sort

    backend, schedule, grid = state
    return run_sort(backend, schedule, grid)


def _setup_service_store(*, populate: bool) -> Callable[[], Any]:
    def setup():
        import tempfile

        from repro.experiments import sample
        from repro.store import LocalResultStore

        store = LocalResultStore(tempfile.mkdtemp(prefix="repro-bench-store-"))
        kwargs = {
            "side": 8,
            "trials": _TRIALS,
            "seed": _SEED,
            "shard_size": 12,
        }
        if populate:
            sample("snake_1", store=store, **kwargs)
        return store, kwargs

    return setup


def _body_service_hit(state) -> Any:
    from repro.experiments import sample

    store, kwargs = state
    return sample("snake_1", store=store, **kwargs)


def _body_service_miss(state) -> Any:
    from repro.experiments import sample

    store, kwargs = state
    # Empty the store first (like the compile-miss case clears its cache)
    # so every timed iteration pays lookup + campaign + put.
    for fingerprint in store.fingerprints():
        store.delete(fingerprint)
    return sample("snake_1", store=store, **kwargs)


def _setup_certify() -> Any:
    from repro.core.runner import resolve_algorithm

    return resolve_algorithm("snake_1")


def _body_certify_cold(schedule) -> Any:
    from repro.analysis.semantics import certify_sortedness, semantics_cache_clear

    # Clear the in-memory certificate cache (like compile_cache_miss) so
    # every timed iteration pays the full exhaustive 0-1 model check:
    # 2^16 matrices through the comparator-IR interpreter.
    semantics_cache_clear()
    return certify_sortedness(schedule, _CERTIFY_SIDE, _CERTIFY_SIDE)


def _body_certify_cached(schedule) -> Any:
    from repro.analysis.semantics import certify_sortedness

    return certify_sortedness(schedule, _CERTIFY_SIDE, _CERTIFY_SIDE)


def _setup_noop() -> Any:
    return None


def _body_span_disabled(_state) -> Any:
    from repro.obs.prof import span

    for _ in range(10_000):
        with span("bench_disabled"):
            pass


def _algorithm_names() -> tuple[str, ...]:
    from repro.schedules import available_families

    return available_families()


def _family_schedule(name: str, side: int):
    """Build the representative instance of ``name`` at ``side``.

    Seeded families get the fixed bench seed; the random network's cycle is
    pinned to :data:`_NETWORK_STEPS` draws so its compile and sort costs
    track the code, not the side-dependent default cycle length.
    """
    from repro.schedules import build_schedule

    params = {"steps": _NETWORK_STEPS} if name == "random_network" else None
    return build_schedule(name, side, seed=_SEED, params=params)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def build_cases(suite: str = "smoke") -> list[BenchCase]:
    """The case list for ``suite`` (``"smoke"`` or ``"full"``)."""
    if suite not in SUITES:
        raise BenchmarkError(f"suite must be one of {SUITES}, got {suite!r}")
    cases: list[BenchCase] = []
    for side in (16, 32):
        cases.append(
            BenchCase(
                name=f"driver_steps_side{side}",
                group="driver",
                setup=_setup_driver(side),
                body=_body_driver,
                meta={"side": side, "num_steps": _STEPS, "algorithm": "snake_1"},
            )
        )
    cases.append(
        BenchCase(
            name="compile_cache_miss",
            group="compile",
            setup=_setup_compile,
            body=_body_compile_miss,
            meta={"side": 32, "schedules": len(_algorithm_names())},
        )
    )
    cases.append(
        BenchCase(
            name="compile_cache_hit",
            group="compile",
            setup=_setup_compile,
            body=_body_compile_hit,
            repeats=10,
            meta={"side": 32, "schedules": len(_algorithm_names())},
        )
    )
    for workers in (1, 2):
        cases.append(
            BenchCase(
                name=f"campaign_workers{workers}",
                group="campaign",
                setup=_setup_campaign(workers),
                body=_body_campaign,
                repeats=3,
                meta={"workers": workers, "trials": _TRIALS, "side": 8},
            )
        )
    sides = (16,) if suite == "smoke" else (16, 32, 64)
    for algorithm in _algorithm_names():
        for side in sides:
            cases.append(
                BenchCase(
                    name=f"sort_{algorithm}_side{side}",
                    group="sort",
                    setup=_setup_sort(algorithm, side),
                    body=_body_sort,
                    repeats=3,
                    meta={"algorithm": algorithm, "side": side},
                )
            )
    cases.append(
        BenchCase(
            name="service_cache_hit",
            group="service",
            setup=_setup_service_store(populate=True),
            body=_body_service_hit,
            repeats=10,
            meta={"trials": _TRIALS, "side": 8, "store": "local"},
        )
    )
    cases.append(
        BenchCase(
            name="service_cache_miss",
            group="service",
            setup=_setup_service_store(populate=False),
            body=_body_service_miss,
            repeats=3,
            meta={"trials": _TRIALS, "side": 8, "store": "local"},
        )
    )
    cases.append(
        BenchCase(
            name="certify_cold",
            group="certify",
            setup=_setup_certify,
            body=_body_certify_cold,
            repeats=3,
            meta={"side": _CERTIFY_SIDE, "algorithm": "snake_1",
                  "inputs": 2 ** (_CERTIFY_SIDE * _CERTIFY_SIDE)},
        )
    )
    cases.append(
        BenchCase(
            name="certify_cached",
            group="certify",
            setup=_setup_certify,
            body=_body_certify_cached,
            repeats=10,
            meta={"side": _CERTIFY_SIDE, "algorithm": "snake_1"},
        )
    )
    cases.append(
        BenchCase(
            name="span_overhead_disabled",
            group="overhead",
            setup=_setup_noop,
            body=_body_span_disabled,
            repeats=10,
            meta={"spans_per_iteration": 10_000},
        )
    )
    return cases


def case_names(suite: str = "full") -> list[str]:
    """Every case name in ``suite`` (for ``repro bench --list``)."""
    return [case.name for case in build_cases(suite)]
