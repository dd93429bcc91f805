"""The schedule-family registry: named, parameterized, seedable generators.

A **schedule family** is a recipe that produces concrete
:class:`~repro.core.schedule.Schedule` instances:

* the paper's five algorithms are *fixed* families — a four-step cycle that
  never depends on the mesh side;
* shearsort is a *sided* family — its Θ(√N log N) step list is built per
  side;
* the 1-D odd-even transposition sort is a fixed family on a **linear**
  topology (executed as a ``1 × side`` mesh through the rectangular
  backend);
* uniform random sorting networks are *sided and seedable* — a seeded
  generator draws the comparator sequence, so the instance is identified by
  ``(side, steps, seed)``.

Every subsystem that accepts an ``algorithm`` argument resolves it here via
:func:`resolve`, which understands three spellings:

* a bare family name — ``"snake_1"``, ``"odd_even"``;
* a **family spec** — ``"shearsort[side=8]"``,
  ``"random_network[side=16,steps=64,seed=7]"`` — whose bracketed
  ``key=value`` parameters instantiate the family;
* an explicit :class:`~repro.core.schedule.Schedule` (passed through).

Generated instances bake their parameters (including the seed) into the
schedule *name* in canonical spec syntax, so names round-trip through
:func:`parse_spec` and everything keyed on the name — the compile cache,
``CampaignSpec.fingerprint``, run events, manifests — automatically
distinguishes instances with different parameters or seeds.

Builds are memoised per process on ``(builder, parameters)``: resolving
the same spec twice returns the *same* :class:`Schedule` instance, so a
builder must be a pure function of its parameters and nobody may mutate
the schedule it returns, ``metadata`` included (transforms such as
:func:`~repro.core.faults.with_dead_pairs` return new schedules via
:func:`dataclasses.replace`).  Errors are not memoised.

Third parties register new families with :func:`register_family`; see
``docs/EXTENDING.md`` for a worked recipe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping

from repro.core.schedule import Schedule
from repro.errors import DimensionError, UnknownScheduleError

__all__ = [
    "TOPOLOGIES",
    "ScheduleFamily",
    "register_family",
    "get_family",
    "available_families",
    "family_names",
    "parse_spec",
    "spec_name",
    "build_schedule",
    "resolve",
    "topology_of",
    "mesh_shape",
]

#: Mesh topologies a family can declare.  ``"square"`` runs on ``side × side``
#: grids, ``"linear"`` on ``1 × side`` arrays (the paper's Section 1
#: substrate); ``"rect"`` is reserved for families defined on general
#: ``rows × cols`` meshes.
TOPOLOGIES = ("square", "linear", "rect")


@dataclass(frozen=True)
class ScheduleFamily:
    """One registered schedule family.

    Attributes
    ----------
    name:
        Registry name; also the base of every instance's spec name.
    builder:
        Callable producing a :class:`Schedule`.  Called with ``side=`` when
        :attr:`sided`, ``seed=`` when :attr:`seedable`, plus any extra
        family parameters (see :attr:`default_params`).
    topology:
        One of :data:`TOPOLOGIES`; decides the mesh shape a ``side``
        induces (:func:`mesh_shape`).
    sided:
        The step list depends on the mesh side (e.g. shearsort).
    seedable:
        Instances are drawn by a seeded generator (e.g. random networks);
        ``seed`` becomes part of the instance identity.
    requires_even_side:
        The family is only defined for even sides (the paper's
        ``sqrt(N) = 2n`` constraint on the row-major algorithms).
    default_params:
        Extra generator parameters and their defaults (``None`` means
        "derived from the side at build time").
    description:
        One line for catalogs and ``--help`` output.
    pathological:
        True for deliberately broken families (``row_major_no_wrap``):
        resolvable by name, excluded from sweeps, benches, and the default
        :func:`available_families` listing.
    certified_sides:
        Sides on which the family's default instance is *statically
        certified* to sort — an exhaustive 0-1-principle proof by
        :func:`repro.analysis.semantics.certify_sortedness`, re-checked
        by ``repro analyze --certify`` (a declared side whose exhaustive
        check does not come back CERTIFIED is a gating finding).  Empty
        for seeded generators (instances vary per seed) and, of course,
        for pathological families.
    """

    name: str
    builder: Callable[..., Schedule]
    topology: str = "square"
    sided: bool = False
    seedable: bool = False
    requires_even_side: bool = False
    default_params: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""
    pathological: bool = False
    certified_sides: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise DimensionError(
                f"family name must be a Python-identifier-like token, "
                f"got {self.name!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise DimensionError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        for side in self.certified_sides:
            if not isinstance(side, int) or side < 2:
                raise DimensionError(
                    f"certified_sides must hold integer sides >= 2, "
                    f"got {side!r} for family {self.name!r}"
                )
            if self.requires_even_side and side % 2 != 0:
                raise DimensionError(
                    f"family {self.name!r} requires even sides but declares "
                    f"certified side {side}"
                )


_REGISTRY: dict[str, ScheduleFamily] = {}


def register_family(family: ScheduleFamily) -> ScheduleFamily:
    """Register ``family``; duplicate names are an error (re-registering a
    family would silently change what existing campaign fingerprints mean)."""
    if family.name in _REGISTRY:
        raise DimensionError(
            f"schedule family {family.name!r} is already registered; "
            f"unregister-and-replace is deliberately unsupported"
        )
    _REGISTRY[family.name] = family
    return family


def family_names(*, include_pathological: bool = True) -> tuple[str, ...]:
    """Registered family names in registration order."""
    return tuple(
        name
        for name, fam in _REGISTRY.items()
        if include_pathological or not fam.pathological
    )


def available_families(*, include_pathological: bool = False) -> tuple[str, ...]:
    """The sweepable families (pathological ones excluded by default)."""
    return family_names(include_pathological=include_pathological)


def get_family(name: str) -> ScheduleFamily:
    """Look a family up by bare name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScheduleError(
            f"unknown algorithm {name!r}: no schedule family registered "
            f"under that name; registered families: {', '.join(family_names())}"
        ) from None


_SPEC_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[(.*)\])?$")


def parse_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split ``"family[k=v,...]"`` into ``(family, params)``.

    Bare names parse to ``(name, {})``.  Parameter values are integers —
    sides, lengths, and seeds are all the registry needs.
    """
    match = _SPEC_RE.match(str(spec).strip())
    if match is None:
        raise UnknownScheduleError(
            f"cannot parse schedule spec {spec!r}; expected "
            f"'family' or 'family[key=value,...]' "
            f"(registered families: {', '.join(family_names())})"
        )
    name, body = match.group(1), match.group(2)
    params: dict[str, int] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            parsed: int | None = None
            if sep and key:
                try:
                    parsed = int(value)
                except ValueError:
                    parsed = None
            if parsed is None:
                raise UnknownScheduleError(
                    f"bad parameter {item.strip()!r} in schedule spec {spec!r}; "
                    f"expected 'key=<int>'"
                )
            params[key] = parsed
    return name, params


def spec_name(family: str, **params: int) -> str:
    """The canonical instance name: ``family[k=v,...]`` with sorted keys.

    Inverse of :func:`parse_spec`; generated schedules use it as their
    :attr:`~repro.core.schedule.Schedule.name` so parameters and seeds are
    part of every name-keyed identity (compile cache, campaign
    fingerprints, events).
    """
    if not params:
        return family
    body = ",".join(f"{key}={int(value)}" for key, value in sorted(params.items()))
    return f"{family}[{body}]"


def build_schedule(
    name: str,
    side: int | None = None,
    *,
    seed: int | None = None,
    params: Mapping[str, int] | None = None,
) -> Schedule:
    """Build one concrete schedule from a family name or spec string.

    ``side`` and ``seed`` fill in whatever the spec string does not pin
    down; explicit spec parameters win.  Fixed families (the paper's five,
    ``odd_even``) ignore ``side`` — their cycle is side-independent.  The
    same parameters return the same (memoised) instance; never mutate it.
    """
    base, spec_params = parse_spec(name)
    family = get_family(base)
    merged: dict[str, Any] = dict(family.default_params)
    merged.update(spec_params)
    if params:
        merged.update(params)

    unknown = set(merged) - set(family.default_params) - {"side", "seed"}
    if unknown:
        raise UnknownScheduleError(
            f"family {family.name!r} takes no parameter(s) {sorted(unknown)}; "
            f"known: {sorted({*family.default_params, 'side', 'seed'})}"
        )

    kwargs: dict[str, Any] = {
        key: value
        for key, value in merged.items()
        if key not in ("side", "seed") and value is not None
    }
    if family.sided:
        chosen = merged.get("side", side)
        if chosen is None:
            raise UnknownScheduleError(
                f"family {family.name!r} needs a mesh side; pass side= or "
                f"spell it {family.name}[side=...]"
            )
        kwargs["side"] = int(chosen)
    if family.seedable:
        chosen = merged.get("seed", seed)
        if chosen is None:
            raise UnknownScheduleError(
                f"family {family.name!r} is a seeded generator; pass seed= "
                f"or spell it {family.name}[...,seed=...]"
            )
        kwargs["seed"] = int(chosen)
    return _build(family.builder, tuple(sorted(kwargs.items())))


@lru_cache(maxsize=128)
def _build(builder: Callable[..., Schedule], kwargs: tuple[tuple[str, Any], ...]) -> Schedule:
    """Run ``builder`` once per process for each parameter set; keyed on the
    callable, not the family name, so a re-registered name never sees a
    stale instance."""
    return builder(**dict(kwargs))


def resolve(
    algorithm: str | Schedule,
    side: int | None = None,
    *,
    seed: int | None = None,
) -> Schedule:
    """Coerce an algorithm name, family spec, or schedule to a schedule.

    This is the one resolution point every layer shares (via
    :func:`repro.core.runner.resolve_algorithm`).  Strings are resolved
    through the registry; unknown names raise
    :class:`~repro.errors.UnknownScheduleError`, whose message lists the
    registered families.
    """
    if isinstance(algorithm, Schedule):
        return algorithm
    return build_schedule(algorithm, side=side, seed=seed)


def topology_of(schedule: Schedule) -> str:
    """A schedule's declared topology (``"square"`` when undeclared —
    every historical schedule predates the metadata key)."""
    return str(schedule.metadata.get("topology", "square"))


def mesh_shape(schedule: Schedule, side: int) -> tuple[int, int]:
    """The ``(rows, cols)`` mesh a ``side`` induces for ``schedule``.

    Square topology → ``side × side``; linear → ``1 × side`` (``side`` is
    the array length, so N = side, matching the paper's 1-D substrate).
    """
    if side < 2:
        raise DimensionError(f"mesh side must be >= 2, got {side}")
    if topology_of(schedule) == "linear":
        return (1, int(side))
    return (int(side), int(side))
