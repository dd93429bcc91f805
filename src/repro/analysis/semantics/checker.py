"""Static sortedness certification by 0-1-principle model checking.

The paper's Section 2 reduction is the whole foundation of its
average-case analysis: an **oblivious** comparison-exchange procedure
sorts every input iff it sorts every 0-1 input.  The argument is the
classic monotone-threshold one — ``min``/``max`` commute with
thresholding, so for any input ``x``, any level ``z``, and any step
``t``, the state of ``threshold_z(x)`` after ``t`` steps equals
``threshold_z`` of the state of ``x`` after ``t`` steps.  A grid is in
target order iff all of its threshold projections are, which yields the
two directions this module relies on:

* if **all** 0-1 matrices are simultaneously in target order after ``T``
  steps, then *every* input is in target order after ``T`` steps —
  ``T`` is a **certified step bound** (``CERTIFIED``);
* a 0-1 matrix that provably *never* reaches target order is a concrete
  counterexample input the executor could never finish (``REFUTED``).

:func:`certify_sortedness` decides this **without importing an
executor**, interpreting the comparator IR bit-sliced: 64 0-1 inputs per
``uint64`` word, one bit plane per cell in target order, so compare-exchange
is ``min = a & b``, ``max = a | b`` and an input is sorted iff no plane
holds a 1 where the next plane holds a 0.

One driver (:func:`_run_batch`) owns the budget, the cycle-boundary
recurrence check and the step count; a step engine runs the steps of one
cycle.  The engine is ``repro_planes``, a C loop in the shared library of
:mod:`repro._clib`, loaded on the first certification; where that library
cannot be built (no working ``$CC``) it is :func:`_numpy_engine`, the
same loop in NumPy.  Both give the same outcome, step for step, so every
certificate is byte-identical with and without a compiler.

Decision procedure
------------------
For meshes up to :data:`EXHAUSTIVE_CELL_LIMIT` cells (sides 2–4, linear
arrays up to ``1 x 16``) the batch is *all* ``2^(rows·cols)`` 0-1
matrices — the verdict is exact.  Beyond that a seeded, stratified 0-1
sample (one stratum per zero-count) can only answer ``REFUTED`` (with a
witness) or ``UNKNOWN`` — never a false ``CERTIFIED``.

The interpreter runs at most :func:`~repro.core.schedule.resolve_step_cap`
steps, the driver's own step cap.  A certified bound therefore never
exceeds the driver's cap: a ``CERTIFIED`` schedule cannot time out under
``run_sort``.  Within the budget, the batch state at each cycle boundary
is checked for a recurrence, which proves the dynamics periodic, at
which point any never-sorted input is a genuine *never sorts* witness
(the fixpoint/periodicity pre-pass — broken schedules typically reach a
fixed point within a few cycles, long before the budget).  When every
comparator sends its minimum to the earlier target position, a lane
never returns to a state it has left, so a state can recur only as the
previous boundary's and that one comparison suffices; other programs
fingerprint every boundary.

Witness minimality: in exhaustive mode the reported counterexample is
the global minimum over all never-sorting 0-1 matrices (fewest ones,
then lexicographically least), so no smaller witness exists; sampled
witnesses are greedily shrunk by 1-bit flips until locally minimal.

Certificates are cached by schedule *value* identity
(:mod:`repro.analysis.semantics.cache`): re-certifying the same network
is a pure lookup with zero interpreter steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Literal

import numpy as np

from repro._clib import load_library
from repro.analysis.schedule_check import ScheduleReport, check_schedule
from repro.analysis.semantics.cache import (
    CertificateStore,
    add_interpreter_steps,
    cache_get,
    cache_put,
    certificate_key,
    schedule_digest,
)
from repro.core.schedule import Program, Schedule, _lower_pass, resolve_step_cap
from repro.errors import AnalysisError, BackendUnavailableError
from repro.randomness import as_generator, as_seed_sequence

__all__ = [
    "EXHAUSTIVE_CELL_LIMIT",
    "SortednessCertificate",
    "certify_sortedness",
    "certified_schedule_report",
]

Verdict = Literal["CERTIFIED", "REFUTED", "UNKNOWN"]

#: Largest mesh (in cells) checked exhaustively: ``2^16`` 0-1 matrices are
#: 16 bit planes of 1024 ``uint64`` words (128 KiB) — covers sides 2–4 and
#: ``1 x N`` linear arrays up to ``N = 16``.
EXHAUSTIVE_CELL_LIMIT = 16

_MODES = ("auto", "exhaustive", "sampled")


@dataclass(frozen=True)
class SortednessCertificate:
    """The certifier's verdict on one ``(schedule, mesh)`` pair.

    ``CERTIFIED`` carries the minimal simultaneous step bound
    (:attr:`step_bound`); ``REFUTED`` carries a minimal 0-1 counterexample
    (:attr:`witness`, ``rows x cols`` nested tuples); ``UNKNOWN`` carries
    the reason the checker could not decide (sampling, budget, or a
    non-oblivious schedule the 0-1 principle does not apply to).
    """

    verdict: Verdict
    name: str
    order: str
    rows: int
    cols: int
    mode: Literal["exhaustive", "sampled"]
    digest: str
    inputs_checked: int
    cycle_len: int
    budget: int
    step_bound: int | None = None
    witness: tuple[tuple[int, ...], ...] | None = None
    witness_ones: int | None = None
    reason: str = ""
    sample_seed: int | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "CERTIFIED"

    @property
    def refuted(self) -> bool:
        return self.verdict == "REFUTED"

    @property
    def witness_array(self) -> "np.ndarray | None":
        """The counterexample as a ``rows x cols`` int array (or ``None``)."""
        if self.witness is None:
            return None
        return np.asarray(self.witness, dtype=np.int64)

    def describe(self) -> str:
        head = (
            f"{self.verdict} [{self.mode}, {self.inputs_checked} 0-1 input(s)]"
        )
        if self.certified:
            return f"{head}: sorts every input within {self.step_bound} step(s)"
        if self.refuted:
            rows = ["".join(str(v) for v in row) for row in self.witness or ()]
            return f"{head}: witness {'/'.join(rows)} never sorts"
        return f"{head}: {self.reason}"

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_json`)."""
        payload = asdict(self)
        if self.witness is not None:
            payload["witness"] = [list(row) for row in self.witness]
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "SortednessCertificate":
        def optional_int(key: str) -> int | None:
            value = payload.get(key)
            return None if value is None else int(value)

        witness = payload.get("witness")
        return cls(
            verdict=payload["verdict"],
            name=str(payload["name"]),
            order=str(payload["order"]),
            rows=int(payload["rows"]),
            cols=int(payload["cols"]),
            mode=payload["mode"],
            digest=str(payload["digest"]),
            inputs_checked=int(payload["inputs_checked"]),
            cycle_len=int(payload["cycle_len"]),
            budget=int(payload["budget"]),
            step_bound=optional_int("step_bound"),
            witness=None
            if witness is None
            else tuple(tuple(int(v) for v in row) for row in witness),
            witness_ones=optional_int("witness_ones"),
            reason=str(payload.get("reason", "")),
            sample_seed=optional_int("sample_seed"),
        )


# ---------------------------------------------------------------------------
# The bit-sliced comparator-IR interpreter.
# ---------------------------------------------------------------------------

#: Inputs per bit-plane word: ``1 << _LANE_BITS``.
_LANE_BITS = 6
_LANES = 1 << _LANE_BITS
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _order_permutation(order: str, rows: int, cols: int) -> np.ndarray:
    """Flat-cell permutation that linearizes the mesh in target order:
    target position ``i`` is cell ``perm[i]``."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    if order == "snake":
        idx[1::2] = idx[1::2, ::-1]  # paper-even rows read right-to-left
    return idx.reshape(-1)


def _step_program(program: Program, perm: np.ndarray) -> Program:
    """A comparator program (:func:`~repro.core.schedule.lower`) with cells
    relabelled so that plane ``i`` is target position ``i``: ``int64``
    plane indices."""
    position = np.empty(perm.size, dtype=np.int64)
    position[perm] = np.arange(perm.size)
    lo, hi, off = program
    return position[lo], position[hi], off


def _pack(inputs: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``(n, cells)`` 0-1 rows as ``(cells, ceil(n/64))`` uint64 planes in
    target order: lane ``k`` of word ``w`` is input ``64·w + k``, and the
    pad lanes hold the all-zero input."""
    n = inputs.shape[0]
    bits = np.zeros((perm.size, -(-n // _LANES) * _LANES), dtype=np.uint8)
    bits[:, :n] = inputs[:, perm].T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _exhaustive_planes(cells: int, perm: np.ndarray) -> np.ndarray:
    """All ``2^cells`` 0-1 inputs as planes: lane ``c`` has bit ``j`` of ``c``
    in cell ``j``, i.e. bit ``j`` of the lane within its word for ``j < 6``
    and bit ``j - 6`` of the word index beyond."""
    lane: np.ndarray = np.arange(min(1 << cells, _LANES), dtype=np.uint64)
    word: np.ndarray = np.arange(-(-(1 << cells) // _LANES), dtype=np.uint64)
    planes = np.empty((cells, word.size), dtype=np.uint64)
    for plane, cell in enumerate(perm.tolist()):
        if cell < _LANE_BITS:
            planes[plane] = np.bitwise_or.reduce(((lane >> cell) & 1) << lane)
        else:
            planes[plane] = ((word >> (cell - _LANE_BITS)) & 1) * _ALL_ONES
    return planes


def _unsorted_lanes(planes: np.ndarray) -> np.ndarray:
    """Lanes not in target order: a 1 directly before a 0 somewhere."""
    out: np.ndarray = np.bitwise_or.reduce(planes[:-1] & ~planes[1:], axis=0)
    return out


@dataclass
class _BatchOutcome:
    """What one budgeted batch run established."""

    all_sorted_at: int | None  # minimal t with every input sorted at once
    ever_sorted: np.ndarray  # per input: sorted at *some* step <= budget
    periodic: bool  # cycle-boundary state recurrence proven
    steps_run: int


#: A step engine bound to one batch: ``steps(n)`` runs steps ``0 .. n-1``
#: of the program on the planes in place, ANDs the lanes unsorted after
#: each step into the never-sorted mask, and returns ``n``, or ``-(s + 1)``
#: as soon as every lane is sorted after step ``s``.
Steps = Callable[[int], int]


def _numpy_engine(program: Program, planes: np.ndarray, never: np.ndarray) -> Steps:
    """The step engine in NumPy: one gather/scatter per step."""
    lo, hi, off = program
    bounds = off.tolist()

    def steps(n: int) -> int:
        for s in range(n):
            start, stop = bounds[s], bounds[s + 1]
            if stop > start:
                low, high = lo[start:stop], hi[start:stop]
                a, b = planes[low], planes[high]
                planes[low], planes[high] = a & b, a | b
            unsorted = _unsorted_lanes(planes)
            np.bitwise_and(never, unsorted, out=never)
            if not unsorted.any():
                return -(s + 1)
        return n

    return steps


class _CEngine:
    """The step engine in C: ``repro_planes`` on the same buffers.

    C trusts every pointer and index, so the buffers are checked once
    here, and held for as long as the engine can pass them to C.
    """

    def __init__(self, program: Program, planes: np.ndarray, never: np.ndarray) -> None:
        lo, hi, off = (np.ascontiguousarray(a, dtype=np.int64) for a in program)
        cells, words = planes.shape
        if not (
            planes.dtype == np.uint64 and planes.flags.c_contiguous
            and planes.flags.writeable and never.dtype == np.uint64
            and never.shape == (words,) and never.flags.c_contiguous
            and never.flags.writeable and lo.shape == hi.shape == (int(off[-1]),)
            and off[0] == 0 and bool(np.all(np.diff(off) >= 0))
            and (lo.size == 0 or (min(lo.min(), hi.min()) >= 0
                                  and max(lo.max(), hi.max()) < cells))
        ):
            raise AnalysisError("planes, mask or program do not fit repro_planes")
        self._buffers = (planes, never, lo, hi, off)
        self._cycle = off.size - 1
        self._run = partial(
            load_library().repro_planes, planes.ctypes.data, words, cells,
            lo.ctypes.data, hi.ctypes.data, off.ctypes.data,
        )
        self._never = never.ctypes.data

    def __call__(self, n: int) -> int:
        if not 0 <= n <= self._cycle:
            raise AnalysisError(f"{n} steps do not fit a {self._cycle}-step cycle")
        return int(self._run(n, self._never))


def _step_engine() -> Callable[[Program, np.ndarray, np.ndarray], Steps]:
    """``repro_planes`` where the shared C library builds, else NumPy."""
    try:
        load_library()
    except BackendUnavailableError:
        return _numpy_engine
    return _CEngine


def _run_batch(program: Program, planes: np.ndarray, inputs: int, budget: int) -> _BatchOutcome:
    """Interpret the cycle on ``planes`` in place until every input is
    simultaneously sorted, the cycle-boundary state recurs, or ``budget``
    steps have run — whichever comes first.  Lanes past ``inputs`` pad the
    last word with the all-zero input: sorted, and invariant.

    Each round runs one cycle on the step engine, cut short by the
    budget; only a whole cycle ends at a boundary, so only a whole cycle
    can prove a recurrence.

    A program is *monotone* when every comparator has ``lo < hi``.  Then a
    compare-exchange that changes a lane moves a 1 from before a 0 to after
    it, which removes at least one inversion, so a lane never returns to a
    state it has left: the batch state can recur only by standing still for
    a whole cycle.  The first boundary whose state equals an earlier one is
    therefore the first that equals the boundary just before it, so a
    monotone batch compares each boundary with a copy of the previous one
    and hashes nothing.  Any other program keeps a blake2b fingerprint of
    every boundary.
    """
    cycle = len(program[2]) - 1
    never = _unsorted_lanes(planes)  # lanes unsorted at every step so far
    steps = _step_engine()(program, planes, never)
    all_sorted_at = None if never.any() else 0
    periodic = False
    monotone = bool(np.all(program[0] < program[1]))
    seen: set[bytes] = set() if monotone else {hashlib.blake2b(planes).digest()}
    previous = planes.copy()  # the last boundary's state, for a monotone program
    t = 0
    while all_sorted_at is None and not periodic and t < budget:
        ran = steps(min(cycle, budget - t))
        t += abs(ran)
        if ran < 0:
            all_sorted_at = t
        elif ran == cycle and monotone:
            periodic = np.array_equal(planes, previous)
            np.copyto(previous, planes)
        elif ran == cycle:
            key = hashlib.blake2b(planes).digest()
            periodic = key in seen
            seen.add(key)
    ever = np.unpackbits(never.astype("<u8").view(np.uint8), bitorder="little")
    return _BatchOutcome(all_sorted_at, ever[:inputs] == 0, periodic, t)


def _stratified_inputs(
    cells: int, samples_per_stratum: int, max_strata: int, seed: int
) -> np.ndarray:
    """A seeded 0-1 sample stratified by zero-count.

    Constant (all-0 / all-1) inputs are trivially sorted, so strata cover
    zero-counts ``1 .. cells-1``; when there are more strata than
    ``max_strata`` an evenly spaced subset (always including ``1``,
    ``cells // 2``, and ``cells - 1``) is drawn.
    """
    strata = list(range(1, cells))
    if len(strata) > max_strata:
        picks = np.linspace(1, cells - 1, num=max_strata)
        strata = sorted({int(round(z)) for z in picks} | {1, cells // 2, cells - 1})
    rows: list[np.ndarray] = []
    for zeros in strata:
        rng = as_generator(as_seed_sequence((int(seed), cells, zeros)))
        for _ in range(samples_per_stratum):
            vec = np.ones(cells, dtype=np.int8)
            vec[:zeros] = 0
            rows.append(rng.permutation(vec))
    return np.unique(np.stack(rows), axis=0)


def _minimize_witness(
    vec: np.ndarray, program: Program, perm: np.ndarray, budget: int
) -> np.ndarray:
    """Greedy 1-bit shrink: flip ones to zeros while the flipped input
    *provably* never sorts (periodicity proof)."""
    current = vec.copy()
    improved = True
    while improved:
        improved = False
        for index in np.flatnonzero(current):
            candidate = current.copy()
            candidate[index] = 0
            outcome = _run_batch(program, _pack(candidate[None, :], perm), 1, budget)
            add_interpreter_steps(outcome.steps_run)
            if outcome.periodic and not bool(outcome.ever_sorted[0]):
                current = candidate
                improved = True
    return current


def _pick_minimal(candidates: np.ndarray) -> np.ndarray:
    """The canonical minimal witness among the ``candidates`` rows: fewest
    ones, then lexicographically least flat row-major bit string."""
    keys = np.vstack([candidates[:, ::-1].T, candidates.sum(axis=1)])
    return candidates[np.lexsort(keys)[0]]


# ---------------------------------------------------------------------------
# The decision procedure.
# ---------------------------------------------------------------------------


def _certificate_params(
    exhaustive: bool, seed: int, samples_per_stratum: int, max_strata: int
) -> dict[str, Any]:
    """The analysis parameters a certificate is keyed by."""
    if exhaustive:
        return {"mode": "exhaustive"}
    return dict(
        mode="sampled", seed=seed, samples_per_stratum=samples_per_stratum, max_strata=max_strata
    )


def certify_sortedness(
    schedule: Schedule,
    rows: int,
    cols: int | None = None,
    *,
    mode: str = "auto",
    sample_seed: int = 0,
    samples_per_stratum: int = 8,
    max_strata: int = 16,
    use_cache: bool = True,
    store: CertificateStore | None = None,
) -> SortednessCertificate:
    """Decide CERTIFIED / REFUTED / UNKNOWN for ``schedule`` on the mesh.

    A schedule with structural problems on the mesh (the ones
    :func:`~repro.core.schedule.lower` refuses, SCH001–SCH003) is not an
    oblivious comparator network, so the 0-1 principle does not apply
    and the verdict is ``UNKNOWN``.

    Parameters
    ----------
    mode:
        ``"auto"`` (exhaustive up to :data:`EXHAUSTIVE_CELL_LIMIT` cells,
        sampled beyond), ``"exhaustive"``, or ``"sampled"``.  Requesting
        an exhaustive check beyond the cell limit is a usage error — the
        batch would not fit in memory.
    use_cache / store:
        Certificates are looked up in (and written back to) the
        in-process cache and, when given, the on-disk
        :class:`~repro.analysis.semantics.cache.CertificateStore` — both
        keyed by schedule *value*, so a cache hit costs zero interpreter
        steps.
    """
    rows = int(rows)
    cols = rows if cols is None else int(cols)
    cells = rows * cols
    if mode not in _MODES:
        raise AnalysisError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "exhaustive" and cells > EXHAUSTIVE_CELL_LIMIT:
        raise AnalysisError(
            f"exhaustive 0-1 checking is limited to {EXHAUSTIVE_CELL_LIMIT} "
            f"cells (2^{cells} inputs would not fit); use mode='sampled'"
        )
    exhaustive = (
        mode == "exhaustive"
        or (mode == "auto" and cells <= EXHAUSTIVE_CELL_LIMIT)
    )

    digest = schedule_digest(schedule, rows, cols)
    key = certificate_key(
        digest,
        _certificate_params(
            exhaustive, int(sample_seed), int(samples_per_stratum), int(max_strata)
        ),
    )

    if use_cache:
        cached = cache_get(key)
        if cached is not None:
            # Backfill the persistent store: a memory hit must still leave
            # an artifact behind when the caller asked for one.
            if store is not None and not store.path_for(key).exists():
                store.put(key, cached.to_json())
            return cached
        if store is not None:
            payload = store.get(key)
            if payload is not None:
                cert = SortednessCertificate.from_json(payload)
                cache_put(key, cert)
                return cert

    certificate = _compute_certificate(
        schedule,
        rows,
        cols,
        digest=digest,
        exhaustive=exhaustive,
        sample_seed=int(sample_seed),
        samples_per_stratum=int(samples_per_stratum),
        max_strata=int(max_strata),
    )
    if use_cache:
        cache_put(key, certificate)
    if store is not None:
        store.put(key, certificate.to_json())
    return certificate


def _compute_certificate(
    schedule: Schedule,
    rows: int,
    cols: int,
    *,
    digest: str,
    exhaustive: bool,
    sample_seed: int,
    samples_per_stratum: int,
    max_strata: int,
) -> SortednessCertificate:
    cells = rows * cols
    mode: Literal["exhaustive", "sampled"] = (
        "exhaustive" if exhaustive else "sampled"
    )
    seed = None if exhaustive else sample_seed
    budget = resolve_step_cap(schedule, rows, cols)
    base = dict(
        name=schedule.name,
        order=schedule.order,
        rows=rows,
        cols=cols,
        mode=mode,
        digest=digest,
        cycle_len=len(schedule.steps),
        budget=budget,
        sample_seed=seed,
    )

    # Structural problems (check_schedule's SCH001-SCH003) make the
    # schedule non-oblivious, so the 0-1 principle does not apply.
    lowered, problems, _ = _lower_pass(schedule, rows, cols)
    if problems:
        return SortednessCertificate(
            verdict="UNKNOWN",
            inputs_checked=0,
            reason=(
                "schedule is not an oblivious comparator network "
                f"({len(problems)} structural violation(s)); "
                "the 0-1 principle does not apply"
            ),
            **base,  # type: ignore[arg-type]
        )

    perm = _order_permutation(schedule.order, rows, cols)
    program = _step_program(lowered, perm)
    if exhaustive:
        checked = 1 << cells
        planes = _exhaustive_planes(cells, perm)
    else:
        sample = _stratified_inputs(cells, samples_per_stratum, max_strata, sample_seed)
        checked = int(sample.shape[0])
        planes = _pack(sample, perm)
    outcome = _run_batch(program, planes, checked, budget)
    add_interpreter_steps(outcome.steps_run)

    if outcome.all_sorted_at is not None:
        if exhaustive:
            return SortednessCertificate(
                verdict="CERTIFIED",
                inputs_checked=checked,
                step_bound=outcome.all_sorted_at,
                reason=(
                    f"all {checked} 0-1 matrices reach target order "
                    f"simultaneously at step {outcome.all_sorted_at}"
                ),
                **base,  # type: ignore[arg-type]
            )
        return SortednessCertificate(
            verdict="UNKNOWN",
            inputs_checked=checked,
            step_bound=outcome.all_sorted_at,
            reason=(
                f"all {checked} sampled 0-1 inputs sort, but sampling "
                "cannot certify — rerun exhaustively on a smaller mesh"
            ),
            **base,  # type: ignore[arg-type]
        )

    if outcome.periodic:
        never = ~outcome.ever_sorted
        if bool(never.any()):
            if exhaustive:  # materialize only the never-sorted lanes
                codes = np.flatnonzero(never)[:, None]
                candidates = ((codes >> np.arange(cells)) & 1).astype(np.int8)
            else:
                candidates = sample[never]
            witness = _pick_minimal(candidates)
            if not exhaustive:
                witness = _minimize_witness(witness, program, perm, budget)
            grid = tuple(
                tuple(int(v) for v in row) for row in witness.reshape(rows, cols)
            )
            return SortednessCertificate(
                verdict="REFUTED",
                inputs_checked=checked,
                witness=grid,
                witness_ones=int(witness.sum()),
                reason=(
                    "cycle dynamics are periodic and the witness is never "
                    "in target order at any step"
                ),
                **base,  # type: ignore[arg-type]
            )
        return SortednessCertificate(
            verdict="UNKNOWN",
            inputs_checked=checked,
            reason=(
                "every 0-1 input is transiently sorted but never all at "
                "once within one period; no certified bound exists"
            ),
            **base,  # type: ignore[arg-type]
        )

    return SortednessCertificate(
        verdict="UNKNOWN",
        inputs_checked=checked,
        reason=(
            f"step budget ({budget}) exhausted before simultaneous "
            "sortedness or a periodicity proof"
        ),
        **base,  # type: ignore[arg-type]
    )


def certified_schedule_report(
    schedule: Schedule,
    rows: int,
    cols: int | None = None,
    *,
    store: CertificateStore | None = None,
    **certify_kwargs: Any,
) -> ScheduleReport:
    """:func:`check_schedule` plus an attached sortedness certificate.

    The one-stop entry ``repro analyze --certify`` uses: the structural /
    policy report gains a :attr:`~ScheduleReport.semantics` section.
    """
    rows = int(rows)
    cols = rows if cols is None else int(cols)
    report = check_schedule(schedule, rows, cols)
    report.semantics = certify_sortedness(schedule, rows, cols, store=store, **certify_kwargs)
    return report
