"""The ``odd_even`` family run to completion equals the pre-registry sorter.

Before the schedule registry, the 1-D odd-even transposition sort was a
pure-NumPy loop over :func:`transposition_step`.  That loop is kept here
verbatim (forward direction only) as the oracle: running the ``odd_even``
family on a ``(..., 1, N)`` mesh through :func:`repro.backends.run_sort`
must reproduce its step counts, completion flags and final arrays bit for
bit, including cap behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort
from repro.errors import StepLimitExceeded
from repro.linear.odd_even import transposition_step, worst_case_input
from repro.schedules import build_odd_even


def _legacy_sort_linear(array, *, max_steps=None, raise_on_cap=False):
    """The historical loop: ``(steps, completed, final)`` per batch element."""
    work = np.array(array, copy=True)
    n = work.shape[-1]
    if max_steps is None:
        max_steps = n + 2
    target = np.sort(work, axis=-1)

    batch_shape = work.shape[:-1]
    steps = np.full(batch_shape, -1, dtype=np.int64)
    done = np.all(work == target, axis=-1)
    steps = np.where(done, 0, steps)

    t = 0
    while t < max_steps and not np.all(done):
        t += 1
        transposition_step(work, t)
        now = np.all(work == target, axis=-1)
        newly = now & ~done
        if np.any(newly):
            steps = np.where(newly, t, steps)
            done = done | now

    completed = np.asarray(done)
    if raise_on_cap and not np.all(completed):
        raise StepLimitExceeded(max_steps, int(np.sum(~completed)))
    return np.asarray(steps), completed, work


def _run_family(array, *, max_steps=None, raise_on_cap=False):
    """The ``odd_even`` family on a ``(..., 1, N)`` mesh."""
    n = array.shape[-1]
    return run_sort(
        "vectorized",
        build_odd_even(),
        array.reshape(*array.shape[:-1], 1, n),
        max_steps=n + 2 if max_steps is None else max_steps,
        raise_on_cap=raise_on_cap,
    )


class TestOddEvenFamily:
    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_bit_identical_to_legacy_loop(self, batch_shape, n):
        rng = np.random.default_rng((len(batch_shape), n))
        arr = rng.integers(-50, 50, size=(*batch_shape, n))
        new = _run_family(arr)
        steps, completed, final = _legacy_sort_linear(arr)
        np.testing.assert_array_equal(new.steps, steps)
        np.testing.assert_array_equal(new.completed, completed)
        np.testing.assert_array_equal(new.final.reshape(arr.shape), final)
        assert new.max_steps == n + 2

    def test_cap_behaviour_matches(self):
        arr = worst_case_input(9)
        new = _run_family(arr, max_steps=3)
        steps, _, final = _legacy_sort_linear(arr, max_steps=3)
        assert new.steps_scalar() == int(steps) == -1
        np.testing.assert_array_equal(new.final.reshape(-1), final)
        with pytest.raises(StepLimitExceeded):
            _run_family(arr, max_steps=3, raise_on_cap=True)

    def test_registry_cycle_equals_transposition_step(self):
        """The odd_even family's 2-step cycle IS transposition_step."""
        from repro.backends import iter_run

        rng = np.random.default_rng(5)
        arr = rng.permutation(10)
        mirror = arr.copy()
        for t, snap in iter_run("vectorized", build_odd_even(), arr.reshape(1, 10), 6):
            transposition_step(mirror, t)
            np.testing.assert_array_equal(np.asarray(snap).reshape(-1), mirror)
