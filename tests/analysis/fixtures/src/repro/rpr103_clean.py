"""RPR103 near-miss: events routed through the driver's emit_* helpers."""

from repro.backends.driver import emit_run_end, emit_run_start


class RunStartSummary:
    """A similarly-named local class is not a run-level event."""


def run(obs, schedule, side):
    emit_run_start(obs, executor="x", algorithm=schedule, rows=side, cols=side,
                   max_steps=1, order="snake")
    summary = RunStartSummary()
    emit_run_end(obs, steps=1, completed=True, wall_time=0.0)
    return summary
