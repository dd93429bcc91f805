"""RPR103 trigger: observer-event construction outside the driver."""

from repro.obs.events import RunStart, StepEvent


def emit_my_own(obs, side):
    obs.on_run_start(RunStart(executor="rogue", algorithm="snake_1",
                              rows=side, cols=side, max_steps=1, order="snake"))
    obs.on_step(StepEvent(t=1))
