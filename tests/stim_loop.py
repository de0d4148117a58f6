"""The drive/settle/clock loop tests run a ``BatchStimulusDriver`` through."""

from __future__ import annotations


def drive_to_end(driver, on_cycle=None) -> None:
    """Drive, settle and clock every cycle of the driver's stimulus, then
    settle once more.  ``on_cycle(cycle, simulator)`` fires after each
    settle, where scalar simulation observers look."""
    simulator = driver.simulator
    for cycle in range(driver.n_cycles):
        driver.apply(cycle)
        simulator.settle()
        if on_cycle is not None:
            on_cycle(cycle, simulator)
        simulator.clock_edge()
        simulator.cycle += 1
    simulator.settle()
