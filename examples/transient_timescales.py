#!/usr/bin/env python3
"""Fig. 1: the time scales of activity/power vs. temperature.

Drives the transient solver with a bursty activity pattern that toggles
every few milliseconds and shows that the temperature responds on a much
slower time scale — the low-pass behaviour that limits (but does not
defeat) the thermal side channel (Sec. 2.1).
"""

import numpy as np

from repro.layout import GridSpec, StackConfig
from repro.thermal import TransientSolver, build_stack, thermal_time_constant


def main() -> None:
    stack_cfg = StackConfig.square(4000.0)
    grid = GridSpec(stack_cfg.outline, 16, 16)
    solver = TransientSolver(build_stack(stack_cfg, grid))

    burst_period = 0.004  # activity toggles every 4 ms
    high = np.full(grid.shape, 8.0 / 256)
    low = 0.1 * high

    def power_at(t: float):
        phase = int(t / burst_period) % 2
        pm = high if phase == 0 else low
        return [pm, pm]

    trace = solver.run(power_at, duration=0.2, dt=0.001)

    print("time [ms]   activity   die0 mean temp [K]")
    for k in range(0, len(trace.times), 5):
        t = trace.times[k]
        act = "high" if int(t / burst_period) % 2 == 0 else "low "
        print(f"{1e3 * t:8.1f}      {act}      {trace.die_means[k, 0]:8.3f}")

    # step response time constant for reference
    step = solver.run(lambda t: [high, high], duration=0.4, dt=0.002)
    tau = thermal_time_constant(step)
    print(f"\nthermal time constant: {1e3 * tau:.1f} ms — orders of magnitude "
          f"slower than the {1e3 * burst_period:.0f} ms activity bursts, "
          f"matching Fig. 1's separation of time scales")
    swing = trace.die_means[50:, 0].max() - trace.die_means[50:, 0].min()
    print(f"steady-state temperature ripple under bursts: {swing:.2f} K "
          f"(the thermal side channel sees a low-passed signal)")


if __name__ == "__main__":
    main()
