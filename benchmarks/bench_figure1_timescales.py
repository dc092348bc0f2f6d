"""E-F1 — Figure 1: activity/power vs. temperature time scales.

The paper's Fig. 1 sketches activity toggling on ns-to-ms scales while
the temperature follows on ms-to-s scales.  This bench drives the
transient solver with bursty activity and reports (a) the thermal time
constant and (b) the attenuation of the activity swing in the thermal
response — the quantitative version of the figure's message.
"""

import numpy as np
import pytest

from repro.layout import GridSpec, StackConfig
from repro.thermal import TransientSolver, build_stack, thermal_time_constant


@pytest.fixture(scope="module")
def solver():
    stack_cfg = StackConfig.square(4000.0)
    grid = GridSpec(stack_cfg.outline, 16, 16)
    return grid, TransientSolver(build_stack(stack_cfg, grid))


def test_figure1_report(benchmark, solver):
    grid, ts = solver
    high = np.full(grid.shape, 8.0 / 256)
    low = 0.1 * high

    step = ts.run(lambda t: [high, high], duration=0.4, dt=0.002)
    tau = thermal_time_constant(step)

    print("\nFigure 1 — separation of time scales")
    print(f"thermal time constant (63.2% step response): {1e3 * tau:.1f} ms")

    rows = []
    for period_ms in (1.0, 4.0, 16.0, 64.0):
        period = period_ms * 1e-3

        def power_at(t, period=period):
            pm = high if int(t / period) % 2 == 0 else low
            return [pm, pm]

        dt = min(5e-4, period / 4)
        trace = ts.run(power_at, duration=max(0.2, 10 * period), dt=dt)
        tail = trace.die_means[len(trace.times) // 2 :, 0]
        ripple = float(tail.max() - tail.min())
        rows.append((period_ms, ripple))
        print(f"activity burst period {period_ms:6.1f} ms -> "
              f"temperature ripple {ripple:6.3f} K")

    # the TSC is a low-pass channel: faster activity => smaller ripple
    ripples = [r for _, r in rows]
    assert ripples[0] < ripples[-1]
    # and the time constant must sit well above the fastest burst period
    assert tau > 1e-3
    benchmark(thermal_time_constant, step)


def test_transient_step_speed(benchmark, solver):
    grid, ts = solver
    pm = np.full(grid.shape, 4.0 / 256)
    benchmark(ts.run, lambda t: [pm, pm], 0.05, 0.005)
