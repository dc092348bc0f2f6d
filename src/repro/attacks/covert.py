"""Thermal covert channel between modules (Sec. 2.1 motivation).

The paper motivates the TSC with Masti et al.'s demonstration that two
processes can build a thermal covert channel (up to 12.5 bit/s on Xeon
multicores).  This module reproduces that experiment on the simulated 3D
IC: a *transmitter* module modulates its activity with an on-off-keyed
bit stream; a *receiver* (any thermal sensor, possibly on the other die)
removes the linear trend of its temperature trace and thresholds the rest
at 0 to recover the bits.

Because the thermal RC network is a low-pass filter (Fig. 1), the bit
error rate rises with the symbol rate; :func:`channel_capacity_sweep`
maps out the usable bandwidth, quantifying the "relatively low bandwidth"
limitation of the TSC that the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from ..thermal.stack import stack_for_floorplan
from ..thermal.transient import TransientSolver

__all__ = ["CovertChannelResult", "run_covert_channel", "channel_capacity_sweep"]

#: transmitter activity factor for a 1-bit and for a 0-bit
ACTIVE_ACTIVITY = 2.0
IDLE_ACTIVITY = 0.2
#: backward-Euler steps per bit period; the receiver samples after the last
STEPS_PER_BIT = 4
#: random payload bits sent at each symbol rate of a capacity sweep
SWEEP_BITS = 16


@dataclass
class CovertChannelResult:
    """Outcome of one covert-channel transmission."""

    bit_period_s: float
    bits_sent: Sequence[int]
    bits_received: Sequence[int]

    @property
    def bit_error_rate(self) -> float:
        errors = sum(1 for a, b in zip(self.bits_sent, self.bits_received) if a != b)
        return errors / len(self.bits_sent)

    @property
    def bandwidth_bps(self) -> float:
        """Raw signalling rate in bit/s (errors not discounted)."""
        return 1.0 / self.bit_period_s

    @property
    def effective_bps(self) -> float:
        """Binary-symmetric-channel capacity estimate in bit/s."""
        p = min(max(self.bit_error_rate, 1e-12), 1 - 1e-12)
        if p >= 0.5:
            return 0.0
        h = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        return (1.0 - h) * self.bandwidth_bps


def run_covert_channel(
    floorplan: Floorplan3D,
    transmitter: str,
    receiver_xy: Tuple[float, float],
    receiver_die: int,
    bits: Sequence[int],
    bit_period_s: float = 0.05,
    grid_n: int = 16,
) -> CovertChannelResult:
    """Transmit ``bits`` thermally from one module to a sensor location.

    The transmitter runs at :data:`ACTIVE_ACTIVITY` for 1-bits and
    :data:`IDLE_ACTIVITY` for 0-bits, one bit per ``bit_period_s`` of
    :data:`STEPS_PER_BIT` implicit steps; all other modules idle at
    nominal activity.  The receiver samples its sensor at the end of each
    bit period, removes the payload readings' linear trend (the warm-up
    ramp) and reads a 1 wherever the detrended reading is above 0.
    """
    if transmitter not in floorplan.placements:
        raise KeyError(f"unknown module {transmitter!r}")
    if not bits:
        raise ValueError("need at least one bit to transmit")
    grid = GridSpec(floorplan.stack.outline, grid_n, grid_n)
    # route through the owner module so *all* adjacent die pairs (not a
    # hardcoded (0, 1)) contribute their normalized TSV densities
    solver = TransientSolver(stack_for_floorplan(floorplan, grid))

    base_maps = [
        floorplan.power_map(d, grid) for d in range(floorplan.stack.num_dies)
    ]
    tx_die = floorplan.placements[transmitter].die
    tx_only = floorplan.power_map(
        tx_die, grid, activity={n: (1.0 if n == transmitter else 0.0)
                                for n in floorplan.placements},
    )

    warmup = 2  # idle periods before the payload (receiver discards them)
    symbols = [None] * warmup + list(bits)
    dt = bit_period_s / STEPS_PER_BIT

    def power_at(t: float):
        # the step ending at t is step round(t / dt) - 1 of the run
        symbol = symbols[(round(t / dt) - 1) // STEPS_PER_BIT]
        if symbol is None:
            act = 1.0
        else:
            act = ACTIVE_ACTIVITY if symbol else IDLE_ACTIVITY
        maps = [m.copy() for m in base_maps]
        maps[tx_die] = maps[tx_die] + (act - 1.0) * tx_only
        return maps

    trace = solver.run(power_at, bit_period_s * len(symbols), dt)
    # the receiver samples its cell at the end of each bit period
    i, j = grid.cell_of(*receiver_xy)
    cell = j * grid.nx + i
    readings = trace.die_temps[STEPS_PER_BIT - 1 :: STEPS_PER_BIT, receiver_die, cell]
    payload = readings[warmup:]
    # detrend: the global warm-up ramp would otherwise bias the threshold
    x = np.arange(payload.size, dtype=float)
    if payload.size > 1:
        coeffs = np.polyfit(x, payload, 1)
        detrended = payload - np.polyval(coeffs, x)
    else:
        detrended = payload - payload.mean()
    received = [1 if r > 0.0 else 0 for r in detrended]
    return CovertChannelResult(
        bit_period_s=bit_period_s,
        bits_sent=list(bits),
        bits_received=received,
    )


def channel_capacity_sweep(
    floorplan: Floorplan3D,
    transmitter: str,
    receiver_xy: Tuple[float, float],
    receiver_die: int,
    bit_periods_s: Sequence[float] = (0.2, 0.05, 0.0125),
    seed: int = 0,
    **kwargs,
) -> List[CovertChannelResult]:
    """BER/capacity across symbol rates — the TSC's low-pass bandwidth."""
    rng = np.random.default_rng(seed)
    payload = [int(b) for b in rng.integers(0, 2, size=SWEEP_BITS)]
    return [
        run_covert_channel(
            floorplan, transmitter, receiver_xy, receiver_die, payload,
            bit_period_s=period, **kwargs,
        )
        for period in bit_periods_s
    ]
