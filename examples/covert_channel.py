#!/usr/bin/env python3
"""Thermal covert channel on the simulated 3D IC (Sec. 2.1 motivation).

Floorplans n100, picks the hottest bottom-die module as the transmitter,
and sweeps the signalling rate: well below the thermal cutoff the channel
is near error-free (the Masti-et-al.-style covert channel the paper cites,
up to 12.5 bit/s on real Xeons); past the cutoff the low-pass physics of
Fig. 1 destroys it.
"""

from repro import FloorplanMode, load_benchmark
from repro.attacks import channel_capacity_sweep
from repro.core.config import env_int
from repro.floorplan import AnnealConfig, anneal


def main() -> None:
    circuit, stack = load_benchmark("n100")
    result = anneal(
        circuit.modules, stack, circuit.nets, circuit.terminals,
        mode=FloorplanMode.POWER_AWARE,
        config=AnnealConfig(iterations=env_int("REPRO_SA_ITERS", 600), seed=3),
    )
    floorplan = result.floorplan
    bottom = [p for p in floorplan.placements.values() if p.die == 0]
    tx = max(bottom, key=lambda p: p.module.power)
    print(f"transmitter: {tx.name} ({tx.module.power:.2f} W) on die 0")
    print(f"receiver: sensor at the transmitter's location, same die\n")

    sweep = channel_capacity_sweep(
        floorplan, tx.name, tx.center, receiver_die=0,
        bit_periods_s=(0.8, 0.2, 0.05), grid_n=12, seed=4,
    )
    print(f"{'bit period':>12}{'raw bit/s':>12}{'BER':>8}{'effective bit/s':>17}")
    for r in sweep:
        print(f"{r.bit_period_s:>10.3f}s{r.bandwidth_bps:>12.2f}"
              f"{r.bit_error_rate:>8.2f}{r.effective_bps:>17.2f}")
    print("\nthe channel dies as the symbol rate crosses the thermal cutoff —"
          "\nthe 'relatively low bandwidth' TSC limitation of Sec. 2.1")


if __name__ == "__main__":
    main()
