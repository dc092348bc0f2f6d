#!/usr/bin/env python3
"""Voltage volumes in action (Sec. 6.1).

Floorplans a benchmark once, then runs the voltage-volume construction
and both selection objectives on the same layout.  Shows how the
power-aware assignment chases minimum power while the TSC-aware
assignment flattens power densities (at the cost of more volumes and a
little extra power) — the paper's Table 2 contrast.
"""

from repro import FloorplanMode, load_benchmark
from repro.core.config import env_int
from repro.floorplan import AnnealConfig, anneal
from repro.power import AssignmentObjective, assign_voltages
from repro.power.voltages import scaled_power, total_power
from repro.power.volumes import sorted_rank
from repro.timing import TimingGraph


def density_spread(power, area, volts):
    dens = scaled_power(power, volts) / area
    return float(dens.std() / dens.mean())


def main() -> None:
    circuit, stack = load_benchmark("n100")
    result = anneal(
        circuit.modules, stack, circuit.nets, circuit.terminals,
        mode=FloorplanMode.POWER_AWARE,
        config=AnnealConfig(iterations=env_int("REPRO_SA_ITERS", 800), seed=2),
    )
    floorplan = result.floorplan
    print(f"floorplanned n100: feasible={result.feasible}")

    # per-module arrays in placement order, gathered into the sorted-name
    # order voltage assignment works in
    names = list(floorplan.placements)
    x, y, w, h, die, power, delay = floorplan.module_arrays(names)
    timing = TimingGraph(floorplan.compiled_netlist())
    slack = timing.max_delay_inflation(x + w / 2.0, y + h / 2.0, die, delay)
    slack_rich = int((slack >= 1.56).sum())
    print(f"timing: {slack_rich}/{len(slack)} modules have enough slack "
          f"for the 0.8 V option (needs 1.56x delay headroom)\n")

    rank = sorted_rank(names)
    x, y, w, h, die, power, slack = (a[rank] for a in (x, y, w, h, die, power, slack))
    for objective in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
        res = assign_voltages(x, y, w, h, die, rank, power, slack, objective=objective)
        counts = {v: int((res.voltages == v).sum()) for v in (0.8, 1.0, 1.2)}
        print(f"[{objective}]")
        print(f"  voltage volumes: {res.num_volumes}")
        print(f"  modules at 0.8/1.0/1.2 V: {counts[0.8]}/{counts[1.0]}/{counts[1.2]}")
        print(f"  total power: {total_power(power, res.voltages):.2f} W "
              f"(nominal {floorplan.total_power():.2f} W)")
        print(f"  power-density spread (cv): "
              f"{density_spread(power, w * h, res.voltages):.3f}\n")

    print("expected shape (paper Table 2): the TSC-aware assignment uses "
          "notably more volumes (+87% avg) and slightly more power (+5.4% "
          "avg), in exchange for flatter power densities.")


if __name__ == "__main__":
    main()
