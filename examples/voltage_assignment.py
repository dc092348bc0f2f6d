#!/usr/bin/env python3
"""Voltage volumes in action (Sec. 6.1).

Floorplans a benchmark once, then runs the voltage-volume construction
and both selection objectives on the same layout.  Shows how the
power-aware assignment chases minimum power while the TSC-aware
assignment flattens power densities (at the cost of more volumes and a
little extra power) — the paper's Table 2 contrast.
"""

import numpy as np

from repro import FloorplanMode, load_benchmark
from repro.core.config import env_int
from repro.floorplan import AnnealConfig, anneal
from repro.power import AssignmentObjective, assign_voltages
from repro.power.voltages import power_scale_for
from repro.timing import TimingGraph


def density_spread(floorplan, voltages):
    dens = []
    for name, p in floorplan.placements.items():
        area = p.width * p.height
        dens.append(p.module.power * power_scale_for(voltages[name]) / area)
    dens = np.asarray(dens)
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

    timing = TimingGraph(floorplan.compiled_netlist())
    inflation = timing.max_delay_inflation(floorplan)
    slack_rich = sum(1 for v in inflation.values() if v >= 1.56)
    print(f"timing: {slack_rich}/{len(inflation)} modules have enough slack "
          f"for the 0.8 V option (needs 1.56x delay headroom)\n")

    for objective in (AssignmentObjective.POWER_AWARE, AssignmentObjective.TSC_AWARE):
        res = assign_voltages(floorplan, inflation, objective=objective)
        counts = {v: 0 for v in (0.8, 1.0, 1.2)}
        for v in res.voltages.values():
            counts[v] = counts.get(v, 0) + 1
        print(f"[{objective}]")
        print(f"  voltage volumes: {res.num_volumes}")
        print(f"  modules at 0.8/1.0/1.2 V: {counts.get(0.8, 0)}/"
              f"{counts.get(1.0, 0)}/{counts.get(1.2, 0)}")
        print(f"  total power: {res.power_w(floorplan):.2f} W "
              f"(nominal {floorplan.total_power():.2f} W)")
        print(f"  power-density spread (cv): {density_spread(floorplan, res.voltages):.3f}\n")

    print("expected shape (paper Table 2): the TSC-aware assignment uses "
          "notably more volumes (+87% avg) and slightly more power (+5.4% "
          "avg), in exchange for flatter power densities.")


if __name__ == "__main__":
    main()
