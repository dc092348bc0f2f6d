#!/usr/bin/env python3
"""Thermal side-channel attacks against PA vs. TSC floorplans (Sec. 5).

Floorplans a small benchmark twice — power-aware and TSC-aware — then
runs both attacks of the paper against each design:

1. *thermal characterization*: the attacker fits a linear thermal model
   from input patterns to sensor readings (score: predictive R^2);
2. *localization & monitoring*: the attacker localizes a target module
   from differential thermal maps, then monitors its activity at the
   estimated position (scores: localization error, monitoring Pearson r).

The TSC-aware design should degrade all three attacker scores.
"""

from repro import FlowConfig, FloorplanMode, load_benchmark, run_flow
from repro.attacks import InputActivityModel, SensorGrid, ThermalDevice, characterize
from repro.attacks.localization import localize_module, monitor_module
from repro.core.config import env_int
from repro.floorplan import AnnealConfig
from repro.layout.grid import GridSpec


def attack_scores(floorplan, seed=0):
    grid = GridSpec(floorplan.stack.outline, 24, 24)
    model = InputActivityModel(sorted(floorplan.placements), num_bits=24,
                               fanin=3, seed=seed)
    # a realistic sensor array: the mitigation's job is to push the
    # leakage signal below the sensor noise floor (ideal sensors make the
    # paper's strong attacker succeed against any design)
    sensors = SensorGrid(rows=12, cols=12, noise_sigma=0.25, seed=seed)
    device = ThermalDevice(floorplan, grid, activity_model=model,
                           sensors=sensors)

    char = characterize(device, train_patterns=40, test_patterns=12, seed=seed)

    # target: the hottest module on the bottom die that an input drives
    driven = {m for bit in range(device.num_bits)
              for m in device.activity_model.bit_drives(bit)}
    bottom = [
        p for p in floorplan.placements.values()
        if p.die == 0 and p.name in driven
    ]
    target = max(bottom, key=lambda p: p.module.power).name
    loc = localize_module(device, target, trials=5, seed=seed)
    fidelity = monitor_module(device, target, loc.estimate_xy, steps=20, seed=seed)
    return char.r2, loc, fidelity, target


def noise_floor_sweep(floorplan, seed=0):
    """Characterization R^2 vs. sensor noise: how good must the
    attacker's sensors be?  The TSC design should force a lower noise
    floor (less leakage-signal margin)."""
    grid = GridSpec(floorplan.stack.outline, 24, 24)
    model = InputActivityModel(sorted(floorplan.placements), num_bits=24,
                               fanin=3, seed=seed)
    out = []
    for noise in (0.5, 2.0, 8.0):
        sensors = SensorGrid(rows=12, cols=12, noise_sigma=noise, seed=seed)
        device = ThermalDevice(floorplan, grid, activity_model=model,
                               sensors=sensors)
        r2 = characterize(device, train_patterns=32,
                          test_patterns=10, seed=seed).r2
        out.append((noise, r2))
    return out


def main() -> None:
    bench = "n100"
    iterations = env_int("REPRO_SA_ITERS", 1000)
    circuit, stack = load_benchmark(bench)

    for mode in (FloorplanMode.POWER_AWARE, FloorplanMode.TSC_AWARE):
        config = FlowConfig(
            mode=mode,
            anneal=AnnealConfig(iterations=iterations, seed=7),
            verify_nx=24, verify_ny=24,
        )
        outcome = run_flow(circuit, stack, config)
        r2, loc, fidelity, target = attack_scores(outcome.floorplan, seed=3)
        print(f"[{mode}]")
        print(f"  characterization attack: model R^2 = {r2:.3f} "
              f"({'usable' if r2 >= 0.5 else 'degraded'} thermal model)")
        print(f"  localization of {target!r}: error = "
              f"{100 * loc.normalized_error:.1f}% of die diagonal, hit={loc.hit}")
        print(f"  monitoring fidelity at estimated location: r = {fidelity:.3f}")
        sweep = noise_floor_sweep(outcome.floorplan, seed=3)
        levels = "  ".join(f"sigma={n:g}K: R2={r:.2f}" for n, r in sweep)
        print(f"  noise-floor sweep: {levels}\n")

    print("note: under the paper's strongest attacker (ideal sensors,\n"
          "stabilized activity) both designs remain characterizable — the\n"
          "mitigation raises the attacker's required sensor quality and\n"
          "lowers the power-temperature correlation (the paper's metric),\n"
          "it is not a hard guarantee.")


if __name__ == "__main__":
    main()
