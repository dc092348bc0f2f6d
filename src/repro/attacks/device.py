"""The attacked device: a floorplanned 3D IC with observable thermals.

Wraps a floorplan plus a detailed thermal solver into the interface an
attacker interacts with (Sec. 5): apply input patterns, await the
steady-state responses, read the sensors.  Input patterns map to module
activities through a hidden :class:`InputActivityModel` — the attacker
knows the *inputs* (datasheet-level understanding) but not the
input-to-activity mapping, which is exactly the paper's threat model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from ..thermal.steady_state import default_solver_cache
from .sensors import SensorGrid

__all__ = ["InputActivityModel", "ThermalDevice"]

#: activity factor of a module no asserted bit drives, and the activity
#: each asserted bit that drives it adds
IDLE_ACTIVITY = 0.35
BIT_SWING = 1.0


@dataclass
class InputActivityModel:
    """Hidden mapping from input-pattern bits to module activity factors.

    Each input bit drives a random subset of modules: asserting bit k
    raises the activity of its fan-in modules by :data:`BIT_SWING`;
    deasserted bits leave modules at idle activity.  Modules not driven
    by any bit idle at :data:`IDLE_ACTIVITY`.  This realizes
    "purposefully crafting input patterns to trigger certain activities"
    in a controlled, simulatable way.
    """

    module_names: Sequence[str]
    num_bits: int = 16
    fanin: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        names = list(self.module_names)
        self._drives: List[List[str]] = []
        for _ in range(self.num_bits):
            take = min(self.fanin, len(names))
            idx = rng.choice(len(names), size=take, replace=False)
            self._drives.append([names[i] for i in idx])

    def bit_drives(self, bit: int) -> List[str]:
        """Modules activated by one input bit (hidden from the attacker)."""
        return list(self._drives[bit])

    def activity(self, pattern: Sequence[int]) -> Dict[str, float]:
        """Per-module activity factors for a 0/1 input pattern.

        Activity is additive over asserted bits: a module driven by two
        asserted inputs switches roughly twice as much as one driven by a
        single input, keeping the device linear in the pattern bits.
        """
        if len(pattern) != self.num_bits:
            raise ValueError(f"pattern must have {self.num_bits} bits")
        act = {name: IDLE_ACTIVITY for name in self.module_names}
        for bit, value in enumerate(pattern):
            if value:
                for name in self._drives[bit]:
                    act[name] += BIT_SWING
        return act


class ThermalDevice:
    """A 3D IC under thermal observation.

    The steady-state solver is factorized once (the TSV arrangement is
    fixed at attack time); a batch of input patterns costs one batched
    back-substitution, matching the attacker's "await the steady state"
    capability.
    """

    def __init__(
        self,
        floorplan: Floorplan3D,
        grid: GridSpec | None = None,
        activity_model: InputActivityModel | None = None,
        sensors: SensorGrid | None = None,
    ) -> None:
        self.floorplan = floorplan
        self.grid = grid or GridSpec(floorplan.stack.outline, 32, 32)
        # the shared density plumbing keys the stack by *every* adjacent
        # interface's TSVs — building from the (0, 1) density alone would
        # silently drop upper interfaces on num_dies > 2 device models
        self.solver = default_solver_cache().solver_for_floorplan(floorplan, self.grid)
        self.activity_model = activity_model or InputActivityModel(
            sorted(floorplan.placements)
        )
        self.sensors = sensors or SensorGrid.ideal(self.grid.shape)

    @property
    def num_bits(self) -> int:
        return self.activity_model.num_bits

    def respond_many(self, patterns: Sequence[Sequence[int]]) -> List[List[np.ndarray]]:
        """True steady-state die maps for each input pattern, all from one
        :meth:`~repro.thermal.steady_state.SteadyStateSolver.solve_many`."""
        dies = range(self.floorplan.stack.num_dies)
        power_map_sets = [
            [self.floorplan.power_map(d, self.grid, activity=activity) for d in dies]
            for activity in map(self.activity_model.activity, patterns)
        ]
        return [result.die_maps for result in self.solver.solve_many(power_map_sets)]

    def observe_many(self, patterns: Sequence[Sequence[int]], die: int = 0) -> np.ndarray:
        """What the attacker sees: the sensor-read (and interpolated) map
        of ``die`` for each pattern, shape (patterns, ny, nx).  Sensors
        are read in pattern order."""
        return np.stack(
            [self.sensors.estimate_map(maps[die]) for maps in self.respond_many(patterns)]
        )

