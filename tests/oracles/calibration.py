"""The fast model's calibration through a sparse factorization.

``calibrated_thermal_model`` used to fit its masks against a solver from
a private one-entry ``SolverCache``: one SuperLU factorization of the
calibration stack.  That composition is kept here so tests can hold the
fit through :func:`~repro.thermal.steady_state.calibration_solver` (the
spectral backend) to it.
"""

from __future__ import annotations

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal import fast
from repro.thermal.fast import FastThermalModel
from repro.thermal.steady_state import SolverCache


def calibrated_thermal_model_factorized(stack: StackConfig, grid: GridSpec) -> FastThermalModel:
    solver = SolverCache(maxsize=1).solver(stack, grid)
    return fast.calibrate(solver, grid, num_dies=stack.num_dies)
