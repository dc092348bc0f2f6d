"""Multi-objective cost evaluation for the annealing loop.

Reproduces the paper's two setups (Sec. 7):

* **Power-aware (PA)**: optimize packing density, wirelength, critical
  delay, peak temperature, and voltage assignment (min power, min number
  of volumes) — "all criteria weighted equally".
* **TSC-aware**: everything above, plus minimize the average power-thermal
  correlation (Eq. 1) and the average spatial entropy (Eq. 3); the voltage
  assignment switches to the gradient-flattening objective.

Cost terms are normalized by scales sampled from random perturbations of
the initial solution, then combined as a weighted sum — the standard
multi-objective annealing recipe Corblivar uses.  Expensive terms
(timing, thermal, leakage, voltage assignment) refresh on a fixed
cadence (:data:`TIMING_EVERY`, :data:`THERMAL_EVERY` and
:data:`ASSIGNMENT_EVERY` evaluations); the cheap terms (outline fit,
wirelength) are exact every iteration via a fully vectorized netlist
evaluation.  One :class:`~repro.layout.net.CompiledNetlist`, compiled
once per evaluator, serves the wirelength and the timing graph's Elmore
delays; its module order is the state's module index.  Every evaluation
packs through :meth:`LayoutState.pack`, and every term reads its corner
arrays beside the state's own die and size arrays.  The slow terms add
per-module constants compiled once per evaluator: each thermal refresh
rasterizes every die's power map afresh and solves the TSV-free stack
exactly (:class:`~repro.thermal.fast.FastThermalModel`), timing runs on
the same centres, and a voltage-assignment refresh gathers the same
arrays into sorted-name order; no refresh realizes a
:class:`~repro.layout.floorplan.Floorplan3D`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..layout.die import StackConfig
from ..layout.grid import GridSpec, rasterize_rects
from ..layout.net import CompiledNetlist, Net, Terminal
from ..leakage.entropy import spatial_entropy
from ..leakage.pearson import die_correlation
from ..power.assignment import AssignmentObjective, VoltageAssignment, assign_voltages
from ..power.voltages import scaled_delay, scaled_power, total_power
from ..power.volumes import sorted_rank
from ..thermal.fast import FastThermalModel
from ..timing.paths import TimingGraph
from .seqpair import LayoutState, keeps_nominal_size

__all__ = [
    "ObjectiveWeights",
    "CostBreakdown",
    "CostEvaluator",
    "FloorplanMode",
    "INLOOP_VOLUME_SIZE",
]

#: voltage-volume growth bound of the in-loop assignment refreshes (the
#: final full-size assignment grows to ``FINAL_VOLUME_SIZE`` in the flow)
INLOOP_VOLUME_SIZE = 16

#: evaluations between refreshes of the slow terms: timing, thermal and
#: leakage (the exact TSV-free solve, entropy and correlation), and the
#: in-loop voltage assignment; a forced full evaluation refreshes all
#: three at once
TIMING_EVERY = 10
THERMAL_EVERY = 5
ASSIGNMENT_EVERY = 50


#: fast-thermal models, memoized per (stack, grid) — repeated flow runs
#: over the same benchmark in one process (sweep workers, batches) build
#: each once
_CALIBRATED_MODELS: Dict[Tuple[StackConfig, GridSpec], FastThermalModel] = {}
#: serializes the memo's check-then-fill: service jobs run flows on
#: executor threads, and two cold jobs on one stack must build once
_CALIBRATION_LOCK = threading.Lock()


def calibrated_thermal_model(stack: StackConfig, grid: GridSpec) -> FastThermalModel:
    """Build (or reuse) the in-loop thermal model of this stack and grid.

    The model solves the TSV-free stack exactly through its homogenized
    stack: no sparse factorization, and nothing left in the process-wide
    solver cache.
    """
    key = (stack, grid)
    with _CALIBRATION_LOCK:
        model = _CALIBRATED_MODELS.get(key)
        if model is None:
            model = FastThermalModel(stack, grid)
            _CALIBRATED_MODELS[key] = model
    return model


class FloorplanMode:
    """The two experimental setups of Sec. 7."""

    #: each setup assigns voltages by the objective of the same tag
    POWER_AWARE = AssignmentObjective.POWER_AWARE
    TSC_AWARE = AssignmentObjective.TSC_AWARE
    #: both setups, in Table 2 order
    ALL = (POWER_AWARE, TSC_AWARE)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative weights of the normalized cost terms.

    The paper weights all classical criteria equally; the TSC setup adds
    the two leakage terms, also at unit weight.  ``outline`` is the
    fixed-outline feasibility pressure and intentionally dominates.
    """

    area: float = 1.0
    wirelength: float = 1.0
    delay: float = 1.0
    temperature: float = 1.0
    power: float = 1.0
    volumes: float = 1.0
    correlation: float = 0.0
    entropy: float = 0.0
    die_assignment: float = 0.5
    outline: float = 8.0

    @staticmethod
    def for_mode(mode: str) -> "ObjectiveWeights":
        if mode == FloorplanMode.POWER_AWARE:
            return ObjectiveWeights()
        if mode == FloorplanMode.TSC_AWARE:
            return ObjectiveWeights(correlation=1.0, entropy=1.0)
        raise ValueError(f"unknown floorplanning mode {mode!r}")


@dataclass
class CostBreakdown:
    """Raw (unnormalized) cost terms of one layout evaluation."""

    area: float = 0.0
    wirelength: float = 0.0
    delay: float = 0.0
    temperature: float = 0.0
    power: float = 0.0
    volumes: float = 0.0
    correlation: float = 0.0
    entropy: float = 0.0
    die_assignment: float = 0.0
    outline: float = 0.0
    #: auxiliary observations, not part of the cost
    tsv_crossings: int = 0

    _FIELDS = (
        "area",
        "wirelength",
        "delay",
        "temperature",
        "power",
        "volumes",
        "correlation",
        "entropy",
        "die_assignment",
        "outline",
    )

    def total(self, weights: ObjectiveWeights, scales: Mapping[str, float]) -> float:
        out = 0.0
        for name in self._FIELDS:
            w = getattr(weights, name)
            if w == 0.0:
                continue
            scale = scales.get(name, 1.0)
            out += w * getattr(self, name) / (scale if scale > 0 else 1.0)
        return out


@dataclass
class _ExpensiveCache:
    """Last computed values of the slow cost terms."""

    delay: float = 0.0
    temperature: float = 0.0
    power: float = 0.0
    volumes: float = 0.0
    correlation: float = 0.0
    entropy: float = 0.0
    assignment: Optional[VoltageAssignment] = None
    #: per-module watts and delays at the assignment's voltages (1.0 V
    #: before any assignment), module-index order; ``None``: not derived
    #: since the last assignment
    watts: Optional[np.ndarray] = None
    delays: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _ModuleArrays:
    """Per-module constants in module-index order, compiled once per
    evaluator and never written."""

    power: np.ndarray
    delay: np.ndarray
    soft: np.ndarray
    width: np.ndarray
    height: np.ndarray
    #: module indices in sorted-name order, the index space of voltage
    #: assignment (:mod:`repro.power.volumes`)
    rank: np.ndarray

    def realized_sizes(self, w: np.ndarray, h: np.ndarray):
        """The footprint ``realize_with_positions`` gives packed sizes
        (a soft module it keeps at its nominal size can move its centre
        by an ulp)."""
        nominal = self.soft & keeps_nominal_size(w, h, self.width, self.height)
        return np.where(nominal, self.width, w), np.where(nominal, self.height, h)


@dataclass
class _Snapshot:
    """Packed corners and cheap cost terms of one evaluated layout.

    Built from scratch for every evaluation, so a score depends only on
    the state it was given, never on what was evaluated before it.
    ``x``/``y`` are the lower-left corners :meth:`LayoutState.pack`
    wrote; the sizes and dies are the state's own arrays.
    """

    x: np.ndarray
    y: np.ndarray
    wirelength: float
    tsv_crossings: int
    outline: float
    area: float
    die_assignment: float


class CostEvaluator:
    """Scores :class:`LayoutState` objects for the annealer."""

    def __init__(
        self,
        stack: StackConfig,
        nets: Sequence[Net],
        terminals: Mapping[str, Terminal],
        mode: str = FloorplanMode.POWER_AWARE,
        grid_nx: int = 32,
        grid_ny: int = 32,
    ) -> None:
        self.stack = stack
        self.mode = mode
        self.weights = ObjectiveWeights.for_mode(mode)
        self.grid = GridSpec(stack.outline, grid_nx, grid_ny)
        self.thermal = calibrated_thermal_model(stack, self.grid)
        self.terminals = dict(terminals)
        self.nets = tuple(nets)
        self._netlist: Optional[CompiledNetlist] = None
        self._modules: Optional[_ModuleArrays] = None
        self._timing: Optional[TimingGraph] = None
        self._cache = _ExpensiveCache()
        self._scales: Dict[str, float] = {}
        self._iteration = 0
        self._total_nominal_power: Optional[float] = None

    # -- plumbing ---------------------------------------------------------------
    def compiled_netlist(self, state: LayoutState) -> CompiledNetlist:
        """The scored nets compiled over ``state``'s module names, once."""
        if self._netlist is None:
            self._netlist = CompiledNetlist(list(state.modules), self.nets, self.terminals)
        return self._netlist

    def _module_arrays(self, state: LayoutState) -> _ModuleArrays:
        if self._modules is None:
            names = self.compiled_netlist(state).module_names
            mods = [state.modules[n] for n in names]

            def array(values, dtype=float):
                out = np.array(values, dtype=dtype)
                out.setflags(write=False)
                return out

            self._modules = _ModuleArrays(
                power=array([m.power for m in mods]),
                delay=array([m.intrinsic_delay for m in mods]),
                soft=array([m.is_soft for m in mods], dtype=bool),
                width=array([m.width for m in mods]),
                height=array([m.height for m in mods]),
                rank=array(sorted_rank(names), dtype=np.int64),
            )
        return self._modules

    def _timing_graph(self, state: LayoutState) -> TimingGraph:
        if self._timing is None:
            self._timing = TimingGraph(self.compiled_netlist(state))
        return self._timing

    def _total_power(self, state: LayoutState) -> float:
        if self._total_nominal_power is None:
            self._total_nominal_power = (
                sum(m.power for m in state.modules.values()) or 1.0
            )
        return self._total_nominal_power

    # -- snapshot construction ------------------------------------------------------
    def _full_snapshot(self, state: LayoutState) -> "_Snapshot":
        """Pack every die and derive the cheap cost terms from scratch."""
        x, y, extents = state.pack()
        wirelength, tsv_crossings = self.compiled_netlist(state).wirelength(
            x + state.w / 2.0, y + state.h / 2.0, state.die
        )
        outline = self.stack.outline
        over = 0.0
        fill = 0.0
        for w, h in extents:
            over += max(0.0, w / outline.w - 1.0) + max(0.0, h / outline.h - 1.0)
            fill += (min(w, outline.w) / outline.w) * (min(h, outline.h) / outline.h)
        # thermal design rule: pull power toward the heatsink-adjacent die
        power = self._module_arrays(state).power
        top = state.pairs[self.stack.num_dies - 1]
        top_power = float(sum(power[k] for k in top.s1))
        return _Snapshot(
            x=x,
            y=y,
            wirelength=wirelength,
            tsv_crossings=tsv_crossings,
            outline=over,
            area=fill / max(1, len(extents)),
            die_assignment=1.0 - top_power / self._total_power(state),
        )

    # -- term computation ---------------------------------------------------------
    def _refresh_expensive(self, state: LayoutState, snap: "_Snapshot",
                           refresh_assignment: bool, refresh_timing: bool,
                           refresh_thermal: bool) -> None:
        cache = self._cache
        mods = self._module_arrays(state)
        # the realized floorplan's geometry, to the ulp
        w, h = mods.realized_sizes(state.w, state.h)
        cx, cy = snap.x + w / 2.0, snap.y + h / 2.0
        if refresh_assignment:
            # ``rank`` gathers the arrays into sorted-name order; it is also
            # each module's position in the state's (placement) order
            rank = mods.rank
            slack = self._timing_graph(state).max_delay_inflation(
                cx, cy, state.die, mods.delay
            )
            cache.assignment = assign_voltages(
                snap.x[rank], snap.y[rank], w[rank], h[rank], state.die[rank], rank,
                mods.power[rank], slack[rank], objective=self.mode,
                max_volume_size=INLOOP_VOLUME_SIZE,
            )
            cache.watts = None
        if cache.watts is None:
            volts = np.ones(len(mods.power))
            if cache.assignment is not None:
                volts[mods.rank] = cache.assignment.voltages
            volts = volts.tolist()
            cache.watts = scaled_power(mods.power, volts)
            cache.delays = scaled_delay(mods.delay, volts)
            cache.power = total_power(mods.power, volts)
        if refresh_timing:
            timing = self._timing_graph(state)
            net_delays = timing.net_delays(cx, cy, state.die)
            cache.delay = float(timing.through_times(net_delays, cache.delays).max())
        if refresh_thermal:
            maps = []
            for d in range(self.stack.num_dies):
                on = state.die == d
                maps.append(
                    rasterize_rects(
                        cache.watts[on], snap.x[on], snap.y[on], w[on], h[on], self.grid
                    )
                )
            temp_maps = self.thermal.estimate(maps)
            cache.temperature = float(max(t.max() for t in temp_maps))
            if self.weights.correlation > 0.0:
                rs = [
                    abs(die_correlation(p, t)) for p, t in zip(maps, temp_maps)
                ]
                cache.correlation = float(np.mean(rs))
            if self.weights.entropy > 0.0:
                ents = [float(spatial_entropy(m)) for m in maps]
                cache.entropy = float(np.mean(ents))
        cache.volumes = (
            float(cache.assignment.num_volumes) if cache.assignment else 0.0
        )

    # -- public API -----------------------------------------------------------------
    def evaluate(self, state: LayoutState, force_full: bool = False) -> CostBreakdown:
        """Score one state.

        The cheap terms (outline, packing, wirelength, die assignment)
        are computed from scratch on every call; the slow terms (timing,
        thermal and leakage, voltage assignment) refresh on their
        cadence and are reused from the last refresh in between.
        ``force_full`` refreshes timing, thermal and assignment now —
        scale calibration, the chain's starting state and the final
        score of the best state use it.
        """
        self._iteration += 1
        it = self._iteration
        refresh_timing = force_full or (it % TIMING_EVERY == 0)
        refresh_thermal = force_full or (it % THERMAL_EVERY == 0)
        refresh_assignment = force_full or (it % ASSIGNMENT_EVERY == 0)
        snap = self._full_snapshot(state)
        bd = CostBreakdown(
            area=snap.area,
            wirelength=snap.wirelength,
            die_assignment=snap.die_assignment,
            outline=snap.outline,
            tsv_crossings=snap.tsv_crossings,
        )
        if refresh_timing or refresh_thermal or refresh_assignment:
            self._refresh_expensive(
                state, snap, refresh_assignment, refresh_timing, refresh_thermal
            )
        cache = self._cache
        bd.delay = cache.delay
        bd.temperature = cache.temperature
        bd.power = cache.power
        bd.volumes = cache.volumes
        bd.correlation = cache.correlation
        bd.entropy = cache.entropy
        return bd

    def calibrate_scales(
        self, state: LayoutState, rng: np.random.Generator, samples: int = 24
    ) -> Dict[str, float]:
        """Sample random perturbations to set per-term normalization."""
        from .moves import apply_random_move

        acc: Dict[str, List[float]] = {name: [] for name in CostBreakdown._FIELDS}
        probe = state.copy()
        for _ in range(samples):
            apply_random_move(probe, rng)
            bd = self.evaluate(probe, force_full=True)
            for name in CostBreakdown._FIELDS:
                acc[name].append(abs(getattr(bd, name)))
        self._scales = {
            name: (float(np.mean(vals)) if np.mean(vals) > 0 else 1.0)
            for name, vals in acc.items()
        }
        # outline violations are a *penalty*, normalized to O(1) directly
        self._scales["outline"] = 1.0
        self._iteration = 0
        return dict(self._scales)

    def set_scales(self, scales: Mapping[str, float]) -> Dict[str, float]:
        """Adopt externally calibrated normalization scales.

        Replica-exchange annealing needs all replicas' costs on one
        scale, so one chain calibrates and the rest adopt its result
        here instead of sampling their own.
        """
        self._scales = dict(scales)
        self._iteration = 0
        return dict(self._scales)

    @property
    def scales(self) -> Dict[str, float]:
        return dict(self._scales)

    def total_cost(self, bd: CostBreakdown) -> float:
        return bd.total(self.weights, self._scales or {})
