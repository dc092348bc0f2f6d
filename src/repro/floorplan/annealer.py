"""Simulated-annealing floorplanning engine (Corblivar's role, Fig. 3).

The loop is the classical adaptive SA over the layout representation:
calibrate cost scales from random perturbations, pick an initial
temperature from the observed uphill deltas, then cool geometrically while
accepting worse solutions with Metropolis probability.  The best
*feasible* (fixed-outline-respecting) solution is memorized and becomes
the result; in the TSC setup its cost already carries the leakage terms.

The loop itself lives in :class:`AnnealChain`, a resumable step API: one
chain object carries the complete Metropolis state (layout, evaluator
with its slow-term cache, temperature, RNG, best-so-far tracking) and
advances any number of moves at a time.  :func:`anneal` is the
single-chain driver — chain construction, one :meth:`AnnealChain.run`
over the full budget, then :meth:`AnnealChain.finalize` — and is
bit-identical to the historical monolithic loop for a given seed.
Chains pickle cleanly, which is what the parallel-tempering layer
(:mod:`repro.floorplan.tempering`) builds on: replicas travel to worker
processes between exchange rounds with their whole state, so results
cannot depend on worker scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Sequence

import numpy as np

from ..layout.die import StackConfig
from ..layout.floorplan import Floorplan3D
from ..layout.module import Module
from ..layout.net import CompiledNetlist, Net, Terminal
from ..timing.delay_model import ensure_intrinsic_delays
from .moves import apply_random_move
from .objectives import CostBreakdown, CostEvaluator, FloorplanMode
from .seqpair import LayoutState

__all__ = [
    "AnnealChain",
    "AnnealConfig",
    "AnnealResult",
    "anneal",
]

#: lower bound for the starting temperature: degenerate probe runs (all
#: deltas ~0, or an acceptance target that rounds log() into underflow)
#: must not freeze the chain at T=0 or launch it at T=inf
TEMPERATURE_FLOOR = 1e-9

#: the geometric cooling schedule: moves per temperature step, the factor
#: each step multiplies the temperature by, and the probability with
#: which the starting temperature accepts the mean uphill probe delta
MOVES_PER_TEMPERATURE = 60
COOLING = 0.93
INITIAL_ACCEPTANCE = 0.5


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing budget, in-loop grid and scale calibration.

    Defaults are sized for the Python engine; the paper's C++ Corblivar
    runs far more iterations.  All experiment harnesses expose
    ``REPRO_SA_ITERS`` to scale ``iterations`` up or down.
    """

    iterations: int = 3000
    seed: int = 0
    grid_nx: int = 32
    grid_ny: int = 32
    calibration_samples: int = 24

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if min(self.grid_nx, self.grid_ny) < 1 or self.grid_nx * self.grid_ny < 2:
            raise ValueError(
                f"the anneal grid needs at least two cells (got "
                f"{self.grid_nx}x{self.grid_ny}): the in-loop power-temperature "
                "correlation is undefined on one"
            )


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    state: LayoutState
    floorplan: Floorplan3D
    #: ``floorplan``'s nets compiled over its module names
    netlist: CompiledNetlist
    cost: float
    breakdown: CostBreakdown
    feasible: bool
    iterations: int
    accepted: int
    runtime_s: float
    history: List[float] = field(default_factory=list)
    #: replica-exchange provenance (1 / 0 / 0 for a plain single chain)
    replicas: int = 1
    exchange_attempts: int = 0
    exchange_accepts: int = 0


def _initial_temperature(deltas: Sequence[float], accept: float) -> float:
    """Temperature making the mean uphill delta accepted with prob ``accept``.

    Degenerate inputs are clamped rather than propagated: an ``accept``
    so close to 1.0 that ``log`` underflows toward 0 would return ``inf``
    (every later Metropolis test then accepts, i.e. a random walk), and
    all-zero probe deltas would return a subnormal temperature that
    freezes the chain; both land on :data:`TEMPERATURE_FLOOR` instead.
    """
    ups = [d for d in deltas if d > 0]
    if not ups:
        return 1.0
    accept = min(max(accept, 1e-12), 1.0 - 1e-12)
    t = float(-np.mean(ups) / math.log(accept))
    if not math.isfinite(t):
        return TEMPERATURE_FLOOR
    return max(t, TEMPERATURE_FLOOR)


class AnnealChain:
    """One resumable Metropolis chain over :class:`LayoutState`.

    All loop state is explicit instance state, so a chain can be advanced
    in slices (:meth:`run`), pickled to another process mid-run, and
    finished anywhere (:meth:`finalize`).  Driving a fresh chain straight
    through ``config.iterations`` moves reproduces the historical
    ``anneal()`` loop bit for bit — the tests pin
    :func:`anneal`/:func:`~repro.floorplan.tempering.temper` equivalence
    on exactly that property.
    """

    def __init__(
        self,
        state: LayoutState,
        evaluator: CostEvaluator,
        config: AnnealConfig,
        rng: np.random.Generator,
        nets: Sequence[Net],
        terminals: Mapping[str, Terminal],
        temperature: float,
        initial_temperature: float,
        current_cost: float,
        current_bd: CostBreakdown,
        elapsed_s: float = 0.0,
    ) -> None:
        self.state = state
        self.evaluator = evaluator
        self.config = config
        self.rng = rng
        self.nets = tuple(nets)
        self.terminals = dict(terminals)
        self.temperature = temperature
        #: the probe-derived pre-ladder temperature; the tempering layer
        #: reads it off replica 0 to place the other rungs
        self.initial_temperature = initial_temperature
        self.current_cost = current_cost
        self.current_bd = current_bd
        self.elapsed_s = elapsed_s

        self.best_state = state.copy()
        self.best_cost = current_cost
        self.best_bd = current_bd
        self.best_feasible = current_bd.outline <= 1e-9
        self.best_violation = current_bd.outline

        self.accepted = 0
        self.history: List[float] = []
        self.moves_at_t = 0
        self.iteration = 0
        self.push_at = int(config.iterations * 0.8)
        self.original_weights = evaluator.weights
        self._boosted = False

    # -- construction --------------------------------------------------------
    @staticmethod
    def start(
        modules: Mapping[str, Module],
        stack: StackConfig,
        nets: Sequence[Net] = (),
        terminals: Mapping[str, Terminal] | None = None,
        mode: str = FloorplanMode.POWER_AWARE,
        config: AnnealConfig | None = None,
        rng: np.random.Generator | None = None,
        scales: Mapping[str, float] | None = None,
        temperature: float | None = None,
        temperature_scale: float = 1.0,
    ) -> "AnnealChain":
        """Build a chain: initial state, scale calibration, starting T.

        With only the legacy arguments this performs exactly the setup the
        historical ``anneal()`` did, in the same RNG order.  The tempering
        layer passes the extras: ``rng`` (a spawned per-replica stream),
        ``scales`` (shared normalization so replica energies are
        comparable — skips this chain's own calibration), ``temperature``
        (skips the probe loop; replicas above the ladder's first rung
        reuse rung 0's probe result), and ``temperature_scale`` (the
        geometric ladder factor for this rung).
        """
        config = config or AnnealConfig()
        terminals = dict(terminals or {})
        modules = ensure_intrinsic_delays(modules)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        t_start = time.perf_counter()

        evaluator = CostEvaluator(
            stack,
            nets,
            terminals,
            mode=mode,
            grid_nx=config.grid_nx,
            grid_ny=config.grid_ny,
        )

        state = LayoutState.initial(modules, stack, rng)
        if scales is None:
            evaluator.calibrate_scales(state, rng, samples=config.calibration_samples)
        else:
            evaluator.set_scales(scales)

        current_bd = evaluator.evaluate(state, force_full=True)
        current_cost = evaluator.total_cost(current_bd)

        if temperature is None:
            # probe deltas for the starting temperature, scored on copies
            # of the starting state
            probe_deltas: List[float] = []
            probe = state.copy()
            for _ in range(min(20, config.calibration_samples)):
                cand = probe.copy()
                apply_random_move(cand, rng)
                bd = evaluator.evaluate(cand)
                probe_deltas.append(evaluator.total_cost(bd) - current_cost)
            temperature = _initial_temperature(probe_deltas, INITIAL_ACCEPTANCE)
        return AnnealChain(
            state=state,
            evaluator=evaluator,
            config=config,
            rng=rng,
            nets=nets,
            terminals=terminals,
            temperature=temperature * temperature_scale,
            initial_temperature=temperature,
            current_cost=current_cost,
            current_bd=current_bd,
            elapsed_s=time.perf_counter() - t_start,
        )

    # -- the Metropolis loop -------------------------------------------------
    def step(self) -> None:
        """Advance one move (one historical loop iteration)."""
        evaluator = self.evaluator
        if self.iteration == self.push_at and not self._boosted:
            # compaction phase: boost the fixed-outline pressure so the
            # final solution packs inside the outline
            self._boosted = True
            evaluator.weights = replace(
                self.original_weights, outline=self.original_weights.outline * 6.0
            )
            self.current_cost = evaluator.total_cost(self.current_bd)
            self.best_cost = evaluator.total_cost(self.best_bd)
        candidate = self.state.copy()
        apply_random_move(candidate, self.rng)
        bd = evaluator.evaluate(candidate)
        cost = evaluator.total_cost(bd)
        delta = cost - self.current_cost
        if delta <= 0 or self.rng.random() < math.exp(
            -delta / max(self.temperature, 1e-12)
        ):
            self.state = candidate
            self.current_cost = cost
            self.current_bd = bd
            self.accepted += 1
            feasible = bd.outline <= 1e-9
            improved = (
                (feasible and not self.best_feasible)
                or (feasible == self.best_feasible and cost < self.best_cost)
                or (
                    not feasible
                    and not self.best_feasible
                    and bd.outline < self.best_violation
                )
            )
            if improved:
                self.best_state = self.state.copy()
                self.best_cost = cost
                self.best_bd = bd
                self.best_feasible = feasible
                self.best_violation = bd.outline
        self.history.append(self.current_cost)
        self.iteration += 1
        self.moves_at_t += 1
        if self.moves_at_t >= MOVES_PER_TEMPERATURE:
            self.temperature *= COOLING
            self.moves_at_t = 0

    def run(self, moves: int) -> "AnnealChain":
        """Advance ``moves`` iterations; returns ``self`` (pool-friendly)."""
        t0 = time.perf_counter()
        for _ in range(moves):
            self.step()
        self.elapsed_s += time.perf_counter() - t0
        return self

    # -- finishing -----------------------------------------------------------
    def finalize(self) -> AnnealResult:
        """Score the best state under the *original* weights and report.

        The compaction phase deliberately boosts the outline weight
        in-loop; the reported cost must not inherit that boost, or runs
        would not be comparable across configs (and a tempering
        coordinator could not rank replica results) — so the weights are
        restored *before* the final full evaluation.
        """
        t0 = time.perf_counter()
        evaluator = self.evaluator
        evaluator.weights = self.original_weights
        final_bd = evaluator.evaluate(self.best_state, force_full=True)
        final_cost = evaluator.total_cost(final_bd)
        # the evaluator scored these nets over the same module order the
        # realized placements take, so its netlist places the signal TSVs
        netlist = evaluator.compiled_netlist(self.best_state)
        floorplan = self.best_state.realize(self.nets, self.terminals, place_tsvs=False)
        floorplan.place_signal_tsvs(netlist)
        self.elapsed_s += time.perf_counter() - t0
        return AnnealResult(
            state=self.best_state,
            floorplan=floorplan,
            netlist=netlist,
            cost=final_cost,
            breakdown=final_bd,
            feasible=final_bd.outline <= 1e-9,
            iterations=self.iteration,
            accepted=self.accepted,
            runtime_s=self.elapsed_s,
            history=self.history,
        )


def anneal(
    modules: Mapping[str, Module],
    stack: StackConfig,
    nets: Sequence[Net] = (),
    terminals: Mapping[str, Terminal] | None = None,
    mode: str = FloorplanMode.POWER_AWARE,
    config: AnnealConfig | None = None,
) -> AnnealResult:
    """Floorplan ``modules`` onto ``stack`` in the given mode.

    Returns the best feasible solution found (falling back to the
    least-violating one when the outline was never met — callers should
    check ``result.feasible``).  This is the single-chain driver over
    :class:`AnnealChain`; for multi-replica search see
    :func:`repro.floorplan.tempering.temper`.
    """
    config = config or AnnealConfig()
    chain = AnnealChain.start(
        modules,
        stack,
        nets=nets,
        terminals=terminals,
        mode=mode,
        config=config,
    )
    chain.run(config.iterations)
    return chain.finalize()
