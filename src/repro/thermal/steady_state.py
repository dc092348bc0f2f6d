"""Steady-state thermal solver (the detailed, HotSpot-role analysis).

Solves ``G T = q + B * T_amb`` for the nodal temperatures of the full 3D
RC network.  Two levels of reuse keep repeated analyses cheap:

* :class:`SteadyStateSolver` caches the factorization of one stack, and
  :meth:`SteadyStateSolver.solve_many` pushes a whole batch of power-map
  sets through that single factorization (the Gaussian activity sampling
  of Sec. 6.2 runs 100 solves — substituted in blocks of up to 40
  columns by the backend's ``solve_block``);
* :class:`SolverCache` memoizes whole solvers keyed by (grid shape, stack
  configuration, TSV-density digest, factorization backend), so flow
  runs, verification, exploration studies, and the mitigation loop stop
  re-assembling and re-factorizing identical networks.

:class:`WoodburySolver` solves a *locally perturbed* stack through the
unperturbed stack's factorization via the Sherman–Morrison–Woodbury
identity.  It is opt-in (``MitigationConfig.incremental=True``,
``run_exploration(incremental=True)``) and slated for deletion: with
symmetric-mode factorizations, refactorizing each candidate measured
faster end to end.

*How* a system is factored lives one layer down, behind the
:mod:`~repro.thermal.backends` protocol (direct ``band`` Cholesky, or
iterative ``spectral`` for few right-hand sides and large grids, picked
by that package's size rule): this module never factors a matrix
itself, and the Woodbury-base decision reads the factorization's
``supports_woodbury_base`` capability field.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.linalg

from ..core.faults import fault_fires, record_degradation
from ..layout.die import StackConfig
from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from .backends import FactorHints, resolve_backend
from .rc_network import LowRankUpdate, ThermalNetwork, assemble, low_rank_update
from .stack import (
    ThermalStack,
    TopologyConfig,
    build_stack,
    is_interposer,
    layer_shape,
    normalize_tsv_densities,
)

__all__ = [
    "SteadyStateSolver",
    "WoodburySolver",
    "SolverCache",
    "ThermalResult",
    "default_solver_cache",
    "woodbury_crossover_rank",
]


@dataclass
class ThermalResult:
    """Temperatures of interest from one steady-state solve."""

    #: per-die active-layer temperature maps in K, shape (ny, nx)
    die_maps: List[np.ndarray]
    #: full nodal temperature vector (layer-major)
    nodal: np.ndarray

    @property
    def peak(self) -> float:
        return float(max(m.max() for m in self.die_maps))


def _split_die_maps(stack: ThermalStack, t: np.ndarray) -> List[np.ndarray]:
    """Per-die active-layer temperature maps out of a nodal vector.

    Maps are always die-map shaped: the full grid on a 3D stack, the
    die's site window on a 2.5D interposer stack — so leakage metrics
    stay shape-compatible with the per-die power maps either way.
    """
    grid = stack.grid
    npl = grid.nx * grid.ny
    die_maps: List[np.ndarray] = []
    for layer_idx, die in stack.power_layers():
        block = t[layer_idx * npl : (layer_idx + 1) * npl].reshape(grid.shape)
        die_maps.append(block[stack.site_slice(die)].copy())
    return die_maps


def _rhs_vector(
    network: ThermalNetwork, ambient: float, power_maps: Sequence[np.ndarray]
) -> np.ndarray:
    """The steady-state right-hand side: nodal power + ambient boundary term."""
    return network.power_vector(list(power_maps)) + network.boundary * ambient


def _rhs_matrix(
    network: ThermalNetwork,
    ambient: float,
    power_map_sets: Sequence[Sequence[np.ndarray]],
) -> np.ndarray:
    """All right-hand sides of a batch as one (N, k) column matrix."""
    ambient_q = network.boundary * ambient
    return np.stack(
        [network.power_vector(list(maps)) + ambient_q for maps in power_map_sets],
        axis=1,
    )


def _results_from_columns(stack: ThermalStack, t: np.ndarray) -> List[ThermalResult]:
    """One :class:`ThermalResult` per solution column of a batched solve."""
    return [
        ThermalResult(die_maps=_split_die_maps(stack, t[:, i]), nodal=t[:, i].copy())
        for i in range(t.shape[1])
    ]


#: most power-map sets :meth:`SteadyStateSolver.solve_many` substitutes
#: per tiled block.  A 41-set sweep at 10x32x32 took 48-49 ms in blocks
#: of at most 40 (21 + 20), 50-58 ms of at most 20 and 75-85 ms of at
#: most 8; 40 added 2.6 MiB to the TSC benchmark flow's peak RSS, 20
#: added 1.3 MiB
_BATCH_COLUMNS = 40


class SteadyStateSolver:
    """Factorized steady-state solver bound to one thermal stack.

    ``backend`` is None for the automatic rule of
    :func:`~repro.thermal.backends.resolve_backend`, or a backend
    instance that replaces it (tests substitute oracles this way).
    """

    def __init__(
        self,
        stack: ThermalStack,
        network: ThermalNetwork | None = None,
        backend=None,
    ) -> None:
        self.stack = stack
        self.network: ThermalNetwork = (
            network if network is not None else assemble(stack)
        )
        hints = self.network.factor_hints()
        self.backend = resolve_backend(backend, hints=hints)
        self._fact = self.backend.factor(self.network.conductance, hints=hints)

    @property
    def factorization(self):
        """The backing :class:`~repro.thermal.backends.base.Factorization`."""
        return self._fact

    def _split(self, t: np.ndarray) -> List[np.ndarray]:
        return _split_die_maps(self.stack, t)

    def solve(self, power_maps: Sequence[np.ndarray]) -> ThermalResult:
        """Solve for the given per-die power maps (W per cell)."""
        q = _rhs_vector(self.network, self.stack.ambient, power_maps)
        t = self._fact.solve_block(q)
        return ThermalResult(die_maps=self._split(t), nodal=t)

    def solve_many(
        self, power_map_sets: Sequence[Sequence[np.ndarray]]
    ) -> List[ThermalResult]:
        """Solve a batch of power-map sets against one factorization.

        The right-hand sides are assembled into (N, k) matrices of at
        most :data:`_BATCH_COLUMNS` columns, split evenly (41 sets go as
        21 + 20, not 40 + 1), and each is substituted in one
        :meth:`~repro.thermal.backends.base.Factorization.solve_block`
        call — for the activity sweeps this is far cheaper than one
        solve per sample, and incomparably cheaper than one
        re-factorization per sample — so the batch never holds more than
        one block of right-hand sides and solutions beside its results.
        A set's solution has the same bits in any block.
        """
        sets = list(power_map_sets)
        results: List[ThermalResult] = []
        blocks = -(-len(sets) // _BATCH_COLUMNS)
        for b in range(blocks):
            block = _rhs_matrix(
                self.network,
                self.stack.ambient,
                sets[b * len(sets) // blocks : (b + 1) * len(sets) // blocks],
            )
            results += _results_from_columns(self.stack, self._fact.solve_block(block))
        return results


# Woodbury-vs-refactorize crossover, measured on the reference container
# over the real assembled networks (16x16 .. 64x64 grids) against
# equilibrated-COLAMD SuperLU (not re-measured against the band
# factorization; the path is opt-in): the rank at which the batched
# Z = G⁻¹·U back-substitution costs as much as a fresh factorization
# follows the power law below.  REPRO_WOODBURY_CROSSOVER overrides the
# whole model with a fixed rank.
_CROSSOVER_COEFFICIENT = 3.39
_CROSSOVER_EXPONENT = 0.421
#: fraction of the measured break-even rank at which we still prefer the
#: low-rank path; below 1.0 so a borderline candidate never loses
_CROSSOVER_SAFETY = 0.75


def woodbury_crossover_rank(num_nodes: int) -> int:
    """Largest update rank worth solving via Woodbury at this network size.

    The measured break-even point (see the module constants above) times
    a safety factor.  ``REPRO_WOODBURY_CROSSOVER`` pins an explicit rank
    instead, for experiments and for machines with very different
    factorization/back-substitution cost ratios.
    """
    raw = os.environ.get("REPRO_WOODBURY_CROSSOVER")
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_WOODBURY_CROSSOVER must be an integer, got {raw!r}"
            )
    breakeven = _CROSSOVER_COEFFICIENT * float(num_nodes) ** _CROSSOVER_EXPONENT
    return max(1, int(_CROSSOVER_SAFETY * breakeven))


class WoodburySolver:
    """Steady-state solver for a locally perturbed stack, sans refactorization.

    Given a factorized ``base`` solver for conductance ``G`` and a stack
    whose conductance is ``G' = G + U·C·Uᵀ`` (a dummy-TSV candidate: the
    update touches only the pierced bond/bulk cells, their lateral
    neighbours, and the package-path boundary nodes), solves ``G' T = q``
    via the Sherman–Morrison–Woodbury identity::

        G'⁻¹ q = x₀ − Z · (I + C·W)⁻¹ · C · x₀[S]

    with ``x₀ = G⁻¹ q``, ``Z = G⁻¹·U`` (one *batched* multi-RHS
    back-substitution, like :meth:`SteadyStateSolver.solve_many`), and
    ``W = Z[S]`` the r×r core.  Setup costs ``rank`` back-substitutions
    plus one dense r×r factorization; every solve after that costs one
    base back-substitution plus dense corrections — no factorization of
    ``G'`` ever happens on this path.

    Three guards fall back to a plain full factorization (the behaviour
    is then bit-identical to a fresh :class:`SteadyStateSolver` on the
    base's backend):

    * the base factorization opts out of serving as a Woodbury base
      (``supports_woodbury_base=False`` — iterative backends whose
      approximate solves would compound through the dense core);
    * ``rank > crossover_rank`` — the batched Z solve would cost more
      than refactorizing; the default crossover is *measured*, not
      guessed (:func:`woodbury_crossover_rank`);
    * the probe residual check fails — one deterministic RHS is solved
      through the Woodbury path and verified against ``G'`` directly, so
      an ill-conditioned core (a nearly singular ``I + C·W``) is caught
      by its symptom rather than by a condition-number heuristic.

    ``fallback_reason`` records which guard fired (``None`` on the
    low-rank path); the interface mirrors :class:`SteadyStateSolver`, so
    callers treat both interchangeably.
    """

    def __init__(
        self,
        base: SteadyStateSolver,
        stack: ThermalStack,
        *,
        network: ThermalNetwork | None = None,
        update: LowRankUpdate | None = None,
        crossover_rank: Optional[int] = None,
        residual_tol: float = 1e-8,
        probe: bool = True,
    ) -> None:
        # a Woodbury base would compound correction cost per solve (and
        # per chained round); unwrap to the nearest true factorization —
        # the update below is recomputed against *that* network, so
        # correctness is unaffected
        while isinstance(base, WoodburySolver):
            base = base._full if base._full is not None else base.base
        self.base = base
        self.stack = stack
        self.network: ThermalNetwork = (
            network if network is not None else assemble(stack)
        )
        self.update = (
            update
            if update is not None
            else low_rank_update(base.network, self.network)
        )
        self.residual_tol = residual_tol
        self.fallback_reason: Optional[str] = None
        self._full: Optional[SteadyStateSolver] = None
        self._z: Optional[np.ndarray] = None
        self._core_lu = None

        base_fact = base.factorization
        if crossover_rank is None:
            crossover_rank = woodbury_crossover_rank(self.network.num_nodes)
        self.crossover_rank = crossover_rank

        rank = self.update.rank
        if rank == 0:
            return  # identical network; base solves are already exact
        if not getattr(base_fact, "supports_woodbury_base", True):
            self._fall_back("unsupported-base")
            return
        if rank > crossover_rank:
            self._fall_back("rank")
            return
        indices = self.update.indices
        selection = np.zeros((self.network.num_nodes, rank))
        selection[indices, np.arange(rank)] = 1.0
        z = base_fact.solve(selection)
        core_system = np.eye(rank) + self.update.core @ z[indices, :]
        if fault_fires("woodbury.singular_core"):
            # chaos hook: make the core exactly singular so the LinAlg
            # guard (not just the probe) is exercised on a real network
            core_system[:] = 0.0
        try:
            core_lu = scipy.linalg.lu_factor(core_system)
            if not np.all(np.isfinite(core_lu[0])) or np.any(
                np.diag(core_lu[0]) == 0.0
            ):
                # lu_factor reports exact singularity as a warning, not
                # a LinAlgError; a zero pivot would surface as inf/nan
                # temperatures downstream — fall back instead
                raise scipy.linalg.LinAlgError("singular Woodbury core")
        except scipy.linalg.LinAlgError:
            self._fall_back("singular-core")
            return
        self._z = z
        self._core_lu = core_lu
        probe_failed = fault_fires("woodbury.probe")
        if probe and (probe_failed or not self._probe_ok()):
            self._z = None
            self._core_lu = None
            self._fall_back("residual")

    def _fall_back(self, reason: str) -> None:
        self.fallback_reason = reason
        record_degradation(f"woodbury.fallback.{reason}")
        self._full = SteadyStateSolver(
            self.stack, network=self.network, backend=self.base.backend
        )

    @property
    def is_low_rank(self) -> bool:
        """Whether solves go through the base factors (vs the fallback's own)."""
        return self._full is None

    def rebase(self) -> SteadyStateSolver:
        """The cheapest exact full solver for *this* stack.

        The fallback already factorized one; otherwise this is the point
        where a caller deliberately pays the refactorization — the
        mitigation loop re-baselines here once committed insertions have
        accumulated past the crossover.
        """
        if self._full is None:
            self._full = SteadyStateSolver(
                self.stack, network=self.network, backend=self.base.backend
            )
        # solves route through the full factorization from here on; the
        # dense Z block (N x rank) and core factors are dead weight
        self._z = None
        self._core_lu = None
        return self._full

    def _probe_ok(self) -> bool:
        """Solve one deterministic RHS and check the true G' residual."""
        probe_q = self.network.boundary * self.stack.ambient + 1.0
        x = self._apply(probe_q[:, None])[:, 0]
        residual = self.network.conductance @ x - probe_q
        denom = float(np.abs(probe_q).max())
        return float(np.abs(residual).max()) <= self.residual_tol * max(denom, 1.0)

    def _apply(self, q: np.ndarray) -> np.ndarray:
        """Woodbury-corrected ``G'⁻¹ q`` for an (N, k) RHS block."""
        x0 = self.base.factorization.solve_block(q)
        if self._z is None:
            return x0  # rank-0 update
        y = scipy.linalg.lu_solve(
            self._core_lu, self.update.core @ x0[self.update.indices]
        )
        return x0 - self._z @ y

    def solve(self, power_maps: Sequence[np.ndarray]) -> ThermalResult:
        """Solve the perturbed stack for the given per-die power maps."""
        if self._full is not None:
            return self._full.solve(power_maps)
        q = _rhs_vector(self.network, self.stack.ambient, power_maps)
        t = self._apply(q[:, None])[:, 0]
        return ThermalResult(die_maps=_split_die_maps(self.stack, t), nodal=t)

    def solve_many(
        self, power_map_sets: Sequence[Sequence[np.ndarray]]
    ) -> List[ThermalResult]:
        """Batched counterpart of :meth:`solve` (one multi-RHS base solve)."""
        if self._full is not None:
            return self._full.solve_many(power_map_sets)
        sets = list(power_map_sets)
        if not sets:
            return []
        q = _rhs_matrix(self.network, self.stack.ambient, sets)
        t = self._apply(q)
        return _results_from_columns(self.stack, t)


def _digest_array(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype=float)
    h = hashlib.sha1(arr.tobytes())
    h.update(repr(arr.shape).encode())
    return h.hexdigest()


class SolverCache:
    """LRU cache of :class:`SteadyStateSolver` instances.

    Keyed by (stack config, grid, TSV-density digest per die pair,
    topology kind, resolved backend name).  Identical networks are
    factorized exactly once per backend; the density digest makes reuse
    safe even when callers rebuild density maps from scratch each time,
    ``topology=None`` and ``TopologyConfig("3d")`` share one key, and the
    backend component keeps the band solver a sweep factorizes and the
    spectral solver its few-RHS candidates set up on the same network
    from shadowing each other.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("cache needs room for at least one solver")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, SteadyStateSolver]" = OrderedDict()
        #: serializes lookups/factorizations across threads — the service
        #: frontend (:mod:`repro.service`) runs flows on a thread pool
        #: against this one process-level cache, so two concurrent
        #: requests for the same network must resolve to one
        #: factorization (a miss, then a hit), never two racing builds
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> Dict[str, int]:
        """A snapshot of the hit/miss counters (service responses)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def _lookup(self, stack_cfg, grid, tsv_density, topology, rhs_budget=None):
        """``(densities, backend, key)`` of one network: its canonical
        TSV densities, resolved backend and cache key."""
        densities = normalize_tsv_densities(stack_cfg, grid, tsv_density)
        # the system's layer, not the die grid: a 2.5D interposer is wider
        ny, nx = layer_shape(stack_cfg, grid, topology)
        backend = resolve_backend(
            hints=FactorHints(rhs_budget=rhs_budget), cells_per_layer=ny * nx
        )
        density_key = tuple(
            (pair, _digest_array(arr)) for pair, arr in sorted(densities.items())
        )
        kind = "2.5d" if is_interposer(topology) else "3d"
        return densities, backend, (stack_cfg, grid, density_key, kind, backend.name)

    def solver(
        self,
        stack_cfg: StackConfig,
        grid: GridSpec,
        tsv_density=None,
        *,
        rhs_budget: Optional[int] = None,
        topology: Optional[TopologyConfig] = None,
    ) -> SteadyStateSolver:
        """The cached (or freshly built) *full* solver for this exact network.

        ``rhs_budget`` states how many right-hand sides the caller will
        solve (see :class:`~repro.thermal.backends.base.FactorHints`); it
        only steers the automatic backend rule, and the resolved backend
        is part of the cache key.

        A cached incremental entry (:class:`WoodburySolver`) is upgraded
        to its own factorization before being returned: callers of this
        method — verification, oracle paths, attack models — rely on a
        solve that is independent of any base factors, so handing them a
        Woodbury entry would quietly defeat e.g. an incremental-vs-full
        cross-check.  The upgrade replaces the cache entry, so it is
        paid at most once per network.
        """
        with self._lock:
            densities, backend, key = self._lookup(
                stack_cfg, grid, tsv_density, topology, rhs_budget
            )
            solver = self._entries.get(key)
            if solver is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                if isinstance(solver, WoodburySolver):
                    solver = solver.rebase()
                    self._entries[key] = solver
                return solver
            self.misses += 1
            stack = build_stack(stack_cfg, grid, tsv_density=densities, topology=topology)
            solver = SteadyStateSolver(stack, backend=backend)
            self._entries[key] = solver
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return solver

    def solver_for_floorplan(
        self,
        floorplan: Floorplan3D,
        grid: GridSpec,
        *,
        rhs_budget: Optional[int] = None,
        topology: Optional[TopologyConfig] = None,
    ) -> SteadyStateSolver:
        """Solver for a floorplan's stack and *all* its TSV interfaces."""
        densities = floorplan.tsv_densities(grid)
        return self.solver(
            floorplan.stack, grid, densities, rhs_budget=rhs_budget, topology=topology
        )

    def incremental_solver(
        self,
        stack_cfg: StackConfig,
        grid: GridSpec,
        tsv_density=None,
        *,
        base: SteadyStateSolver,
        crossover_rank: Optional[int] = None,
        topology: Optional[TopologyConfig] = None,
    ) -> "SteadyStateSolver | WoodburySolver":
        """A solver for this network that rides ``base``'s factorization.

        The cached entry is a :class:`WoodburySolver` over ``base`` when
        the network differs from ``base``'s by a low-rank (localized TSV)
        update, and ``base``'s own kind of full solver when the update
        rank exceeds the crossover or the probe rejects the core — the
        caller never has to know which.  Entries share the cache key
        space with :meth:`solver`, so a later full-solver request for the
        same network reuses whatever is already here.
        """
        with self._lock:
            densities, _, key = self._lookup(stack_cfg, grid, tsv_density, topology)
            solver = self._entries.get(key)
            if solver is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return solver
            self.misses += 1
            stack = build_stack(stack_cfg, grid, tsv_density=densities, topology=topology)
            solver = WoodburySolver(base, stack, crossover_rank=crossover_rank)
            self._entries[key] = solver
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return solver

    def incremental_solver_for_floorplan(
        self,
        floorplan: Floorplan3D,
        grid: GridSpec,
        *,
        base: SteadyStateSolver,
        crossover_rank: Optional[int] = None,
        topology: Optional[TopologyConfig] = None,
    ) -> "SteadyStateSolver | WoodburySolver":
        """Incremental solver for a floorplan (all TSV interfaces)."""
        return self.incremental_solver(
            floorplan.stack,
            grid,
            floorplan.tsv_densities(grid),
            base=base,
            crossover_rank=crossover_rank,
            topology=topology,
        )


_DEFAULT_CACHE = SolverCache(maxsize=8)


def default_solver_cache() -> SolverCache:
    """The process-wide solver cache shared by the flow entry points."""
    return _DEFAULT_CACHE
