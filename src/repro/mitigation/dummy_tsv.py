"""Correlation-guided insertion of dummy thermal TSVs (Sec. 6.2, Fig. 4).

The post-processing stage of the flow:

1. sample Gaussian activities and evaluate the steady-state temperatures
   for each sample (detailed solver, reused factorization);
2. compute the per-bin correlation *stability* map (Eq. 2);
3. insert a group of dummy thermal TSVs where correlations are most
   stable;
4. repeat while the average (steady-state) correlation keeps decreasing —
   the stop criterion is the "sweet spot where further TSV insertion
   would increase the overall correlation again" (Sec. 6.2, 7.1).

Each round evaluates the ``candidates_per_round`` most stable *disjoint*
bin groups speculatively: every candidate stack is solved once, against
the same nominal power maps, and the best-scoring group is accepted.  The
greedy top-group choice can hit the sweet-spot test one round early when
its bins happen to sit on an already-saturated heat path; the runner-up
groups keep the loop moving at no extra sampling cost (the round's
activity samples and stability map are shared by all candidates).

A candidate's one nominal solve comes from a one-right-hand-side solver
(``rhs_budget=1``), which the automatic backend rule sets up as spectral
PCG past 16x16 instead of factorizing with SuperLU.  Only a round's activity
sweep needs direct factors, so a TSV pattern is factorized only when a
round sweeps it, and the last accepted pattern never is.
``incremental=True`` instead solves candidates through the round's base
LU via the Sherman–Morrison–Woodbury identity
(:class:`~repro.thermal.steady_state.WoodburySolver`), re-baselining once
committed insertions accumulate past the crossover rank; that path is
opt-in and slated for deletion, since refactorizing measured faster end
to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from ..layout.tsv import TSVKind, place_island
from ..leakage.pearson import die_correlation
from ..leakage.stability import most_stable_bins, stability_map
from ..thermal.steady_state import (
    SolverCache,
    SteadyStateSolver,
    WoodburySolver,
    woodbury_crossover_rank,
)
from .activity import sample_power_maps

__all__ = [
    "MITIGATION_MODES",
    "MitigationConfig",
    "MitigationReport",
    "insert_dummy_tsvs",
]

#: supported mitigation strategies: the paper's static dummy-TSV
#: insertion (Sec. 6.2), DATE-style runtime DVFS modulation
#: (:mod:`repro.mitigation.dvfs`), or both in sequence
MITIGATION_MODES = ("static", "dvfs", "combined")

#: dummy thermal TSV geometry (um): larger than signal TSVs, so a dense
#: group fills one analysis bin
DUMMY_DIAMETER = 20.0
DUMMY_KEEPOUT = 5.0


@dataclass(frozen=True)
class MitigationConfig:
    """Knobs of the post-processing stage."""

    #: activity samples per round (the paper uses 100)
    samples: int = 100
    sigma: float = 0.10
    #: grid bins receiving a dummy-TSV group per round
    tsvs_per_round: int = 8
    max_rounds: int = 12
    #: disjoint candidate bin groups evaluated speculatively per round;
    #: 1 reproduces the purely greedy loop
    candidates_per_round: int = 3
    #: evaluation grid (detailed solves happen once per activity sample)
    grid_nx: int = 32
    grid_ny: int = 32
    #: which die's correlation drives the stop criterion (0 = bottom, the
    #: paper's primary leakage metric r1); None = average over dies
    target_die: Optional[int] = None
    seed: int = 0
    #: solve speculative candidates through the round's base LU via the
    #: Woodbury identity instead of giving each candidate its own solver
    #: (opt-in; slated for deletion with the Woodbury layer)
    incremental: bool = False
    #: committed-update rank past which the loop re-baselines (fresh
    #: factorization); None uses the measured crossover for the grid size
    #: (:func:`~repro.thermal.steady_state.woodbury_crossover_rank`)
    rebase_rank: Optional[int] = None
    #: mitigation strategy: ``"static"`` (dummy-TSV insertion, Sec. 6.2),
    #: ``"dvfs"`` (runtime activity modulation,
    #: :mod:`repro.mitigation.dvfs`), or ``"combined"`` (both)
    mode: str = "static"
    #: independent traces the DVFS governor's evaluation scores (runtime
    #: modes; the schedule itself is fixed in :mod:`repro.mitigation.dvfs`)
    dvfs_traces: int = 4

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.tsvs_per_round < 1:
            raise ValueError("tsvs_per_round must be >= 1")
        if self.candidates_per_round < 1:
            raise ValueError("candidates_per_round must be >= 1")
        if self.mode not in MITIGATION_MODES:
            raise ValueError(
                f"unknown mitigation mode {self.mode!r}; expected one of "
                f"{', '.join(MITIGATION_MODES)}"
            )
        if self.dvfs_traces < 1:
            raise ValueError("dvfs_traces must be >= 1")


@dataclass
class MitigationReport:
    """Outcome of the insertion loop."""

    floorplan: Floorplan3D
    inserted: int
    rounds: int
    #: average steady-state correlation before/after, per round
    correlation_trace: List[float]
    #: final per-die nominal correlations
    final_correlations: List[float]
    #: stability map of the last round (bottom die)
    last_stability: Optional[np.ndarray] = None
    #: candidates scored through the base LU (Woodbury path)
    woodbury_candidates: int = 0
    #: candidates scored on a solver of their own: every candidate of a
    #: non-incremental run (a one-RHS solver, spectral past 16x16), or a
    #: Woodbury fallback past the crossover / probe rejection
    refactorized_candidates: int = 0
    #: times the loop adopted a fallback factorization as its new base
    rebaselines: int = 0

    @property
    def initial_correlation(self) -> float:
        return self.correlation_trace[0]

    @property
    def final_correlation(self) -> float:
        return self.correlation_trace[-1]


def _score(correlations: Sequence[float], target_die: Optional[int]) -> float:
    if target_die is not None:
        return abs(correlations[target_die])
    return float(np.mean([abs(c) for c in correlations]))


def insert_dummy_tsvs(
    floorplan: Floorplan3D,
    config: MitigationConfig | None = None,
    progress=None,
    topology=None,
) -> MitigationReport:
    """Run the stability-guided dummy-TSV insertion loop.

    Returns a report whose ``floorplan`` carries the inserted dummy TSVs.
    The input floorplan is not modified.

    ``progress`` (optional) is called with one dict per completed round —
    ``{"round", "score", "accepted", "inserted_total"}`` — which is what
    the service layer streams to clients as per-round NDJSON events.  A
    ``None`` callback costs nothing.

    ``topology`` (a :class:`~repro.thermal.stack.TopologyConfig`) selects
    the stack style every solve discretizes; ``None`` is the 3D stack
    (2.5D dummy "TSVs" are extra thermal micro-bump fields under the die
    sites — same density mechanism).
    """
    config = config or MitigationConfig()
    fp = floorplan.copy()
    grid = GridSpec(fp.stack.outline, config.grid_nx, config.grid_ny)

    # each accepted round changes the TSV pattern, so solvers are keyed by
    # density digest and resolved backend; the local cache holds a round's
    # sweep solver and every speculative candidate, and keeps rejected
    # candidates from evicting anything globally useful
    solver_cache = SolverCache(maxsize=max(4, config.candidates_per_round + 2))

    def make_solver(current: Floorplan3D) -> SteadyStateSolver:
        return solver_cache.solver_for_floorplan(current, grid, topology=topology)

    # nominal power maps depend only on placements and voltages — never on
    # TSVs — so one rasterization serves the whole loop and every
    # speculative candidate
    nominal_maps = [
        fp.power_map(d, grid) for d in range(fp.stack.num_dies)
    ]

    def correlations_for(solver: SteadyStateSolver) -> List[float]:
        result = solver.solve(nominal_maps)
        return [
            die_correlation(p, t) for p, t in zip(nominal_maps, result.die_maps)
        ]

    # the incoming pattern's factors serve round 0's activity sweep; with
    # incremental=True, base_solver is also the LU candidate stacks ride via
    # the Woodbury identity until the accumulated committed update crosses
    # the re-baseline threshold
    base_solver = make_solver(fp)
    solver = base_solver
    # rank of fp's network relative to base_solver's (0 right after a
    # [re]baseline); drives the proactive re-baseline decision below
    committed_rank = 0
    woodbury_candidates = 0
    refactorized_candidates = 0
    rebaselines = 0

    def candidate_solver(candidate: Floorplan3D):
        if not config.incremental:
            return solver_cache.solver_for_floorplan(
                candidate, grid, rhs_budget=1, topology=topology
            )
        return solver_cache.incremental_solver_for_floorplan(
            candidate, grid, base=base_solver,
            crossover_rank=config.rebase_rank, topology=topology,
        )

    correlations = correlations_for(solver)
    trace = [_score(correlations, config.target_die)]
    inserted = 0
    rounds = 0
    last_stability: Optional[np.ndarray] = None

    # the exclusion mask only ever grows: build it once from the existing
    # TSVs, then mark each accepted round's bins as they are occupied
    exclude = np.zeros(grid.shape, dtype=bool)
    for tsv in fp.tsvs:
        i, j = grid.cell_of(tsv.x, tsv.y)
        exclude[j, i] = True

    group = config.tsvs_per_round
    for round_idx in range(config.max_rounds):
        # Eq. 2 stability from Gaussian activity sampling on this stack
        power_sets = sample_power_maps(
            fp, grid, count=config.samples, sigma=config.sigma,
            seed=config.seed + round_idx,
        )
        die = config.target_die if config.target_die is not None else 0
        p_samples = [ps[die] for ps in power_sets]
        # one batched back-substitution for all activity samples — the LU
        # is factorized once per swept TSV pattern, not once per sample
        if not config.incremental:
            solver = make_solver(fp)
        t_samples = [r.die_maps[die] for r in solver.solve_many(power_sets)]
        stability = stability_map(p_samples, t_samples)
        last_stability = stability

        ranked = [
            b
            for b in most_stable_bins(
                stability, group * config.candidates_per_round, exclude=exclude
            )
            if not exclude[b]  # ranking pads with excluded bins when few remain
        ]
        candidate_bins = [
            ranked[k * group : (k + 1) * group]
            for k in range(config.candidates_per_round)
        ]
        candidate_bins = [bins for bins in candidate_bins if bins]

        rounds += 1
        if not candidate_bins:
            if progress is not None:
                progress({
                    "round": rounds, "score": trace[-1],
                    "accepted": False, "inserted_total": inserted,
                })
            break  # every bin is occupied; nothing left to try

        # speculative pass: score every candidate group against the same
        # nominal maps; incremental solves ride base_solver's LU
        best: Optional[Tuple[float, List[Tuple[int, int]], Floorplan3D,
                             SteadyStateSolver, List[float]]] = None
        for bins in candidate_bins:
            candidate = fp.copy()
            for (j, i) in bins:
                # one densely packed group of dummy TSVs per selected bin —
                # isolated single vias are thermally invisible at floorplan
                # scale; the paper's Fig. 4 likewise inserts TSV groups
                cell = grid.cell_rect(i, j)
                candidate.tsvs.extend(
                    place_island(
                        cell,
                        die_from=0,
                        die_to=1,
                        kind=TSVKind.THERMAL,
                        diameter=DUMMY_DIAMETER,
                        keepout=DUMMY_KEEPOUT,
                    )
                )
            cand_solver = candidate_solver(candidate)
            if isinstance(cand_solver, WoodburySolver) and cand_solver.is_low_rank:
                woodbury_candidates += 1
            else:
                refactorized_candidates += 1
            cand_corr = correlations_for(cand_solver)
            cand_score = _score(cand_corr, config.target_die)
            if best is None or cand_score < best[0]:
                best = (cand_score, bins, candidate, cand_solver, cand_corr)

        cand_score, bins, candidate, cand_solver, cand_corr = best
        if cand_score >= trace[-1] - 1e-6:
            # sweet spot reached: no candidate group keeps helping
            if progress is not None:
                progress({
                    "round": rounds, "score": trace[-1],
                    "accepted": False, "inserted_total": inserted,
                })
            break
        inserted += len(candidate.tsvs) - len(fp.tsvs)
        fp = candidate
        solver = cand_solver
        correlations = cand_corr
        trace.append(cand_score)
        if isinstance(cand_solver, WoodburySolver):
            if not cand_solver.is_low_rank:
                # committed insertions crossed the threshold (or the probe
                # rejected the core): the fallback's factorization becomes
                # the base the next rounds' candidates ride on
                base_solver = cand_solver.rebase()
                solver = base_solver
                rebaselines += 1
                committed_rank = 0
            else:
                # proactive re-baseline: if the *next* round's candidates
                # (committed rank + one more group's marginal rank) would
                # cross the threshold, they would each fall back and pay
                # their own full factorization — pay exactly one now
                committed = cand_solver.update.rank
                marginal = committed - committed_rank
                threshold = (
                    config.rebase_rank
                    if config.rebase_rank is not None
                    else woodbury_crossover_rank(base_solver.network.num_nodes)
                )
                if committed + max(marginal, 0) > threshold:
                    # the fresh factorization also takes over the round's
                    # own solves, releasing the wrapper's dense Z state
                    base_solver = cand_solver.rebase()
                    solver = base_solver
                    rebaselines += 1
                    committed_rank = 0
                else:
                    committed_rank = committed
        for (j, i) in bins:
            exclude[j, i] = True
        if progress is not None:
            progress({
                "round": rounds, "score": cand_score,
                "accepted": True, "inserted_total": inserted,
            })

    return MitigationReport(
        floorplan=fp,
        inserted=inserted,
        rounds=rounds,
        correlation_trace=trace,
        final_correlations=correlations,
        last_stability=last_stability,
        woodbury_candidates=woodbury_candidates,
        refactorized_candidates=refactorized_candidates,
        rebaselines=rebaselines,
    )
