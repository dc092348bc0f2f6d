"""Parallel-tempering (replica-exchange) driver over :class:`AnnealChain`.

R replicas anneal the same instance on a geometric temperature ladder
(rung i starts at ``T0 * ladder_ratio**i``).  Every ``exchange_every``
moves the coordinator attempts Metropolis swaps between ladder-adjacent
replicas: a hot chain that stumbled onto a good basin hands it down to a
colder chain for refinement, while the cold chain's configuration gets a
chance to escape via the hotter rung.  At equal total move budget the R
chains advance concurrently, turning idle cores into wall-clock speedup;
at equal wall-clock they buy a broader floorplan search — the knob the
paper's side-channel mitigation quality actually depends on.

Determinism contract
--------------------
For a fixed ``(seed, replicas)`` the result is *identical* regardless of
``processes`` (including 1) and of worker scheduling:

* every replica owns a private ``np.random.Generator`` spawned from
  ``np.random.SeedSequence(seed)`` — no stream is shared across chains;
* swap decisions draw from a dedicated coordinator stream (the last
  spawned child), one draw per attempted pair, *unconditionally*;
* chains travel to workers whole (layout, evaluator with its slow-term
  cache, temperature, RNG state pickle along) and are gathered back in replica
  order, so the pool is pure transport with no RNG of its own.

Swaps exchange *temperatures* (ladder positions), not layouts: all
chains advance the same move count per round, so their cooling decay is
common and handing a chain the partner's current temperature is exactly
the classical state-swap formulation, and each evaluator's slow-term
cache stays with the layout it was computed for.

Nested-parallelism guard
------------------------
``repro.exploration`` batch workers set ``REPRO_IN_POOL_WORKER=1``; when
that is present (and no explicit process count is given) replicas advance
serially in-process, so a ``run_batch -j N`` pool never multiplies into
``N × replicas`` processes.  ``REPRO_REPLICA_PROCESSES`` overrides
explicitly when oversubscription is intended.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..core.parallel import fanout_cores
from ..layout.die import StackConfig
from ..layout.module import Module
from ..layout.net import Net, Terminal
from .annealer import AnnealChain, AnnealConfig, AnnealResult, anneal
from .objectives import FloorplanMode

__all__ = ["temper", "resolve_replica_processes"]

#: geometric spacing of the default temperature ladder; 1.5-2.0 is the
#: usual replica-exchange sweet spot for ~4-8 rungs
DEFAULT_LADDER_RATIO = 1.6

#: explicit override for the replica pool size (0/1 -> serial)
PROCESSES_ENV = "REPRO_REPLICA_PROCESSES"


def resolve_replica_processes(replicas: int, processes: Optional[int] = None) -> int:
    """Number of worker processes the replica pool should use.

    Priority: explicit argument > ``REPRO_REPLICA_PROCESSES`` env > serial
    when running inside a batch-pool worker (``REPRO_IN_POOL_WORKER``) >
    ``min(replicas, usable cores)``.  A result of 1 means "advance chains
    serially in-process" (no pool at all).
    """
    if processes is not None:
        return max(1, int(processes))
    env = os.environ.get(PROCESSES_ENV)
    if env:
        return max(1, int(env))
    return max(1, min(replicas, fanout_cores()))


def _advance(chain: AnnealChain, moves: int) -> AnnealChain:
    """Pool entry point: advance one replica and ship it back whole."""
    return chain.run(moves)


def _swap_probability(t_cold: float, t_hot: float, e_cold: float, e_hot: float) -> float:
    """Metropolis replica-exchange acceptance probability.

    Accepts with probability ``min(1, exp((1/T_cold - 1/T_hot) * (E_cold
    - E_hot)))``: always when the colder rung currently holds the worse
    (higher-cost) configuration, stochastically otherwise.
    """
    delta = (1.0 / max(t_cold, 1e-12) - 1.0 / max(t_hot, 1e-12)) * (e_cold - e_hot)
    if delta >= 0:
        return 1.0
    return math.exp(delta)


def temper(
    modules: Mapping[str, Module],
    stack: StackConfig,
    nets: Sequence[Net] = (),
    terminals: Mapping[str, Terminal] | None = None,
    mode: str = FloorplanMode.POWER_AWARE,
    config: AnnealConfig | None = None,
    replicas: int = 4,
    exchange_every: int = 50,
    ladder_ratio: float = DEFAULT_LADDER_RATIO,
    processes: Optional[int] = None,
) -> AnnealResult:
    """Replica-exchange annealing at the same *total* move budget as
    :func:`~repro.floorplan.annealer.anneal`.

    ``config.iterations`` is the total budget: each of the ``replicas``
    chains runs ``iterations // replicas`` moves, so ``replicas=1``
    degenerates to (and is bit-identical with) plain :func:`anneal`.
    Returns the best finalized replica with the exchange statistics
    attached.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if exchange_every < 1:
        raise ValueError("exchange_every must be >= 1")
    if ladder_ratio <= 1.0:
        raise ValueError("ladder_ratio must be > 1")
    config = config or AnnealConfig()
    if replicas == 1:
        return anneal(
            modules, stack, nets=nets, terminals=terminals,
            mode=mode, config=config,
        )
    per_replica = config.iterations // replicas
    if per_replica < 1:
        raise ValueError(
            f"iterations={config.iterations} cannot be split across "
            f"{replicas} replicas (need >= 1 move per replica)"
        )
    chain_config = replace(config, iterations=per_replica)

    # independent streams: one per replica plus the coordinator's swap
    # stream — deterministic for (seed, replicas), scheduling-free
    streams = np.random.SeedSequence(config.seed).spawn(replicas + 1)
    swap_rng = np.random.default_rng(streams[replicas])

    t_wall = time.perf_counter()
    # rung 0 calibrates cost scales and probes the base temperature; the
    # other rungs adopt both, so all replica energies share one scale and
    # the ladder is geometric over a single probe-derived T0
    chains: List[AnnealChain] = []
    base = AnnealChain.start(
        modules, stack, nets=nets, terminals=terminals, mode=mode,
        config=chain_config, rng=np.random.default_rng(streams[0]),
    )
    chains.append(base)
    shared_scales = base.evaluator.scales
    for i in range(1, replicas):
        chains.append(
            AnnealChain.start(
                modules, stack, nets=nets, terminals=terminals, mode=mode,
                config=chain_config, rng=np.random.default_rng(streams[i]),
                scales=shared_scales,
                temperature=base.initial_temperature,
                temperature_scale=ladder_ratio ** i,
            )
        )

    # ladder[k] = replica index currently holding rung k (cold -> hot)
    ladder = list(range(replicas))
    exchange_attempts = 0
    exchange_accepts = 0
    procs = resolve_replica_processes(replicas, processes)

    pool = ProcessPoolExecutor(max_workers=procs) if procs > 1 else None
    try:
        remaining = per_replica
        round_no = 0
        while remaining > 0:
            moves = min(exchange_every, remaining)
            if pool is None:
                for chain in chains:
                    chain.run(moves)
            else:
                futures = [pool.submit(_advance, chain, moves) for chain in chains]
                # gather in replica order — scheduling cannot reorder state
                chains = [f.result() for f in futures]
            remaining -= moves

            if remaining <= 0:
                break
            # alternate even/odd adjacent rung pairings so information can
            # percolate the whole ladder in consecutive rounds
            for k in range(round_no % 2, replicas - 1, 2):
                a, b = ladder[k], ladder[k + 1]
                cold, hot = chains[a], chains[b]
                exchange_attempts += 1
                p = _swap_probability(
                    cold.temperature, hot.temperature,
                    cold.current_cost, hot.current_cost,
                )
                u = swap_rng.random()  # always drawn: keeps the stream aligned
                if u < p:
                    exchange_accepts += 1
                    cold.temperature, hot.temperature = (
                        hot.temperature, cold.temperature,
                    )
                    ladder[k], ladder[k + 1] = b, a
            round_no += 1
    finally:
        if pool is not None:
            pool.shutdown()

    results = [chain.finalize() for chain in chains]

    def rank(res: AnnealResult):
        # feasible beats infeasible; then cost; then outline violation
        return (not res.feasible, res.cost, res.breakdown.outline)

    winner_idx = min(range(replicas), key=lambda i: rank(results[i]))
    winner = results[winner_idx]
    winner.iterations = sum(r.iterations for r in results)
    winner.accepted = sum(r.accepted for r in results)
    winner.runtime_s = time.perf_counter() - t_wall
    winner.replicas = replicas
    winner.exchange_attempts = exchange_attempts
    winner.exchange_accepts = exchange_accepts
    return winner
