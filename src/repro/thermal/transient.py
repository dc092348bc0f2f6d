"""Transient thermal solver (backward Euler).

Integrates ``C dT/dt = -(G) T + q(t) + B T_amb``.  The implicit step
``(C/dt + G) T_{n+1} = (C/dt) T_n + q_{n+1}`` is unconditionally stable;
the step matrix is factorized once per time step size and factorizations
are kept in a small LRU so alternating ``dt`` values (coarse scans
interleaved with fine bursts) never re-factorize.

:meth:`TransientSolver.run_many` pushes a whole batch of power traces
through one factorized step matrix — every step back-substitutes all
traces' right-hand sides in a single call, mirroring what
:meth:`~repro.thermal.steady_state.SteadyStateSolver.solve_many` does for
steady-state activity sweeps.  Per-die reductions go through a
precomputed layer-slice index instead of a per-step per-die Python loop.

:meth:`TransientSolver.die_mean_kernels` answers the question a readout
of die-mean temperatures actually asks, without integrating any trace:
the system is linear and time-invariant, so every die mean is a
convolution of the power deviations with an impulse response.  A
Lanczos model of the step operator gives every step of that response
from a few dozen one-column solves per die, whatever the number of
steps and traces.  One factorization serves every die; the dies'
processes never interact, so on an idle host each runs as its own chain
on a small thread pool.  The DVFS leakage evaluator
(:mod:`repro.mitigation.dvfs`) scores through it; it is deterministic,
byte-identical however the dies are split, equals the step-by-step
adjoint recursion within 1e-10 of the kernels' largest entry, and its
scores equal forward integration (``tests/oracles/transient.py``)
within 1e-10.

This solver backs the Figure 1 reproduction: module activity toggles on a
nanosecond-to-microsecond scale while the thermal response follows on a
millisecond-to-second scale — the low-pass behaviour that limits (but does
not defeat) the thermal side channel (Sec. 2.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
import scipy.sparse as sp

from ..core.parallel import fanout_cores
from .backends import resolve_backend
from .rc_network import ThermalNetwork, assemble
from .stack import ThermalStack

__all__ = ["TransientSolver", "TransientTrace", "thermal_time_constant"]

#: per-die power maps applied during the step ending at the given time
PowerAt = Callable[[float], Sequence[np.ndarray]]

#: step-matrix factorizations kept per solver (one per ``dt``)
MAX_CACHED_STEPS = 4


@dataclass
class TransientTrace:
    """Sampled transient response."""

    times: np.ndarray  # (steps,) seconds
    #: per-die active-layer mean temperature over time, shape (steps, dies)
    die_means: np.ndarray
    #: per-die active-layer peak temperature over time, shape (steps, dies)
    die_peaks: np.ndarray


class TransientSolver:
    """Backward-Euler integrator bound to one thermal stack."""

    def __init__(self, stack: ThermalStack, backend=None) -> None:
        self.stack = stack
        self.network: ThermalNetwork = assemble(stack)
        #: the step matrix C/dt + G is SPD with the same 7-point stencil
        #: as G itself, so every thermal backend (superlu, spectral)
        #: applies (spectral homogenizes the C/dt diagonal with the
        #: boundary); the same automatic rule as steady state decides,
        #: unless ``backend`` passes an instance
        self._hints = self.network.factor_hints()
        self.backend = resolve_backend(backend, hints=self._hints)
        #: LRU of step-matrix factorizations keyed by dt
        self._lus: "OrderedDict[float, object]" = OrderedDict()
        grid = stack.grid
        npl = grid.nx * grid.ny
        self._power_layers = stack.power_layers()
        #: (dies, cells-per-die) gather index: one fancy-index per step
        #: replaces the per-die Python slicing/reduction loop; on a 2.5D
        #: interposer stack each row gathers only the die's site cells
        cell_idx = np.arange(npl, dtype=np.int64).reshape(grid.shape)
        if self._power_layers:
            self._die_nodes = np.stack(
                [
                    layer_idx * npl + cell_idx[stack.site_slice(die)].ravel()
                    for layer_idx, die in self._power_layers
                ]
            )
        else:
            self._die_nodes = np.empty((0, npl), dtype=np.int64)

    def _factorize(self, dt: float):
        lu = self._lus.get(dt)
        if lu is not None:
            self._lus.move_to_end(dt)
            return lu
        c_over_dt = sp.diags(self.network.capacitance / dt)
        lu = self.backend.factor(
            (c_over_dt + self.network.conductance).tocsc(), hints=self._hints
        )
        self._lus[dt] = lu
        while len(self._lus) > MAX_CACHED_STEPS:
            self._lus.popitem(last=False)
        return lu

    def _initial(self, t0: np.ndarray | None, batch: int | None) -> np.ndarray:
        n = self.network.num_nodes
        if t0 is None:
            shape = (n,) if batch is None else (n, batch)
            return np.full(shape, self.stack.ambient)
        t0 = np.asarray(t0, dtype=float)
        if batch is None:
            if t0.shape != (n,):
                raise ValueError(f"t0 must have shape ({n},), got {t0.shape}")
            return t0.copy()
        if t0.shape == (n,):
            return np.repeat(t0[:, None], batch, axis=1)
        if t0.shape == (n, batch):
            return t0.copy()
        raise ValueError(
            f"t0 must have shape ({n},) or ({n}, {batch}), got {t0.shape}"
        )

    def run(
        self,
        power_at: PowerAt,
        duration: float,
        dt: float,
        t0: np.ndarray | None = None,
    ) -> TransientTrace:
        """Integrate for ``duration`` seconds with step ``dt``.

        ``power_at(t)`` returns the per-die power maps (W/cell) applied
        during the step ending at time t.  Starts from the ambient
        temperature unless ``t0`` (a nodal vector) is given.
        """
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        lu = self._factorize(dt)
        net = self.network
        n_steps = int(round(duration / dt))
        temp = self._initial(t0, batch=None)
        num_dies = len(self._power_layers)
        times = np.empty(n_steps)
        die_means = np.empty((n_steps, num_dies))
        die_peaks = np.empty((n_steps, num_dies))
        c_over_dt = net.capacitance / dt
        ambient_q = net.boundary * self.stack.ambient
        for step in range(n_steps):
            t_now = (step + 1) * dt
            q = net.power_vector(list(power_at(t_now)))
            rhs = c_over_dt * temp + q + ambient_q
            temp = lu.solve(rhs)
            times[step] = t_now
            block = temp[self._die_nodes]  # (dies, cells)
            die_means[step] = block.mean(axis=1)
            die_peaks[step] = block.max(axis=1)
        return TransientTrace(times=times, die_means=die_means, die_peaks=die_peaks)

    def run_many(
        self,
        power_ats: Sequence[PowerAt],
        duration: float,
        dt: float,
        t0: np.ndarray | None = None,
    ) -> List[TransientTrace]:
        """Integrate a batch of power traces against one factorization.

        All traces advance in lock-step: each time step assembles one
        (nodes, traces) right-hand-side matrix and back-substitutes it in
        a single call — far cheaper than per-trace :meth:`run` loops, and
        the per-die reductions vectorize over the whole batch.  Results
        match per-trace :meth:`run` calls to machine precision, not
        bitwise: SuperLU's blocked multi-RHS back-substitution rounds
        differently from the single-vector path once the batch exceeds
        its internal panel width (~4 columns).

        ``t0`` is an optional starting nodal vector, either one shared
        ``(nodes,)`` vector or a per-trace ``(nodes, traces)`` matrix.
        """
        fns = list(power_ats)
        if not fns:
            return []
        if duration <= 0 or dt <= 0:
            raise ValueError("duration and dt must be positive")
        lu = self._factorize(dt)
        net = self.network
        n_steps = int(round(duration / dt))
        batch = len(fns)
        temp = self._initial(t0, batch=batch)
        num_dies = len(self._power_layers)
        times = np.empty(n_steps)
        die_means = np.empty((batch, n_steps, num_dies))
        die_peaks = np.empty((batch, n_steps, num_dies))
        c_over_dt = net.capacitance / dt
        ambient_q = net.boundary * self.stack.ambient
        q = np.empty((net.num_nodes, batch))
        for step in range(n_steps):
            t_now = (step + 1) * dt
            for b, fn in enumerate(fns):
                q[:, b] = net.power_vector(list(fn(t_now)))
            rhs = c_over_dt[:, None] * temp + q + ambient_q[:, None]
            temp = lu.solve(rhs)
            times[step] = t_now
            # (traces, dies, cells), C-contiguous: each (trace, die) row is
            # then the same contiguous cells vector :meth:`run` reduces
            block = np.ascontiguousarray(np.moveaxis(temp[self._die_nodes], 2, 0))
            die_means[:, step, :] = block.mean(axis=2)
            die_peaks[:, step, :] = block.max(axis=2)
        return [
            TransientTrace(
                times=times.copy(), die_means=die_means[b], die_peaks=die_peaks[b]
            )
            for b in range(batch)
        ]

    def die_mean_kernels(self, dt: float, steps: int) -> np.ndarray:
        """Impulse response of every die's mean temperature to cell power.

        Returns ``H`` of shape ``(steps, dies, cells, dies)``:
        ``H[j, s, c, d]`` is the rise of die ``d``'s active-layer mean
        temperature at the end of step ``k + j`` caused by 1 W injected
        into cell ``c`` of die ``s`` during step ``k`` only (``j = 0`` is
        that step itself; cells in :meth:`run`'s power-map order).  The
        backward-Euler system is linear and time-invariant, so a run's die
        means are its response to constant power plus
        ``Σ_j Σ_{s,c} H[j, s, c, d] · (q_{n−j} − q̄)[s, c]`` for any
        reference power ``q̄``.

        With the step matrix ``A = C/dt + G`` (symmetric) and
        ``M = C/dt``, the adjoint recursion ``w_0 = A⁻¹r_d``,
        ``w_j = A⁻¹M·w_{j−1}`` gives ``H[j, :, :, d]`` as ``w_j`` at the
        die nodes, where ``r_d`` is die ``d``'s mean-readout column.
        ``B = A⁻¹M`` is self-adjoint in the ``M`` inner product, so a
        Lanczos process on it (the PRIMA model-order reduction of an RC
        network) gives ``w_j ≈ ‖w_0‖_M · V_k T_k^j e_1`` for every ``j``
        from ``k + 1`` one-column solves (:func:`_lanczos`): ``k`` stops
        growing once the a-posteriori bound on every step's error drops
        to ``1e-10 · ‖w_0‖_M``, typically 10-45 solves per die instead
        of ``steps``, and never more than ``steps``.

        The step matrix is factorized here, on the calling thread.  The
        dies' processes never interact, so they split into one chain per
        core the job may use (:func:`repro.core.parallel.fanout_cores`),
        each running a contiguous block of dies one after another on its
        own thread: one chain per die on an idle host, a single chain
        inside a batch-pool worker or on one CPU.  Chains call no BLAS,
        whose own threads would contend with them; SuperLU releases the
        GIL inside ``Factorization.solve``.  The kernels are
        assembled on the calling thread once the chains join, so their
        bytes do not depend on how the dies are split.
        """
        if dt <= 0 or steps < 1:
            raise ValueError("dt must be positive and steps >= 1")
        lu = self._factorize(dt)
        num_dies, cells = self._die_nodes.shape
        c_over_dt = self.network.capacitance / dt
        models: list = [None] * num_dies

        def chain(lo: int, hi: int) -> None:
            """The Lanczos processes of dies ``lo..hi-1``, in turn."""
            for d in range(lo, hi):
                readout = np.zeros(self.network.num_nodes)
                readout[self._die_nodes[d]] = 1.0 / cells
                models[d] = _lanczos(lu, c_over_dt, readout, self._die_nodes, steps)

        from concurrent.futures import ThreadPoolExecutor

        chains = max(1, min(num_dies, fanout_cores()))
        edges = [num_dies * i // chains for i in range(chains + 1)]
        with ThreadPoolExecutor(max_workers=chains) as pool:
            # list() re-raises the first chain's exception, if any
            list(pool.map(chain, edges[:-1], edges[1:]))

        kernels = np.empty((steps, num_dies, cells, num_dies))
        for d, (scale, alpha, beta, basis) in enumerate(models):
            coeffs = scale * _tridiagonal_powers(alpha, beta, steps)
            kernels[:, :, :, d] = (coeffs @ basis.reshape(len(alpha), -1)).reshape(
                steps, num_dies, cells
            )
        return kernels


#: stop a Lanczos process once its bound on every kernel step's error,
#: relative to ``‖w_0‖_M``, is this small (the adjoint-vs-forward oracle
#: tolerance of the DVFS scores)
_LANCZOS_TOL = 1e-10
#: iterations between two evaluations of that bound
_LANCZOS_CHECK = 4


def _tridiagonal_powers(alpha: np.ndarray, beta: np.ndarray, steps: int) -> np.ndarray:
    """``(steps, k)``: row ``j`` is ``T^j e_1`` for the symmetric
    tridiagonal ``T`` with diagonal ``alpha`` and off-diagonal ``beta``,
    by repeated elementwise products (no BLAS)."""
    out = np.empty((steps, len(alpha)))
    y = np.zeros(len(alpha))
    y[0] = 1.0
    for j in range(steps):
        out[j] = y
        nxt = alpha * y
        nxt[1:] += beta * y[:-1]
        nxt[:-1] += beta * y[1:]
        y = nxt
    return out


def _lanczos(lu, m: np.ndarray, readout: np.ndarray, nodes: np.ndarray, steps: int):
    """The Lanczos model of ``B = A⁻¹M`` from ``w_0 = A⁻¹ readout``.

    Returns ``(‖w_0‖_M, alpha, beta, basis)``: the tridiagonal ``T_k``
    and the ``M``-orthonormal basis vectors at ``nodes``,
    ``(k, *nodes.shape)``, with ``B^j w_0 ≈ ‖w_0‖_M · V_k T_k^j e_1``.
    The plain three-term recurrence, without reorthogonalization: the
    error of that model is ``Σ_{i<j} B^{j−1−i} β_k v_{k+1} e_kᵀ T_k^i e_1``,
    and ``B`` does not grow ``M``-norms, so the process stops once
    ``β_k Σ_{j<steps} |e_kᵀ T_k^j e_1| ≤ _LANCZOS_TOL``, at ``k = steps``
    (where the model is exact and needs no further solve) or when the
    Krylov space is exhausted (``β_k = 0``).  Only one-column
    ``solve`` calls and elementwise numpy, so it may run on a chain
    thread.
    """
    w = lu.solve(readout[:, None])[:, 0]
    scale = np.sqrt(np.einsum("i,i,i->", w, m, w))
    v, v_prev, b_prev = w / scale, np.zeros_like(w), 0.0
    alpha, beta, basis = [], [], []
    while True:
        basis.append(v[nodes])
        if len(basis) == steps:
            # exact; T_k^j e_1 for j < k never reads the last diagonal
            alpha.append(0.0)
            break
        mv = m * v
        z = lu.solve(mv[:, None])[:, 0]
        a = np.einsum("i,i->", mv, z)
        z = z - a * v - b_prev * v_prev
        b = np.sqrt(np.einsum("i,i,i->", z, m, z))
        alpha.append(a)
        k = len(alpha)
        if b == 0.0:
            break
        if k % _LANCZOS_CHECK == 0:
            last = _tridiagonal_powers(np.array(alpha), np.array(beta), steps)[:, -1]
            if b * np.abs(last).sum() <= _LANCZOS_TOL:
                break
        beta.append(b)
        v_prev, v, b_prev = v, z / b, b
    return scale, np.array(alpha), np.array(beta), np.stack(basis)


def thermal_time_constant(trace: TransientTrace, die: int = 0) -> float:
    """Estimate the dominant time constant (s) from a step-response trace.

    Returns the time of the *first* crossing of 63.2 % of the final rise
    of the die-mean temperature.  Requires a trace driven by a constant
    power step; noisy or overshooting responses still return the first
    crossing (a sorted-search would silently assume monotonicity).
    """
    temps = trace.die_means[:, die]
    final = temps[-1]
    start = temps[0]
    if final <= start:
        raise ValueError("trace shows no temperature rise; drive it with a power step")
    target = start + 0.632 * (final - start)
    # final >= target, so a crossing always exists; argmax finds the first
    idx = int(np.argmax(temps >= target))
    return float(trace.times[idx])
