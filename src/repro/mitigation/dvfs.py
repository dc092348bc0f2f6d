"""Runtime DVFS mitigation (DATE-style temperature side-channel defense).

Where the paper's Sec. 6.2 defense reshapes the *heat path* (static dummy
thermal TSVs), a runtime defense reshapes the *power trace*: a DVFS
governor hops between discrete frequency/voltage operating points on a
pseudo-random per-module schedule, so the temperature an attacker samples
no longer tracks the modules' nominal activity (cf. the DATE paper on
DVFS-enabled MPSoCs, PAPERS.md).

The attack model mirrors the paper's Eq. 1 metric *in time*: the victim
executes a secret per-window activity sequence (the Gaussian activity
model of :mod:`repro.mitigation.activity`), the attacker records per-die
temperatures at the end of every governor window, and leakage is the
per-trace Pearson correlation (:func:`~repro.leakage.pearson.pearson`)
between the nominal per-window die power (the attacker's hypothesis)
and the observed temperature sequence.

The attacker reads only end-of-window die means, a linear functional of
the LTI backward-Euler response, so no trace is integrated: one
factorization and one Lanczos model of the step operator per die
(:meth:`~repro.thermal.transient.TransientSolver.die_mean_kernels`,
a few dozen one-column solves each, the dies' chains one after another) give
the die-mean impulse response, projected here onto the modules and summed
per window, and each trace is then a small dense convolution of its
per-module power deviations.  A trace's observed temperature is that
convolution plus a constant per (arm, die) operating point; the per-trace
Pearson r centres its inputs first, so the operating point cancels out
of every score and no steady state is solved.

Everything is deterministic in the seed: per-trace RNG
streams spawn from one :class:`numpy.random.SeedSequence`, and each
trace's convolution runs alone, so scores are byte-identical across
trace counts and process boundaries.  They equal forward integration of
every trace (``tests/oracles/transient.py``) within 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from ..leakage.pearson import pearson
from ..thermal.stack import stack_for_floorplan
from ..thermal.transient import TransientSolver
from .activity import module_power_basis
from .dummy_tsv import ACTIVITY_SIGMA, MitigationConfig

__all__ = ["DVFSReport", "evaluate_dvfs"]

#: the governor's deterministic operating-point schedule: discrete
#: frequency/voltage operating points, the lowest frequency scale (power
#: scales as ``scale ** 3``: P ~ f V^2 with V ~ f in the classic DVFS
#: regime), transient steps per governor dwell window, secret activity
#: windows per measured trace, and the backward-Euler step (seconds)
LEVELS = 3
MIN_SCALE = 0.6
PERIOD = 4
WINDOWS = 24
DT = 2e-3
#: the discrete frequency scales, lowest to nominal
SCALES = np.linspace(MIN_SCALE, 1.0, LEVELS)
SCALES.setflags(write=False)


@dataclass
class DVFSReport:
    """Leakage with and without the runtime governor, same traces."""

    #: per-trace per-die temporal Pearson r (Eq. 1 over windows),
    #: shape (traces, dies) — nominal power vs. observed temperature
    baseline_correlations: np.ndarray
    mitigated_correlations: np.ndarray
    traces: int = 0

    @property
    def baseline_score(self) -> float:
        return float(np.mean(np.abs(self.baseline_correlations)))

    @property
    def mitigated_score(self) -> float:
        return float(np.mean(np.abs(self.mitigated_correlations)))

    @property
    def reduction(self) -> float:
        """Score drop the governor bought (positive = less leakage)."""
        return self.baseline_score - self.mitigated_score


def _trace_streams(seed: int, trace: int) -> tuple:
    """(activity_rng, governor_rng) for one trace.

    Spawned from one root :class:`~numpy.random.SeedSequence` keyed by
    the trace index, so streams never depend on how many traces run or
    on which worker process runs them.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trace,))
    act_ss, gov_ss = ss.spawn(2)
    return np.random.default_rng(act_ss), np.random.default_rng(gov_ss)


def _activity(config: MitigationConfig, num_modules: int) -> tuple:
    """Per-trace per-window per-module activity, ``(traces, windows,
    modules)`` each: the secret nominal factors, and the same factors
    scaled by the governor's ``scale ** 3``."""
    shape = (WINDOWS, num_modules)
    nominal = np.empty((config.dvfs_traces, *shape))
    governed = np.empty_like(nominal)
    for tr in range(config.dvfs_traces):
        act_rng, gov_rng = _trace_streams(config.seed, tr)
        nominal[tr] = np.maximum(act_rng.normal(1.0, ACTIVITY_SIGMA, size=shape), 0.0)
        level_idx = gov_rng.integers(0, LEVELS, size=shape)
        governed[tr] = nominal[tr] * SCALES[level_idx] ** 3
    return nominal, governed


def _report(
    window_power: np.ndarray,
    base_temps: np.ndarray,
    governed_temps: np.ndarray,
) -> DVFSReport:
    """Score both arms: ``window_power`` is the attacker's nominal
    per-window die power and the temps are the end-of-window die means,
    all ``(traces, windows, dies)``."""
    traces, _, num_dies = window_power.shape

    def score(temps: np.ndarray) -> np.ndarray:
        per_trace = np.empty((traces, num_dies))
        for d in range(num_dies):
            for tr in range(traces):
                per_trace[tr, d] = pearson(window_power[tr, :, d], temps[tr, :, d])
        return per_trace

    return DVFSReport(
        baseline_correlations=score(base_temps),
        mitigated_correlations=score(governed_temps),
        traces=traces,
    )


def evaluate_dvfs(
    floorplan: Floorplan3D,
    config: MitigationConfig | None = None,
    *,
    topology=None,
) -> DVFSReport:
    """Score the runtime DVFS governor against the no-governor baseline.

    Each of ``config.dvfs_traces`` traces drives the stack with a secret
    per-window Gaussian activity sequence, once at nominal frequency and
    once through the governor; the attacker correlates nominal
    per-window die power with end-of-window die temperatures.
    Each arm is observed as its fluctuation around the operating point of
    its mean power (nominal mean for the baseline, governor mean
    ``E[scale^3]`` for the mitigated arm): a convolution of the trace's
    per-module power deviations with window response kernels (see the
    module doc).  That operating point is a constant per (arm, die), and
    every score centres its inputs first, so it is never computed; the
    fluctuations carry the activity signal, not the ambient-to-operating
    ramp that would swamp both arms.

    The stack is analysed on the ``config.grid_nx`` x ``config.grid_ny``
    grid; ``topology`` selects the stack style (2.5D governors modulate
    the same way; only the heat path differs).
    """
    config = config or MitigationConfig(mode="dvfs")
    grid = GridSpec(floorplan.stack.outline, config.grid_nx, config.grid_ny)
    names = sorted(floorplan.placements)
    num_dies = floorplan.stack.num_dies
    basis = module_power_basis(floorplan, grid, names)  # per die: (M, cells)
    mean_s3 = float(np.mean(SCALES ** 3))

    # die-mean impulse responses, projected onto the modules
    # (steps, modules, dies), then summed over each window's steps:
    # window_kernels[L] maps one window of per-module power deviation to
    # the die means read L windows later
    kernels = TransientSolver(
        stack_for_floorplan(floorplan, grid, topology)
    ).die_mean_kernels(DT, WINDOWS * PERIOD)
    module_kernels = sum(basis[s] @ kernels[:, s] for s in range(num_dies))
    window_kernels = module_kernels.reshape(
        WINDOWS, PERIOD, len(names), num_dies
    ).sum(axis=1)

    def observe(deviation: np.ndarray) -> np.ndarray:
        """End-of-window die-mean rises over the operating point,
        (traces, windows, dies); each trace convolves alone so its bytes
        never depend on the trace count."""
        rises = np.zeros((len(deviation), WINDOWS, num_dies))
        for rise, dev in zip(rises, deviation):
            for lag in range(WINDOWS):
                rise[lag:] += dev[: WINDOWS - lag] @ window_kernels[lag]
        return rises

    nominal, governed = _activity(config, len(names))
    # nominal per-window per-die power totals — the attacker's hypothesis
    module_die_power = np.stack([b.sum(axis=1) for b in basis], axis=1)
    window_power = np.stack([n @ module_die_power for n in nominal])
    return _report(
        window_power,
        observe(nominal - 1.0),
        observe(governed - mean_s3),
    )
