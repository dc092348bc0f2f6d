"""Fast in-loop thermal estimation by power blurring (Corblivar's role).

Corblivar continuously estimates temperatures inside the annealing loop by
convolving per-die power maps with pre-characterized thermal impulse
responses ("power blurring").  We reproduce that: the temperature map of
die *t* is

    T_t = T_amb + sum_s conv2(P_s * atten_s, gaussian(a_{s,t}, sigma_{s,t}))

where the attenuation ``atten_s = 1 - beta * tsv_density`` models TSVs
locally shunting heat away from the active layers (the "heat pipe" effect,
Sec. 3).  Mask parameters are either the calibrated defaults below or are
fitted against the detailed solver with :func:`calibrate` — mirroring how
Corblivar calibrates its masks against HotSpot, and like the paper we
treat the fast model as *inferior but cheap* and verify final results with
the detailed analysis (Sec. 6).

A blur is two matrix products, ``B_y @ P @ B_xᵀ``, with the
replicate-edge operators of :func:`_blur_operator`; the model builds each
``(sigma, axis length)`` operator once.  The result agrees with
``scipy.ndimage.gaussian_filter(mode="nearest")`` to a stated relative
tolerance (``tests/test_fast_thermal.py``), not bit for bit, and a cold
process never imports ``scipy.ndimage``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..layout.grid import GridSpec

__all__ = [
    "MaskParams",
    "FastThermalModel",
    "calibrate",
    "gaussian_blur",
    "per_die_attenuation",
]


def _half_kernel(sigma: float) -> np.ndarray:
    """scipy's Gaussian weights from the centre outward: ``exp(-0.5 /
    sigma^2 * x^2)`` over ``|x| <= int(4 sigma + 0.5)``, divided by their
    sum."""
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[radius:]


def _blur_operator(sigma: float, n: int) -> np.ndarray:
    """The replicate-edge Gaussian blur of an ``n``-cell axis as an
    ``(n, n)`` matrix: row ``i`` holds output cell ``i``'s weight on
    every input cell.

    The weights are scipy's (:func:`_half_kernel`, mirrored); a tap past
    either end lands on the edge cell, so a kernel wider than the axis
    needs no special case.
    """
    half = _half_kernel(sigma)
    taps = np.concatenate([half[:0:-1], half])
    offsets = np.arange(1 - len(half), len(half))
    rows = np.repeat(np.arange(n), len(taps))
    cols = np.clip(rows + np.tile(offsets, n), 0, n - 1)
    operator = np.zeros((n, n))
    np.add.at(operator, (rows, cols), np.tile(taps, n))
    return operator


def gaussian_blur(image, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, edges replicated.

    ``B_y @ P @ B_xᵀ`` with :func:`_blur_operator` matrices: within a
    stated relative tolerance (``tests/test_fast_thermal.py``) of
    ``scipy.ndimage.gaussian_filter(image, sigma, mode="nearest")`` on a
    2-D float map; a stack ``(..., ny, nx)`` blurs each map independently,
    exactly as one map.  The result is C-ordered.
    """
    image = np.asarray(image, dtype=float)
    ny, nx = image.shape[-2:]
    return _blur_operator(sigma, ny) @ image @ _blur_operator(sigma, nx).T


def _validated_shapes(power_maps: Sequence[np.ndarray], num_dies: int) -> Tuple[int, int]:
    """Common shape of the power maps; every die's map is checked."""
    if len(power_maps) != num_dies:
        raise ValueError(f"expected {num_dies} power maps, got {len(power_maps)}")
    shape = np.asarray(power_maps[0]).shape
    for d, pm in enumerate(power_maps):
        if np.asarray(pm).shape != shape:
            raise ValueError(
                f"power map for die {d}: shape {np.asarray(pm).shape} != {shape}"
            )
    return shape


def per_die_attenuation(
    num_dies: int,
    shape: Tuple[int, int],
    tsv_density,
    beta: float,
) -> List[np.ndarray]:
    """Per-source-die heat-pipe attenuation maps from TSV densities.

    ``tsv_density`` accepts the same forms as the detailed solver:

    * ``None`` — no attenuation anywhere;
    * a single array — the (0, 1) interface; it attenuates dies 0 and 1
      (for two-die stacks this is every die, matching the historical
      behaviour; taller stacks no longer wrongly attenuate upper dies);
    * a mapping ``{(d, d+1): array}`` or a sequence of ``num_dies - 1``
      per-pair arrays — die ``s`` is attenuated by the element-wise
      maximum of its adjacent interfaces' densities;
    * a sequence of ``num_dies`` arrays — explicit per-die densities.

    Each returned map is ``1 - beta * clip(density, 0, 1)``.
    """
    ones = np.ones(shape)
    if tsv_density is None:
        return [ones] * num_dies

    def atten(density: np.ndarray) -> np.ndarray:
        density = np.asarray(density, dtype=float)
        if density.shape != tuple(shape):
            raise ValueError(
                f"tsv_density shape {density.shape} != power-map shape {tuple(shape)}"
            )
        return 1.0 - beta * np.clip(density, 0.0, 1.0)

    if isinstance(tsv_density, np.ndarray):
        pair_densities: Dict[Tuple[int, int], np.ndarray] = {(0, 1): tsv_density}
    elif isinstance(tsv_density, Mapping):
        pair_densities = {}
        for p, arr in tsv_density.items():
            pair = (int(p[0]), int(p[1]))
            # same adjacency rule as normalize_tsv_densities, so the fast
            # model and the detailed solver reject the same inputs
            if pair[1] != pair[0] + 1 or not 0 <= pair[0] < num_dies - 1:
                raise ValueError(
                    f"tsv_density pair {pair} is not an adjacent pair of a "
                    f"{num_dies}-die stack"
                )
            pair_densities[pair] = arr
    elif isinstance(tsv_density, Sequence):
        arrs = list(tsv_density)
        if len(arrs) == num_dies:
            # explicit per-die densities
            return [atten(a) for a in arrs]
        if len(arrs) == max(1, num_dies - 1):
            pair_densities = {(d, d + 1): arr for d, arr in enumerate(arrs)}
        else:
            raise ValueError(
                f"{len(arrs)} density maps given; expected {num_dies} per-die "
                f"or {max(1, num_dies - 1)} per-pair maps"
            )
    else:
        raise TypeError(
            "tsv_density must be None, an array, a {pair: array} mapping, or "
            f"a sequence of arrays (got {type(tsv_density).__name__})"
        )

    out: List[np.ndarray] = []
    for s in range(num_dies):
        adjacent = [
            np.clip(np.asarray(arr, dtype=float), 0.0, 1.0)
            for pair, arr in pair_densities.items()
            if s in pair
        ]
        if not adjacent:
            out.append(ones)
            continue
        density = adjacent[0]
        for extra in adjacent[1:]:
            density = np.maximum(density, extra)
        out.append(atten(density))
    return out


@dataclass(frozen=True)
class MaskParams:
    """Impulse-response parameters for one (source, target) die pair.

    The response is a sum of two Gaussians: a *local* component
    (``amplitude``, ``sigma``) capturing nearby self-heating, and a wide
    *global* component (``amplitude_global``, ``sigma_global``) capturing
    the long-range spreading through bulk silicon, spreader, and sink that
    produces the dome-shaped background rise.  Amplitudes are in K per
    (W/cell) at the impulse centre; sigmas in cells.
    """

    amplitude: float
    sigma: float
    amplitude_global: float = 0.0
    sigma_global: float = 10.0

    def __post_init__(self) -> None:
        if self.amplitude < 0 or self.sigma <= 0:
            raise ValueError("mask requires amplitude >= 0 and sigma > 0")
        if self.amplitude_global < 0 or self.sigma_global <= 0:
            raise ValueError("global component requires amplitude >= 0 and sigma > 0")


def _gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    ax = np.arange(-radius, radius + 1)
    xx, yy = np.meshgrid(ax, ax)
    kern = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return kern / kern.sum()


@dataclass
class FastThermalModel:
    """Power-blurring estimator for a fixed number of dies.

    ``masks[(s, t)]`` holds the impulse response from source die s to
    target die t.  ``tsv_beta`` scales the local attenuation by TSV
    density; larger beta = stronger heat-pipe effect.
    """

    num_dies: int = 2
    masks: Dict[Tuple[int, int], MaskParams] = field(default_factory=dict)
    tsv_beta: float = 0.45
    ambient: float = 293.0
    #: read-only :func:`_blur_operator` matrices by ``(sigma, axis
    #: length)``, built on first use; one model serves every estimate of
    #: a (stack, grid), so each is built once
    _operators: Dict[Tuple[float, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.masks:
            self.masks = self.default_masks(self.num_dies)

    def _operator(self, sigma: float, n: int) -> np.ndarray:
        operator = self._operators.get((sigma, n))
        if operator is None:
            operator = _blur_operator(sigma, n)
            operator.setflags(write=False)
            self._operators[(sigma, n)] = operator
        return operator

    @staticmethod
    def default_masks(num_dies: int) -> Dict[Tuple[int, int], MaskParams]:
        """Defaults calibrated against the detailed solver on a 64x64 grid
        of a 4x4 mm two-die stack (see ``calibrate``).

        Self-heating dominates and weakens toward the heatsink (die 0,
        farthest from the sink, heats most per watt); cross-die coupling
        through the bond layer is ~13x weaker and slightly wider.
        """
        masks: Dict[Tuple[int, int], MaskParams] = {}
        for s in range(num_dies):
            for t in range(num_dies):
                dist = abs(s - t)
                if dist == 0:
                    # 225 K/(W/cell) on the package-side die, decaying
                    # toward the sink-side die (calibrated: 225 vs 126)
                    masks[(s, t)] = MaskParams(
                        amplitude=225.0 * (0.56 ** s), sigma=3.5,
                        amplitude_global=5000.0, sigma_global=21.0,
                    )
                else:
                    masks[(s, t)] = MaskParams(
                        amplitude=17.0 * (0.6 ** (dist - 1)), sigma=3.5,
                        amplitude_global=4000.0, sigma_global=21.0,
                    )
        return masks

    def estimate(
        self,
        power_maps: Sequence[np.ndarray],
        tsv_density=None,
    ) -> List[np.ndarray]:
        """Per-die temperature maps (K) for the given power maps (W/cell).

        ``tsv_density`` takes any of the forms of
        :func:`per_die_attenuation`; the attenuation of each *source* die
        comes from the interfaces adjacent to it, consistent with the
        detailed solver (a single map is the (0, 1) interface and no
        longer attenuates dies beyond 0 and 1).
        """
        shape = _validated_shapes(power_maps, self.num_dies)
        atten = per_die_attenuation(self.num_dies, shape, tsv_density, self.tsv_beta)
        # attenuate each source once; reused across all target dies
        sources = [power_maps[s] * atten[s] for s in range(self.num_dies)]
        # blur each (source, sigma) once: targets sharing a sigma (the
        # global component always, the default local one too) reuse it.
        # Replicated edges mirror the solver's adiabatic lateral walls: no
        # heat (and no kernel mass) is lost over the die edge.
        ny, nx = shape
        blurred: Dict[Tuple[int, float], np.ndarray] = {}
        for s in range(self.num_dies):
            for t in range(self.num_dies):
                params = self.masks[(s, t)]
                sigmas = [params.sigma]
                if params.amplitude_global > 0:
                    sigmas.append(params.sigma_global)
                for sigma in sigmas:
                    if (s, sigma) not in blurred:
                        blurred[(s, sigma)] = (
                            self._operator(sigma, ny)
                            @ sources[s]
                            @ self._operator(sigma, nx).T
                        )
        out: List[np.ndarray] = []
        for t in range(self.num_dies):
            temp = np.full(shape, self.ambient, dtype=float)
            for s in range(self.num_dies):
                params = self.masks[(s, t)]
                response = params.amplitude * blurred[(s, params.sigma)]
                if params.amplitude_global > 0:
                    response = response + params.amplitude_global * blurred[
                        (s, params.sigma_global)
                    ]
                temp += response
            out.append(temp)
        return out


def calibrate(
    solver,
    grid: GridSpec,
    num_dies: int = 2,
    samples: int = 4,
    seed: int = 7,
    tsv_beta: float = 0.45,
) -> FastThermalModel:
    """Fit mask parameters against a detailed solver.

    ``solver`` needs only ``solve_many`` (per-die power-map sets in, a
    :class:`~repro.thermal.steady_state.ThermalResult` per set out, die
    maps in kelvin) and ``stack.ambient``, over the *same grid*:
    ``calibrated_thermal_model`` passes the spectral
    :func:`~repro.thermal.steady_state.calibration_solver`.  Each grid
    side needs at least 5 cells, since probe sources sit 2 cells clear of
    every edge.

    For each (source, target) die pair we apply random blotchy power maps
    to the source die only, solve in detail, and fit (amplitude, sigma) by
    matching the response's total energy and spatial second moment — a
    two-moment fit that is robust and needs no nonlinear optimizer.
    """
    rng = np.random.default_rng(seed)
    masks: Dict[Tuple[int, int], MaskParams] = {}
    shape = grid.shape
    sigma_global = max(6.0, min(shape) / 3.0)

    # global (long-range) component per (source, target): from a uniform
    # power sample; the mean rise not explained by the local kernel is
    # attributed to the wide kernel (sums are conserved by convolution)
    uniform = np.full(shape, 1.0 / (shape[0] * shape[1]))
    global_amp: Dict[Tuple[int, int], float] = {}
    mean_p = float(uniform.mean())
    # all calibration solves go through two batched multi-RHS calls: one
    # uniform probe per source die here, all random samples below
    uniform_results = solver.solve_many(
        [
            [uniform if d == s else np.zeros(shape) for d in range(num_dies)]
            for s in range(num_dies)
        ]
    )
    for s in range(num_dies):
        result = uniform_results[s]
        for t in range(num_dies):
            rise = float((result.die_maps[t] - solver.stack.ambient).mean())
            global_amp[(s, t)] = max(0.0, rise / mean_p)

    # draw all sample maps first (same rng order as the historical
    # per-solve loop: source-major, sample-minor), then solve the whole
    # (num_dies * samples)-column block at once
    sample_pms: List[np.ndarray] = []
    for s in range(num_dies):
        for _ in range(samples):
            pm = np.zeros(shape)
            # a handful of point-ish sources keeps the moment fit well posed
            for _ in range(6):
                j = int(rng.integers(2, shape[0] - 2))
                i = int(rng.integers(2, shape[1] - 2))
                pm[j, i] += float(rng.uniform(0.5, 2.0)) * 1e-3
            sample_pms.append(pm)
    sample_results = solver.solve_many(
        [
            [pm if d == s else np.zeros(shape) for d in range(num_dies)]
            for s in range(num_dies)
            for pm in sample_pms[s * samples : (s + 1) * samples]
        ]
    )

    for s in range(num_dies):
        amp_acc: Dict[int, List[float]] = {t: [] for t in range(num_dies)}
        sig_acc: Dict[int, List[float]] = {t: [] for t in range(num_dies)}
        for k in range(samples):
            pm = sample_pms[s * samples + k]
            result = sample_results[s * samples + k]
            for t in range(num_dies):
                rise = result.die_maps[t] - solver.stack.ambient
                total_rise = float(rise.sum())
                total_power = float(pm.sum())
                if total_rise <= 0 or total_power <= 0:
                    continue
                # peak response of an isolated source ~ amplitude * power;
                # use the brightest source cell as the anchor
                peak = float(rise.max())
                src_peak = float(pm.max())
                # second moment around the brightest cell estimates sigma
                jj, ii = np.unravel_index(int(np.argmax(rise)), shape)
                win = 6
                j0, j1 = max(0, jj - win), min(shape[0], jj + win + 1)
                i0, i1 = max(0, ii - win), min(shape[1], ii + win + 1)
                patch = rise[j0:j1, i0:i1]
                ys, xs = np.mgrid[j0:j1, i0:i1]
                w = np.clip(patch, 0, None)
                if w.sum() <= 0:
                    continue
                var = (
                    (w * ((ys - jj) ** 2 + (xs - ii) ** 2)).sum() / w.sum() / 2.0
                )
                sig = max(0.8, float(np.sqrt(max(var, 0.64))))
                # the model's centre response to a unit-cell source is
                # amplitude * g0 with g0 the normalized kernel's centre
                # weight — divide it out so scales match the solver
                radius = max(2, int(np.ceil(3.0 * sig)))
                g0 = float(_gaussian_kernel(sig, radius).max())
                amp_acc[t].append(peak / src_peak / g0)
                sig_acc[t].append(sig)
        for t in range(num_dies):
            if amp_acc[t]:
                local_amp = float(np.median(amp_acc[t]))
                local_sig = float(np.median(sig_acc[t]))
            else:
                fallback = FastThermalModel.default_masks(num_dies)[(s, t)]
                local_amp, local_sig = fallback.amplitude, fallback.sigma
            # the local kernel already contributes `local_amp * mean_p` of
            # mean rise; the wide kernel covers the remainder
            g_amp = max(0.0, global_amp[(s, t)] - local_amp)
            masks[(s, t)] = MaskParams(
                amplitude=local_amp,
                sigma=local_sig,
                amplitude_global=g_amp,
                sigma_global=sigma_global,
            )
    return FastThermalModel(num_dies=num_dies, masks=masks, tsv_beta=tsv_beta)
