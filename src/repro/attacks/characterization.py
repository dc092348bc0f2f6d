"""Attack 1: thermal characterization of the 3D IC (Sec. 5).

"Step by step, the attacker will apply a broad and varied range of input
patterns in order to trigger as many activity patterns as possible.  By
monitoring the TSC, he/she can then build a model for the thermal
behaviour of the 3D IC."

We realize the model as ridge regression from input-pattern bits to
per-bin temperatures, trained on observed (pattern, readout) pairs and
scored by predictive R^2 on held-out patterns.  A well-characterized
device (high R^2) lets the attacker predict — and hence invert — thermal
behaviour; decorrelated designs drive the score down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .device import ThermalDevice

__all__ = ["CharacterizationResult", "characterize"]

#: ridge penalty of the attacker's per-bin regression
RIDGE = 1e-3


@dataclass
class CharacterizationResult:
    """Attack outcome."""

    #: predictive R^2 of the fitted thermal model on held-out patterns
    r2: float
    #: per-bin R^2 map (diagnostic: where the device is most predictable)
    r2_map: np.ndarray
    train_patterns: int
    test_patterns: int


def _random_patterns(
    rng: np.random.Generator, count: int, bits: int
) -> List[Tuple[int, ...]]:
    return [tuple(int(b) for b in rng.integers(0, 2, size=bits)) for _ in range(count)]


def characterize(
    device: ThermalDevice,
    train_patterns: int = 48,
    test_patterns: int = 16,
    seed: int = 0,
) -> CharacterizationResult:
    """Run the characterization attack against the device's bottom die
    (die 0).

    The attacker observes ``train_patterns`` random input patterns, fits
    the linear thermal model T(bin) = w0 + sum_k w_k * bit_k, and is
    scored on ``test_patterns`` fresh patterns.
    """
    rng = np.random.default_rng(seed)
    bits = device.num_bits
    train = _random_patterns(rng, train_patterns, bits)
    test = _random_patterns(rng, test_patterns, bits)

    def design(patterns: Sequence[Tuple[int, ...]]) -> np.ndarray:
        x = np.asarray(patterns, dtype=float)
        return np.hstack([np.ones((x.shape[0], 1)), x])

    y_train = device.observe_many(train).reshape(train_patterns, -1)
    y_test = device.observe_many(test).reshape(test_patterns, -1)
    x_train = design(train)
    x_test = design(test)

    # ridge regression, one weight vector per thermal bin (shared solve)
    gram = x_train.T @ x_train + RIDGE * np.eye(bits + 1)
    weights = np.linalg.solve(gram, x_train.T @ y_train)
    pred = x_test @ weights

    resid = ((y_test - pred) ** 2).sum(axis=0)
    total = ((y_test - y_test.mean(axis=0)) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2_bins = np.where(total > 0, 1.0 - resid / total, 0.0)
    r2_bins = np.clip(r2_bins, -1.0, 1.0)
    shape = device.grid.shape
    return CharacterizationResult(
        r2=float(np.mean(r2_bins)),
        r2_map=r2_bins.reshape(shape),
        train_patterns=train_patterns,
        test_patterns=test_patterns,
    )
