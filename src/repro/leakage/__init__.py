"""Leakage metrics (paper Eq. 1-3).

Eq. 1 power-temperature Pearson correlation, Eq. 2 correlation
stability across activity samples, and Eq. 3 nested-means spatial
entropy.
"""

from .entropy import nested_means_classes, spatial_entropy
from .pearson import die_correlation, local_correlation_map, pearson
from .stability import most_stable_bins, stability_map

__all__ = [
    "nested_means_classes",
    "spatial_entropy",
    "die_correlation",
    "local_correlation_map",
    "pearson",
    "most_stable_bins",
    "stability_map",
]
