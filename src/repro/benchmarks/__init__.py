"""Benchmark substrate (paper Table 1).

Synthetic circuit generation targeting the published module/net/power
figures, and the Table 1 suite (GSRC n100–n300, IBM-HB+ ibm01/03/07) the
paper floorplans in both setups.
"""

from .generator import BenchmarkCircuit, BenchmarkSpec, generate_circuit
from .suite import TABLE1, benchmark_names, load, spec_for

__all__ = [
    "BenchmarkCircuit",
    "BenchmarkSpec",
    "generate_circuit",
    "TABLE1",
    "benchmark_names",
    "load",
    "spec_for",
]
