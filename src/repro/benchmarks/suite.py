"""Registry of the paper's six benchmark instances (Table 1).

Each entry records the properties the paper reports; :func:`load` yields a
ready-to-floorplan :class:`~repro.benchmarks.generator.BenchmarkCircuit` plus
the matching :class:`~repro.layout.die.StackConfig` (fixed outline, two
dies).  The instances themselves are synthesized deterministically — see
``repro.benchmarks.generator`` and DESIGN.md for the substitution note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..layout.die import StackConfig
from .generator import BenchmarkCircuit, BenchmarkSpec, generate_circuit

__all__ = ["TABLE1", "benchmark_names", "spec_for", "load"]


#: Table 1 of the paper: name -> (hard, soft, scale, nets, terminals,
#: outline mm^2, power W).  The scale factor is already folded into the
#: generated module footprints.
TABLE1: Dict[str, BenchmarkSpec] = {
    "n100": BenchmarkSpec("n100", 0, 100, 10, 885, 334, 16.0, 7.83),
    "n200": BenchmarkSpec("n200", 0, 200, 10, 1585, 564, 16.0, 7.84),
    "n300": BenchmarkSpec("n300", 0, 300, 10, 1893, 569, 23.04, 13.05),
    "ibm01": BenchmarkSpec("ibm01", 246, 665, 2, 5829, 246, 25.0, 4.02),
    "ibm03": BenchmarkSpec("ibm03", 290, 999, 2, 10279, 283, 64.0, 19.78),
    "ibm07": BenchmarkSpec("ibm07", 291, 829, 2, 15047, 287, 64.0, 9.92),
}


def benchmark_names() -> List[str]:
    """Benchmark names in the paper's Table 1 order."""
    return list(TABLE1)


def spec_for(name: str) -> BenchmarkSpec:
    try:
        return TABLE1[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(TABLE1)}"
        ) from None


def load(name: str, num_dies: int = 2) -> Tuple[BenchmarkCircuit, StackConfig]:
    """Generate benchmark ``name`` and its stack configuration."""
    spec = spec_for(name)
    circuit = generate_circuit(spec, num_dies=num_dies)
    stack = StackConfig(spec.outline, num_dies=num_dies)
    return circuit, stack
