#!/usr/bin/env python3
"""Reproduce the Sec. 3 / Fig. 2 exploratory study.

Crosses the five power distributions with the six TSV distributions on a
two-die 3D IC and prints the bottom-die power-temperature correlation of
every combination, followed by the paper's key findings evaluated on the
grid.
"""

from collections import defaultdict

from repro.core.config import env_int
from repro.exploration import pattern_names, run_exploration, summarize_findings


def main() -> None:
    grid_n = env_int("REPRO_GRID", 32)
    cells = run_exploration(grid_n=grid_n, seed=2)

    matrix = defaultdict(dict)
    for cell in cells:
        matrix[cell.power_pattern][cell.tsv_pattern] = cell
    power_names, tsv_names = pattern_names()

    print("bottom-die correlation r1 (power x TSV distribution):\n")
    label = "power / tsv"
    header = f"{label:<20}" + "".join(f"{t[:14]:>16}" for t in tsv_names)
    print(header)
    print("-" * len(header))
    for p in power_names:
        row = "".join(f"{matrix[p][t].r_bottom:>16.3f}" for t in tsv_names)
        print(f"{p:<20}{row}")

    print("\npeak temperature [K]:\n")
    for p in power_names:
        row = "".join(f"{matrix[p][t].peak_k:>16.1f}" for t in tsv_names)
        print(f"{p:<20}{row}")

    print("\nSec. 3 findings (mean |r| over both dies):")
    for key, value in summarize_findings(cells).items():
        print(f"  {key:<34} {value:.3f}")
    print(
        "\nExpected shape (paper): uniform power lowest; large gradients and\n"
        "regularly arranged TSVs highest; TSV islands with locally-uniform\n"
        "or gradient power decorrelate."
    )


if __name__ == "__main__":
    main()
