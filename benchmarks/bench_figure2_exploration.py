"""E-F2 — Figure 2 / Sec. 3: the 30 power x TSV combinations.

Regenerates the exploratory grid behind Fig. 2 and asserts the paper's
initial findings:

(i)  non-uniform power with large gradients correlates strongly; the
     globally uniform distribution shows the lowest correlation;
(ii) TSV islands decorrelate gradient-type power maps, and adding
     regular TSV overlays re-homogenizes the structure and raises the
     correlation again.
"""

from collections import defaultdict

import pytest

from repro.core.config import env_int
from repro.exploration import pattern_names, run_exploration, summarize_findings


@pytest.fixture(scope="module")
def cells():
    grid_n = env_int("REPRO_GRID", 32)
    return run_exploration(grid_n=grid_n, seed=2)


def test_figure2_report(benchmark, cells):
    matrix = defaultdict(dict)
    for c in cells:
        matrix[c.power_pattern][c.tsv_pattern] = c
    power_names, tsv_names = pattern_names()

    print("\nFigure 2 / Sec. 3 — bottom-die correlation r1 per combination")
    label = "power / tsv"
    header = f"{label:<20}" + "".join(f"{t[:13]:>15}" for t in tsv_names)
    print(header)
    print("-" * len(header))
    for p in power_names:
        row = "".join(f"{matrix[p][t].r_bottom:>15.3f}" for t in tsv_names)
        print(f"{p:<20}{row}")

    findings = summarize_findings(cells)
    print("\ncondensed findings (mean |r| over both dies):")
    for key, value in findings.items():
        print(f"  {key:<34} {value:.3f}")

    # finding (i): uniform lowest, large gradients high
    assert findings["uniform_power"] < 0.2
    assert findings["large_gradients"] > 0.5
    assert findings["uniform_power"] < findings["large_gradients"]

    # finding (ii): islands decorrelate gradient power...
    for power in ("small_gradients", "medium_gradients"):
        none_r = abs(matrix[power]["none"].r_bottom)
        island_r = abs(matrix[power]["islands"].r_bottom)
        assert island_r < none_r, power
    # ...and regular overlays raise the correlation again (>= islands alone
    # for most gradient rows)
    raised = sum(
        1
        for power in ("small_gradients", "medium_gradients", "large_gradients")
        if abs(matrix[power]["islands_regular"].r_bottom)
        >= abs(matrix[power]["islands"].r_bottom) - 0.02
    )
    assert raised >= 2

    # dense regular TSVs keep large-gradient power highly correlated (the
    # paper's middle row is the highest-correlation scenario)
    assert abs(matrix["large_gradients"]["max_density"].r_bottom) >= abs(
        matrix["large_gradients"]["none"].r_bottom
    ) - 0.02
    benchmark(summarize_findings, cells)


def test_exploration_speed(benchmark):
    benchmark(run_exploration, 12, 1)
