"""Per-net loop oracles for 3D HPWL and Elmore net delays.

These are the object-level wirelength the floorplan record used to sum
one net at a time, and the per-net scalar Elmore delay over the same
module-pin box :class:`~repro.timing.paths.TimingGraph` measures.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple

from repro.layout.module import Placement
from repro.layout.net import Net, Terminal
from repro.timing.elmore import net_delay_ns


def net_hpwl_3d(
    net: Net,
    placements: Mapping[str, Placement],
    terminals: Mapping[str, Terminal],
    tsv_length: float,
) -> Tuple[float, int]:
    """``(wirelength_um, crossings)`` of one net.

    The planar half-perimeter over all pin positions (module centres,
    then terminals) plus ``crossings * tsv_length``, where the crossing
    count is the die span of the net's module pins.
    """
    xs: List[float] = []
    ys: List[float] = []
    dies = set()
    for name in net.modules:
        p = placements[name]
        cx, cy = p.center
        xs.append(cx)
        ys.append(cy)
        dies.add(p.die)
    for name in net.terminals:
        t = terminals[name]
        xs.append(t.x)
        ys.append(t.y)
    if not xs:
        return 0.0, 0
    hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
    crossings = (max(dies) - min(dies)) if dies else 0
    return hpwl + crossings * tsv_length, crossings


def total_hpwl(
    nets: Iterable[Net],
    placements: Mapping[str, Placement],
    terminals: Mapping[str, Terminal],
    tsv_length: float,
) -> Tuple[float, int]:
    """Total 3D HPWL and total die crossings, summed one net at a time."""
    total = 0.0
    total_crossings = 0
    for net in nets:
        wl, crossings = net_hpwl_3d(net, placements, terminals, tsv_length)
        total += wl
        total_crossings += crossings
    return total, total_crossings


def net_delays_loop(
    nets: Iterable[Net],
    placements: Mapping[str, Placement],
    tsv_length: float,
) -> List[float]:
    """Scalar Elmore delay of every net with a module pin, in net order:
    the module pins' HPWL (terminals widen no box but count as sinks)."""
    out = []
    for net in nets:
        mods = [m for m in net.modules if m in placements]
        if not mods:
            continue
        xs = [placements[m].center[0] for m in mods]
        ys = [placements[m].center[1] for m in mods]
        dies = [placements[m].die for m in mods]
        crossings = max(dies) - min(dies)
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys)) + crossings * tsv_length
        sinks = max(1, len(mods) - 1 + len(net.terminals))
        out.append(net_delay_ns(hpwl, sinks, crossings))
    return out
