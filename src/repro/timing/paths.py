"""Static timing estimation over the floorplanned netlist.

Block-packing benchmarks carry no signal directions or register
placement, so we adopt the standard block-level abstraction: every IP
module registers its boundary pins.  A timing path then consists of one
module's internal critical path plus one attached net:

    through(m) = d(m) * delay_scale(V_m) + max_{nets n at m} d_net(n)
    T_crit     = max_m through(m)

This matches the paper's usage — it needs per-module *slacks* to decide
feasible voltage sets ("the more slack a module has, the lower the
voltage we may apply", Sec. 6.1) and a critical-delay figure per layout
(Table 2's 0.8-3.8 ns range at 90 nm, which is a registered block-to-block
scale, not a thousand-module combinational chain).

The evaluation is fully vectorized over the compiled pin incidence of a
:class:`~repro.layout.net.CompiledNetlist` — the same pins, per-net
extents and sink counts the wirelength reads — so it can run inside the
annealing loop.  Per-net delays are :func:`~repro.timing.elmore.net_delay_ns`
over the netlist's module-pin HPWL (terminals count as sinks, not as
wire extent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..layout.net import CompiledNetlist
from ..power.voltages import scaled_delay
from .elmore import net_delay_ns

__all__ = ["TimingGraph", "TimingReport"]


@dataclass
class TimingReport:
    """Results of one timing evaluation."""

    critical_delay_ns: float
    #: worst path delay through each module (its delay + worst net at it)
    through_ns: Dict[str, float]
    #: Elmore delay per compiled net (diagnostic)
    net_delays_ns: np.ndarray


class TimingGraph:
    """Vectorized timing over a :class:`~repro.layout.net.CompiledNetlist`."""

    def __init__(self, netlist: CompiledNetlist) -> None:
        self.netlist = netlist
        self.module_names = netlist.module_names
        # pins per net: a per-net value repeated over its module pins
        self._pin_counts = np.diff(netlist.ptr)

    # -- geometry -> per-net delays ---------------------------------------------
    def net_delays(
        self,
        centers_x: np.ndarray,
        centers_y: np.ndarray,
        dies: np.ndarray,
    ) -> np.ndarray:
        """Elmore delay per net from module-center arrays."""
        nl = self.netlist
        hpwl, crossings = nl.net_hpwl(centers_x, centers_y, dies, terminals=False)
        return net_delay_ns(hpwl, nl.sink_counts, crossings)

    # -- evaluation ----------------------------------------------------------------
    def through_times(
        self,
        net_delays: np.ndarray,
        module_delays: np.ndarray,
    ) -> np.ndarray:
        """Vectorized through-time per module index."""
        worst_net = np.zeros(len(self.module_names))
        if net_delays.size:
            np.maximum.at(
                worst_net, self.netlist.pin_idx, np.repeat(net_delays, self._pin_counts)
            )
        return module_delays + worst_net

    def evaluate(self, floorplan: Floorplan3D) -> TimingReport:
        """Through times and critical delay for one placement, at its
        modules' supply voltages."""
        cx, cy, dd = floorplan.module_centers(self.module_names)
        nd = self.net_delays(cx, cy, dd)
        placements = [floorplan.placements[name] for name in self.module_names]
        mod_delays = scaled_delay(
            [p.module.intrinsic_delay for p in placements], [p.voltage for p in placements]
        )
        through = self.through_times(nd, mod_delays)
        report_through = dict(zip(self.module_names, through.tolist()))
        critical = float(through.max()) if through.size else 0.0
        return TimingReport(
            critical_delay_ns=critical,
            through_ns=report_through,
            net_delays_ns=nd,
        )

    def max_delay_inflation(
        self,
        centers_x: np.ndarray,
        centers_y: np.ndarray,
        dies: np.ndarray,
        delays: np.ndarray,
    ) -> np.ndarray:
        """Per-module maximum tolerable delay-scaling factor, per module
        index, from module-centre arrays and nominal module ``delays``.

        A module whose worst path has slack s against the target can let
        its own (nominal) delay grow by s, i.e. scale by
        ``1 + s / d_module``.  The target is the nominal (all-1.0 V)
        critical delay — voltage scaling must not degrade the design
        beyond its nominal timing.  A module without delay can scale
        without bound.
        """
        through = self.through_times(self.net_delays(centers_x, centers_y, dies), delays)
        # the slack is never negative, so no factor falls below 1
        with np.errstate(divide="ignore", invalid="ignore"):
            inflation = 1.0 + (through.max() - through) / delays
        return np.where(delays > 0, inflation, np.inf)
