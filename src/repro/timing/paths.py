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

The evaluation is fully vectorized over a compiled pin incidence, so it
can run inside the annealing loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..layout.floorplan import Floorplan3D
from ..power.voltages import scaled_delay
from .elmore import DEFAULT_TECH, WireTechnology, net_delay_ns

__all__ = ["TimingGraph", "TimingReport"]


@dataclass
class TimingReport:
    """Results of one timing evaluation."""

    critical_delay_ns: float
    #: worst path delay through each module (its delay + worst net at it)
    through_ns: Dict[str, float]
    #: Elmore delay per compiled net (diagnostic)
    net_delays_ns: np.ndarray

    def slack_ns(self, target_ns: float) -> Dict[str, float]:
        """Per-module slack against a target clock period."""
        return {m: target_ns - t for m, t in self.through_ns.items()}


class TimingGraph:
    """Compiled pin incidence for vectorized timing over placements."""

    def __init__(
        self,
        module_names: Sequence[str],
        nets: Sequence,
        tech: WireTechnology = DEFAULT_TECH,
        tsv_length_um: float = 50.0,
    ) -> None:
        self.tech = tech
        self.tsv_length_um = tsv_length_um
        self.module_names = list(module_names)
        self._index = {n: i for i, n in enumerate(self.module_names)}
        pin_mod: List[int] = []
        pin_net: List[int] = []
        ptr: List[int] = [0]
        sinks: List[int] = []
        net_id = 0
        for net in nets:
            mods = [m for m in net.modules if m in self._index]
            if not mods:
                continue
            for m in mods:
                pin_mod.append(self._index[m])
                pin_net.append(net_id)
            ptr.append(len(pin_mod))
            sinks.append(max(1, len(mods) - 1 + len(net.terminals)))
            net_id += 1
        self.pin_mod = np.asarray(pin_mod, dtype=np.int64)
        self.pin_net = np.asarray(pin_net, dtype=np.int64)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.sink_counts = np.asarray(sinks, dtype=np.int64)
        self.num_nets = len(self.sink_counts)

    # -- geometry -> per-net delays ---------------------------------------------
    def net_delays(
        self,
        centers_x: np.ndarray,
        centers_y: np.ndarray,
        dies: np.ndarray,
    ) -> np.ndarray:
        """Vectorized Elmore delay per net from module-center arrays."""
        if self.num_nets == 0:
            return np.zeros(0)
        starts = self.ptr[:-1]
        px = centers_x[self.pin_mod]
        py = centers_y[self.pin_mod]
        pd = dies[self.pin_mod]
        max_x = np.maximum.reduceat(px, starts)
        min_x = np.minimum.reduceat(px, starts)
        max_y = np.maximum.reduceat(py, starts)
        min_y = np.minimum.reduceat(py, starts)
        crossings = (
            np.maximum.reduceat(pd, starts) - np.minimum.reduceat(pd, starts)
        ).astype(float)
        hpwl = (max_x - min_x) + (max_y - min_y) + crossings * self.tsv_length_um
        # vectorized form of elmore.net_delay_ns
        t = self.tech
        r_wire = t.r_wire_ohm_per_um * hpwl
        c_wire = t.c_wire_ff_per_um * hpwl
        c_sinks = t.c_sink_ff * self.sink_counts
        c_tsv = t.c_tsv_ff * crossings
        r_tsv = t.r_tsv_ohm * crossings
        c_total = c_wire + c_sinks + c_tsv
        delay_fs = (
            t.r_driver_ohm * c_total
            + 0.5 * r_wire * (c_wire + c_tsv)
            + r_wire * c_sinks
            + r_tsv * (c_sinks + 0.5 * c_tsv)
        )
        return delay_fs * 1e-6

    def _arrays_from_floorplan(
        self, floorplan: Floorplan3D
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.module_names)
        cx = np.zeros(n)
        cy = np.zeros(n)
        dd = np.zeros(n, dtype=np.int64)
        for name, idx in self._index.items():
            p = floorplan.placements.get(name)
            if p is None:
                continue
            x, y = p.center
            cx[idx] = x
            cy[idx] = y
            dd[idx] = p.die
        return cx, cy, dd

    # -- evaluation ----------------------------------------------------------------
    def through_times(
        self,
        net_delays: np.ndarray,
        module_delays: np.ndarray,
    ) -> np.ndarray:
        """Vectorized through-time per module index."""
        worst_net = np.zeros(len(self.module_names))
        if net_delays.size:
            np.maximum.at(worst_net, self.pin_mod, net_delays[self.pin_net])
        return module_delays + worst_net

    def evaluate(
        self,
        floorplan: Floorplan3D,
        voltages: Mapping[str, float] | None = None,
    ) -> TimingReport:
        """Through times and critical delay for one placement."""
        cx, cy, dd = self._arrays_from_floorplan(floorplan)
        nd = self.net_delays(cx, cy, dd)
        intrinsic = np.zeros(len(self.module_names))
        volts = np.ones(len(self.module_names))
        for name, idx in self._index.items():
            p = floorplan.placements.get(name)
            if p is None:
                continue
            intrinsic[idx] = p.module.intrinsic_delay
            volts[idx] = voltages[name] if voltages and name in voltages else p.voltage
        mod_delays = scaled_delay(intrinsic, volts.tolist())
        through = self.through_times(nd, mod_delays)
        report_through = {
            name: float(through[idx]) for name, idx in self._index.items()
        }
        critical = float(through.max()) if through.size else 0.0
        return TimingReport(
            critical_delay_ns=critical,
            through_ns=report_through,
            net_delays_ns=nd,
        )

    def max_delay_inflation(
        self, floorplan: Floorplan3D, target_ns: float | None = None
    ) -> Dict[str, float]:
        """Per-module maximum tolerable delay-scaling factor.

        A module whose worst path has slack s against the target can let
        its own (nominal) delay grow by s, i.e. scale by
        ``1 + s / d_module``.  The target defaults to the nominal
        (all-1.0 V) critical delay — voltage scaling must not degrade the
        design beyond its nominal timing.
        """
        nominal = self.evaluate(
            floorplan, voltages={n: 1.0 for n in floorplan.placements}
        )
        if target_ns is None:
            target_ns = nominal.critical_delay_ns
        out: Dict[str, float] = {}
        for name, p in floorplan.placements.items():
            d_mod = p.module.intrinsic_delay
            slack = target_ns - nominal.through_ns.get(name, 0.0)
            if d_mod <= 0:
                out[name] = float("inf")
            else:
                out[name] = max(1.0, 1.0 + slack / d_mod)
        return out
