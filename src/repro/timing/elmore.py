"""Elmore delay models for wires and TSVs.

The voltage-assignment stage needs per-net delay estimates "via the
well-known Elmore delays (here with consideration of wires and TSVs)"
(Sec. 6.1).  We model each net as a lumped RC line of its 3D HPWL plus
the R/C of every TSV crossing:

    d_net = R_drv * C_total + 0.5 * R_wire * C_wire + R_tsv_chain * C_after

with per-length parasitics representative of a 90 nm global metal layer.
Delays are in nanoseconds throughout (matching Table 2's ns scale).
:func:`net_delay_ns` is the one copy of the formula: it takes one net's
scalars or per-net arrays (what :meth:`~repro.timing.paths.TimingGraph.net_delays`
passes), with the same operation order either way, so an array call is
byte-identical to a per-net loop of scalar calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WireTechnology", "DEFAULT_TECH", "net_delay_ns"]


@dataclass(frozen=True)
class WireTechnology:
    """Per-unit parasitics of the routing stack and TSVs (90 nm-like)."""

    r_wire_ohm_per_um: float = 0.10
    c_wire_ff_per_um: float = 0.20
    r_driver_ohm: float = 200.0
    c_sink_ff: float = 5.0
    r_tsv_ohm: float = 0.05
    c_tsv_ff: float = 50.0

    def __post_init__(self) -> None:
        for field_name in (
            "r_wire_ohm_per_um",
            "c_wire_ff_per_um",
            "r_driver_ohm",
            "c_sink_ff",
            "r_tsv_ohm",
            "c_tsv_ff",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


DEFAULT_TECH = WireTechnology()


def net_delay_ns(
    hpwl_um: float | np.ndarray,
    num_sinks: int | np.ndarray,
    tsv_crossings: int | np.ndarray = 0,
    tech: WireTechnology = DEFAULT_TECH,
) -> float | np.ndarray:
    """Elmore delay in ns of one net, or of every net when given arrays.

    ``hpwl_um`` is the net's 3D half-perimeter wirelength (TSV hops
    included); ``num_sinks`` its sink count (at least one is charged);
    ``tsv_crossings`` the number of die boundaries crossed.  The lumped
    first-order model is standard for floorplanning-stage estimation — the
    net topology is unknown before routing.
    """
    if any(np.any(np.asarray(v) < 0) for v in (hpwl_um, num_sinks, tsv_crossings)):
        raise ValueError("net parameters must be non-negative")
    r_wire = tech.r_wire_ohm_per_um * hpwl_um
    c_wire = tech.c_wire_ff_per_um * hpwl_um
    c_sinks = tech.c_sink_ff * np.maximum(1, num_sinks)
    c_tsv = tech.c_tsv_ff * tsv_crossings
    r_tsv = tech.r_tsv_ohm * tsv_crossings
    c_total = c_wire + c_sinks + c_tsv
    # ohm * fF = 1e-15 s = 1e-6 ns
    delay_fs = (
        tech.r_driver_ohm * c_total
        + 0.5 * r_wire * (c_wire + c_tsv)
        + r_wire * c_sinks
        + r_tsv * (c_sinks + 0.5 * c_tsv)
    )
    return delay_fs * 1e-6
