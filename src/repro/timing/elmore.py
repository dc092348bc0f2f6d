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

import numpy as np

__all__ = ["net_delay_ns"]

#: per-unit parasitics of the routing stack and TSVs (90 nm-like): wire
#: resistance (ohm/um) and capacitance (fF/um), driver resistance (ohm),
#: sink load (fF), and one TSV's resistance (ohm) and capacitance (fF)
R_WIRE_OHM_PER_UM = 0.10
C_WIRE_FF_PER_UM = 0.20
R_DRIVER_OHM = 200.0
C_SINK_FF = 5.0
R_TSV_OHM = 0.05
C_TSV_FF = 50.0


def net_delay_ns(
    hpwl_um: float | np.ndarray,
    num_sinks: int | np.ndarray,
    tsv_crossings: int | np.ndarray = 0,
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
    r_wire = R_WIRE_OHM_PER_UM * hpwl_um
    c_wire = C_WIRE_FF_PER_UM * hpwl_um
    c_sinks = C_SINK_FF * np.maximum(1, num_sinks)
    c_tsv = C_TSV_FF * tsv_crossings
    r_tsv = R_TSV_OHM * tsv_crossings
    c_total = c_wire + c_sinks + c_tsv
    # ohm * fF = 1e-15 s = 1e-6 ns
    delay_fs = (
        R_DRIVER_OHM * c_total
        + 0.5 * r_wire * (c_wire + c_tsv)
        + r_wire * c_sinks
        + r_tsv * (c_sinks + 0.5 * c_tsv)
    )
    return delay_fs * 1e-6
