"""Timing substrate (the paper Sec. 6 / Table 2 delay constraints).

Elmore net delays (TSV hops included; one formula for one net or an
array of nets), area-derived intrinsic module delays, and the path
analysis behind Table 2's critical-delay column, run by `TimingGraph`
over a `repro.layout.CompiledNetlist` with 90 nm-like wire and TSV
parasitics.
"""

from .delay_model import K_DELAY_NS_PER_UM, ensure_intrinsic_delays
from .elmore import net_delay_ns
from .paths import TimingGraph, TimingReport

__all__ = [
    "K_DELAY_NS_PER_UM",
    "ensure_intrinsic_delays",
    "net_delay_ns",
    "TimingGraph",
    "TimingReport",
]
