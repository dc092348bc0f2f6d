"""Mitigation post-processing (paper Sec. 6.2, Fig. 4).

Gaussian activity sampling, the Eq. 2 correlation-stability map, and
the stability-guided dummy-TSV insertion loop with its sweet-spot stop
criterion — each candidate stack scored by one nominal solve, and only
the pattern a round sweeps factorized in symmetric mode.
:mod:`repro.mitigation.dvfs` adds the runtime counterpart: a seeded
DVFS governor that randomizes the power trace instead of the heat path,
scored with the same Eq. 1 metrics.
"""

from .activity import sample_power_maps
from .dummy_tsv import (
    MITIGATION_MODES,
    MitigationConfig,
    MitigationReport,
    insert_dummy_tsvs,
)
from .dvfs import DVFSReport, evaluate_dvfs

__all__ = [
    "sample_power_maps",
    "MITIGATION_MODES",
    "MitigationConfig",
    "MitigationReport",
    "insert_dummy_tsvs",
    "DVFSReport",
    "evaluate_dvfs",
]
