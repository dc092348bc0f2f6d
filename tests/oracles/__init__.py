"""Reference implementations the production kernels must reproduce.

These are the historical per-module, per-net, per-TSV, per-class and
per-sample loops, the object-level HPWL and scalar Elmore delays, the
forward-integrated DVFS traces, the scipy blur, the factorized
calibration and the SuperLU direct backend, kept out of ``src/`` so there is one
production path per kernel, plus the SVF leakage metric the attack
tests cross-check with.  Tests import them as
``from oracles.<module> import ...``.
"""
