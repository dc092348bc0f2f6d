"""Reference loop implementations the array-native production kernels
must reproduce bit for bit.

These are the historical per-net, per-TSV and per-class loops, kept out
of ``src/`` so there is one production path per kernel.  Tests import
them as ``from oracles.<module> import ...``.
"""
