"""Shared fixtures."""

import pytest

from repro.thermal import backends
from repro.thermal.backends.spectral import SpectralBackend
from repro.thermal.backends.superlu import SuperLUBackend


@pytest.fixture
def pin_backend(monkeypatch):
    """The reference axis of record tests: ``pin_backend(backend)`` makes
    the automatic rule of :mod:`repro.thermal.backends` hand ``backend``
    (an instance) to every system resolved in this process from then on,
    and returns the set of backend names that factor a system from then
    on, so the test can assert that the pinned backend actually ran.
    ``pin_backend(None)`` restores the rule."""
    factored: set = set()
    for cls in (SuperLUBackend, SpectralBackend):

        def factor(self, *args, _original=cls.factor, **kwargs):
            factored.add(self.name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "factor", factor)
    rule = backends._auto_backend

    def pin(backend):
        monkeypatch.setattr(
            backends,
            "_auto_backend",
            rule if backend is None else lambda cells_per_layer, rhs_budget: backend,
        )
        factored.clear()
        return factored

    return pin
