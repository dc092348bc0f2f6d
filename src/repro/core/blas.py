"""One BLAS thread for the length of a flow.

A flow's BLAS work is small (band tiles up to 320 wide, DCT products of
24-130 columns), and a second OpenBLAS thread makes it slower and
erratic on a 2-core host; it also moves a record's floats by a few ulps
with the host's thread count.  :func:`one_blas_thread` holds every
OpenBLAS copy in the process (numpy's ``libscipy_openblas64_``, scipy's
``libscipy_openblas``, found once in ``/proc/self/maps``) at one thread,
whatever ``OPENBLAS_NUM_THREADS`` says, and restores the previous
counts on exit.  Entries are counted under a lock, so concurrent flows
on one process's threads nest.  Where no copy exports a thread setter,
nothing changes and each entry counts a ``blas.threads_unpinned``
degradation.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from .faults import record_degradation

__all__ = ["one_blas_thread"]

_LOCK = threading.Lock()
#: ``(get, set)`` thread-count calls per OpenBLAS copy; None until the
#: first entry looks them up
_CONTROLS: Optional[List[Tuple[Callable[[], int], Callable[[int], None]]]] = None
_depth = 0
_saved: List[int] = []


def _bind(lib: ctypes.CDLL):
    """The library's ``(get, set)`` thread-count pair: the scipy wheels'
    prefixed names or plain OpenBLAS's, each with or without the ``64_``
    suffix of a 64-bit-integer build."""
    for name in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{name}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _discover() -> list:
    """The thread controls of every OpenBLAS copy mapped into the process."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]}
    controls = [_bind(ctypes.CDLL(path)) for path in sorted(paths)]
    return [c for c in controls if c is not None]


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold every OpenBLAS copy at one thread inside the block."""
    global _CONTROLS, _depth, _saved
    with _LOCK:
        if _CONTROLS is None:
            _CONTROLS = _discover()
        controls = _CONTROLS
        if not controls:
            record_degradation("blas.threads_unpinned")
        elif _depth == 0:
            _saved = [get() for get, _ in controls]
            for _, set_ in controls:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(controls, _saved):
                    set_(count)
