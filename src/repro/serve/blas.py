"""Hold numpy's OpenBLAS pool at one thread while a server runs.

A serving process gets its parallelism from the server's ``workers``:
each worker thread runs the BLAS calls of its own batch.  OpenBLAS's
intra-op pool adds nothing there and costs a core — after every
multi-threaded call its worker busy-waits (about 0.1 s) for the next
one, and at tens of requests per second the next call always comes
first, so the worker spins for the whole run (``docs/serving.md``,
"CPU threads").

:data:`SERVING_BLAS` is the process-wide hold that
:class:`~repro.serve.server.InferenceServer` takes in ``start()`` and
releases in ``stop()``.  It is reference-counted, because an in-process
fleet runs several servers in one process, and the last release restores
the thread count the first acquire found.  Nothing happens at import:
the library is looked up on first use, and a numpy built on another BLAS
(MKL, Accelerate) turns every call into a no-op.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
import threading
from functools import lru_cache
from typing import List, Optional

import numpy

__all__ = ["OpenBLAS", "SingleThreadHold", "SERVING_BLAS", "blas_threads",
           "find_openblas"]

#: ``(setter, getter)`` symbol pairs, first match wins: scipy-openblas
#: wheels (64-bit ints, then 32-bit), then a plain OpenBLAS build.
_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


class OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS library."""

    def __init__(self, setter, getter) -> None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        self._set, self._get = setter, getter

    @property
    def threads(self) -> int:
        return int(self._get())

    def set_threads(self, threads: int) -> None:
        self._set(int(threads))


def _library_paths() -> List[str]:
    """Paths of the OpenBLAS libraries in this process, numpy's first."""
    if sys.platform.startswith("linux"):
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    else:
        libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                            "numpy.libs")
        paths = set(glob.glob(os.path.join(libs, "*openblas*")))
    return sorted(paths, key=lambda path: ("numpy" not in path, path))


@lru_cache(maxsize=1)
def find_openblas() -> Optional[OpenBLAS]:
    """numpy's OpenBLAS, or ``None`` when numpy runs on another BLAS."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                return OpenBLAS(setter, getter)
    return None


def blas_threads() -> Optional[int]:
    """The current OpenBLAS thread count (``None`` without OpenBLAS)."""
    blas = find_openblas()
    return None if blas is None else blas.threads


class SingleThreadHold:
    """Reference-counted hold of the OpenBLAS pool at one thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: Optional[int] = None

    def acquire(self) -> None:
        with self._lock:
            blas = find_openblas()
            if self._holders == 0 and blas is not None:
                self._saved = blas.threads
                blas.set_threads(1)
            self._holders += 1

    def release(self) -> None:
        with self._lock:
            if self._holders == 0:
                raise RuntimeError("BLAS hold released more often than taken")
            self._holders -= 1
            blas = find_openblas()
            if self._holders == 0 and blas is not None:
                blas.set_threads(self._saved)


#: The hold every :class:`~repro.serve.server.InferenceServer` shares.
SERVING_BLAS = SingleThreadHold()
