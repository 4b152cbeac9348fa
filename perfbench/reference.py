"""A fixed reference computation that measures the machine's current speed.

On a shared machine the same unit call takes up to 1.6x longer in some
stretches than in others, for seconds to minutes at a time, and processor
time swings with it (the slowdown is not time spent descheduled).  The
benchmark therefore runs a short chunk of fixed work between unit calls and
divides each unit's time by the speed factor of the chunks around it: the
chunks' time over REF_NOMINAL_S.  Unit times are then reported as they
would read at the machine's nominal speed.

The chunk mixes the two kinds of work histspec does: interpreted integer
and dict work like the search and classification loops, and numpy work
like the batched eigensolve and the mask arrays of the scan.  It calls
nothing from histspec, so a change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# Median chunk time on a 2-vCPU Intel Xeon virtual machine (Python 3.11,
# numpy 2.4), the machine the benchmark's figures were first taken on.
REF_NOMINAL_S = 0.015

# Bound at import, before the tracer wraps numpy.linalg.eigvalsh, so that
# reference chunks never show up in the scan's eigensolve spans.
_eigvalsh = np.linalg.eigvalsh
_RNG = np.random.default_rng(12345)
_MATS = _RNG.random((1200, 8, 8))
_MATS = _MATS + _MATS.transpose(0, 2, 1)
_VALUES = _RNG.integers(0, 1 << 28, size=1 << 17)


def _interpreted(k=24000):
    acc, seen = 0, {}
    for i in range(k):
        x = (i * 2654435761) & 0xFFFFFFF
        acc += (x ^ (x >> 7)).bit_count()
        seen[x & 1023] = acc
    return acc + len(seen)


def _vectorised():
    top = _eigvalsh(_MATS)[:, -1]
    bits = np.bitwise_count(_VALUES ^ (_VALUES >> 3))
    return float(top.sum()) + int(np.sort(_VALUES)[-1]) + int(bits.sum())


def chunk_seconds() -> float:
    """Run one reference chunk; return the seconds it took."""
    t0 = time.perf_counter()
    _interpreted()
    _vectorised()
    return time.perf_counter() - t0
