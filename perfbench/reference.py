"""Reference kernels the benchmark scales its times by.

On a shared host the CPU speed swings by up to 60% in phases of seconds to
minutes, on all vCPUs at once, so a raw time says as much about the
neighbours as about the code.  The benchmark times a few fixed kernels just
before and just after each measured call and divides the call's time by
their mean slowdown: a slow phase stretches both alike.  The kernels do the
kinds of work ``fphomalg`` does: interpreter arithmetic, allocation of small
containers, and an int64 matrix product in numpy.

This module imports nothing but ``time`` until numpy is asked for, so a
fresh interpreter can use it without warming a module the set-up time
includes.
"""

import time

REPEATS = 5
_MATRIX = []


def _arith():
    s = 0
    for i in range(20000):
        s += i * i % 7


def _alloc():
    d = {}
    for i in range(5000):
        d[(i, i & 7)] = [i, i + 1]


def _matmul():
    (_MATRIX[0] @ _MATRIX[0]) % 97


# Each kernel with its fastest time in a quiet phase of the 2-vCPU Intel
# Xeon VM the benchmark was built on, so scaled times read as seconds of
# that machine in a quiet phase.
KERNELS = {"arith": (_arith, 1.3e-3), "alloc": (_alloc, 1.3e-3), "matmul": (_matmul, 1.05e-3)}


def slowdown(numpy: bool = True) -> float:
    """Geometric mean over the kernels of their fastest of ``REPEATS`` runs
    over their quiet-phase time: about 1 in a quiet phase, more in a slow
    one.  ``numpy=False`` leaves out the numpy kernel."""
    if numpy and not _MATRIX:
        import numpy as np

        _MATRIX.append(np.arange(120 * 120, dtype=np.int64).reshape(120, 120) % 97)
    names = [k for k in KERNELS if numpy or k != "matmul"]
    best = dict.fromkeys(names, float("inf"))
    for _ in range(REPEATS):
        for name in names:
            t0 = time.perf_counter()
            KERNELS[name][0]()
            best[name] = min(best[name], time.perf_counter() - t0)
    product = 1.0
    for name in names:
        product *= best[name] / KERNELS[name][1]
    return product ** (1 / len(names))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between slowdowns ``before`` and ``after``,
    scaled to a quiet phase."""
    return seconds * 2 / (before + after)
