"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared CPU the same operation runs up to 1.6-1.9x slower for tens of
seconds at a time while neighbours are busy.  An operation's time divided by
the time of kernels doing the same kind of work, measured around it, cancels
most of that.  Each workload names its kinds in CALIBRATION.
"""

from __future__ import annotations

import functools
import time

import numpy as np


@functools.cache
def _operand(rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(rows * cols).standard_normal((rows, cols, 2)) @ (1.0, 1.0j)


def _eigh_kernel() -> None:
    a = _operand(32, 32)
    h = a + a.conj().T
    for _ in range(30):
        np.linalg.eigh(h)


def _python_kernel() -> None:
    acc = 0
    for i in range(30000):
        acc += i * i % 7


def _gemm_kernel() -> None:
    a, b = _operand(200, 400), _operand(400, 400)
    for _ in range(3):
        a @ b


KERNELS = {"eigh": _eigh_kernel, "python": _python_kernel, "gemm": _gemm_kernel}


def calibrate(kinds) -> float:
    """Seconds the named kernels take now.

    eigh: 30 Hermitian 32x32 eigensolves; python: a 30000-step loop; gemm:
    three complex 200x400 by 400x400 products (each 3-20 ms)."""
    t0 = time.perf_counter()
    for kind in kinds:
        KERNELS[kind]()
    return time.perf_counter() - t0
