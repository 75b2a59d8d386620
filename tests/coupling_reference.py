"""The displacement couplings element by element, as an independent
reference for the package's manifold kernel.

Each element reruns the upward Laguerre recurrence from degree 0 and
accumulates its factorial ratio as a running scalar product, in the same
floating-point operations and order as the kernel, so the two must agree
bit for bit.
"""

import numpy as np

SIDEBAND_OF_SHIFT = {0: "carrier", 1: "blue", -1: "red"}


def laguerre(n, alpha, x):
    """L_n^alpha(x) for scalar x by the upward three-term recurrence."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def element(n_to, n_from, eta):
    """<n_to| exp(i eta (a + a_dag)) |n_from> by the scalar closed form
    i^|dn| exp(-eta^2/2) sqrt(n_<!/n_>!) eta^|dn| L_{n_<}^{|dn|}(eta^2)."""
    dn = abs(n_to - n_from)
    n_lo = min(n_to, n_from)
    ratio = 1.0
    for k in range(n_lo + 1, n_lo + dn + 1):
        ratio /= np.sqrt(k)
    mag = np.exp(-0.5 * eta**2) * ratio * eta**dn * laguerre(n_lo, dn, eta**2)
    return complex(1j**dn * mag)


def ldl_rung(n, sideband, eta):
    """First-order coupling of one rung: carrier 1, blue eta sqrt(n+1),
    red eta sqrt(n)."""
    if sideband == "carrier":
        return 1.0
    if sideband == "blue":
        return eta * np.sqrt(n + 1.0)
    return eta * np.sqrt(float(n))


def pair_coupling(ldl, eta, n, dn):
    """<..up.., n+dn| K |..down.., n> of one ion: the exact element, or
    in an LDL model the first-order coupling with the phase i^|dn|."""
    if ldl:
        return complex(1j ** abs(dn) * ldl_rung(n, SIDEBAND_OF_SHIFT[dn], eta))
    return element(n + dn, n, eta)


def bits(values):
    """The uint64 words of complex or float values, so that signed zeros
    and NaN payloads count in a comparison."""
    return np.asarray(values).view(np.uint64)
