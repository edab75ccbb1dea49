"""Hydrogen-like radial wavefunctions and Laguerre values, for tests.

``laguerre_array`` runs the shell kernel's own recurrence
(``_kernels._laguerre_tops``) with one track, so the tests that check it
check the kernel.  ``radial_wavefunction`` builds single orbitals from it:
the oracle for the closed-form shell sum and for orthonormality.
"""

from __future__ import annotations

import math

import numpy as np

from tfshell import _kernels
from tfshell.hydrogenic import MAX_SHELLS


def laguerre_array(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_k^alpha(x) by the forward three-term recurrence in the degree."""
    work = [np.empty_like(x) for _ in range(3)]
    _kernels._laguerre_tops(k, alpha, x, (np.empty_like(x), np.empty_like(x)), (work,))
    return work[1]


def radial_wavefunction(z: float, n: int, l: int, r):
    """Bound-state radial function R_{n,l}(r) for charge z, unit-normalized.

    R_{n,l}(r) = sqrt((2Z/n)^3 (n-l-1)! / (2n (n+l)!))
                 * exp(-Zr/n) (2Zr/n)^l L_{n-l-1}^{2l+1}(2Zr/n)

    Accepts scalar or array r, finite and >= 0.  The Laguerre factor runs
    the kernels' forward recurrence in the degree, which is stable where
    the weight exp(-Zr/n) is not negligible.
    """
    if not z > 0:
        raise ValueError(f"charge must be positive, got {z!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"principal quantum number must be a positive integer, got {n!r}")
    if n > MAX_SHELLS:
        raise ValueError(f"n = {n} beyond supported shell range {MAX_SHELLS}")
    if not isinstance(l, (int, np.integer)) or l < 0 or l >= n:
        raise ValueError(f"angular quantum number must satisfy 0 <= l <= n-1, got l={l!r}")
    # a scalar runs as a one-element array, so it gets the array's last bits
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    # a NaN makes min and max NaN, which fails both comparisons
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
        raise ValueError("radius must be finite and non-negative")
    g = 2.0 * z / n
    # ln((n-l-1)!) and ln((n+l)!) as log-Gamma values
    log_norm = 0.5 * (
        3.0 * math.log(g) + math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1.0)
    )
    x = g * arr
    with np.errstate(under="ignore"):
        out = (
            math.exp(log_norm)
            * np.exp(-0.5 * x)
            * x ** int(l)
            * laguerre_array(n - l - 1, 2.0 * l + 1.0, x)
        )
    if np.ndim(r) == 0:
        return float(out[0])
    return out
