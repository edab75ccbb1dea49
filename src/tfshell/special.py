"""Associated Laguerre polynomials and log-factorials.

These are the only special functions the bound-state radial wavefunctions
need.  Polynomials are evaluated by the forward three-term recurrence in the
degree,

    (j+1) L_{j+1}^a(x) = (2j + a + 1 - x) L_j^a(x) - (j + a) L_{j-1}^a(x),

which is stable over the argument range where the accompanying exponential
weight exp(-x/2) is non-negligible.  ``laguerre`` runs it through
``_kernels._laguerre_array``, on the loop (``_kernels._laguerre_tops``) that
the shell-density kernel runs for two orders at once: it carries
(j!/k!) L_j^a, whose step needs no division by j+1 and whose last value is
L_k^a itself.  Degrees beyond ``MAX_DEGREE`` are rejected rather than
evaluated with silently degraded accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _laguerre_array

__all__ = ["MAX_DEGREE", "LaguerreSpec", "laguerre", "log_factorial"]

# Highest polynomial degree supported in double precision; one degree per
# radial node, so this comfortably covers the 40-shell cap used elsewhere.
MAX_DEGREE = 80


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and order of an associated Laguerre polynomial L_degree^order."""

    degree: int
    order: int

    def __post_init__(self) -> None:
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {self.degree!r}")
        if not isinstance(self.order, (int, np.integer)) or self.order < 0:
            raise ValueError(f"order must be a non-negative integer, got {self.order!r}")
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} exceeds supported maximum {MAX_DEGREE}")


def laguerre(spec: LaguerreSpec, x):
    """Evaluate L_k^a(x) for k = spec.degree, a = spec.order.

    Accepts a scalar or ndarray ``x``; all entries must be >= 0.  Exact for
    degrees 0 and 1 (constant and linear polynomials).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("laguerre argument must be non-negative")
    out = _laguerre_array(spec.degree, float(spec.order), arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def log_factorial(n: int) -> float:
    """ln(n!) with relative error at the log-Gamma level (<= 1e-14)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"log_factorial requires a non-negative integer, got {n!r}")
    return math.lgamma(n + 1.0)
