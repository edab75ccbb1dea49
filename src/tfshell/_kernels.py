"""Hot evaluation kernels, vectorized in numpy.

Two kernels dominate the runtime of every functional in this package:

* evaluation of exponential-polynomial radial fields
  rho(r) = sum_g exp(-beta_g r) * P_g(r)  (P_g a dense polynomial), and
* direct evaluation of filled-shell Coulomb densities and their first two
  radial derivatives by orbital summation.

The orbital-summation kernel exists because the expanded polynomial form of
a many-shell density suffers catastrophic cancellation near the outer edge
(alternating Laguerre coefficients grow roughly as 10^(0.3 k) for degree k),
while summing squared orbitals keeps every contribution non-negative in the
density and mildly signed in the derivatives.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# exponential-polynomial fields


def exp_poly_eval(exponents: np.ndarray, coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_g exp(-beta_g r) * Horner(coefs[g], r), vectorized over r."""
    out = np.zeros_like(r)
    n_deg = coefs.shape[1]
    with np.errstate(under="ignore"):
        for g in range(exponents.shape[0]):
            poly = np.full_like(r, coefs[g, n_deg - 1])
            for d in range(n_deg - 2, -1, -1):
                poly = poly * r + coefs[g, d]
            out += poly * np.exp(-exponents[g] * r)
    return out


# ---------------------------------------------------------------------------
# filled-shell Coulomb densities by orbital summation
#
# Per orbital (n, l), with x = (2Z/n) r, k = n-l-1, a = 2l+1:
#   R(r)   = A * W(x),        W(x)  = x^l e^{-x/2} L_k^a(x)
#   R'(r)  = A*g * W'(x),     g = 2Z/n
#   R''(r) = A*g^2 * W''(x)
# using Q0 = x^l L, Q1 = dQ0/dx, Q2 = d^2Q0/dx^2:
#   W  = Q0 e^{-x/2}
#   W' = (Q1 - Q0/2) e^{-x/2}
#   W''= (Q2 - Q1 + Q0/4) e^{-x/2}
# and dL_k^a/dx = -L_{k-1}^{a+1}, d^2L_k^a/dx^2 = L_{k-2}^{a+2}.
# Shell occupation 2(2l+1) (spin times azimuthal degeneracy); the density
# carries 1/(4 pi) from the angular average.


def _laguerre_array(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_k^alpha(x) by the forward three-term recurrence in the degree."""
    if k == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = alpha + 1.0 - x
    for j in range(1, k):
        nxt = ((2.0 * j + alpha + 1.0 - x) * cur - (j + alpha) * prev) / (j + 1.0)
        prev = cur
        cur = nxt
    return cur


def shell_profile(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') of shells 1..n_max filled at nuclear charge z."""
    rho = np.zeros_like(r)
    drho = np.zeros_like(r)
    d2rho = np.zeros_like(r)
    inv4pi = 1.0 / (4.0 * math.pi)
    with np.errstate(under="ignore"):
        for n in range(1, n_max + 1):
            g = 2.0 * z / n
            x = g * r
            e = np.exp(-0.5 * x)
            base = g * g * g / (2.0 * n)
            for l in range(n):
                k = n - l - 1
                alpha = 2.0 * l + 1.0
                # A^2 = base * (n-l-1)!/(n+l)!
                a_sq = base * math.exp(math.lgamma(k + 1.0) - math.lgamma(n + l + 1.0))
                w_occ = 2.0 * (2.0 * l + 1.0) * a_sq * inv4pi
                p0 = _laguerre_array(k, alpha, x)
                p1 = -_laguerre_array(k - 1, alpha + 1.0, x) if k >= 1 else np.zeros_like(x)
                p2 = _laguerre_array(k - 2, alpha + 2.0, x) if k >= 2 else np.zeros_like(x)
                xl = x**l
                xlm1 = x ** (l - 1) if l >= 1 else np.zeros_like(x)
                xlm2 = x ** (l - 2) if l >= 2 else np.zeros_like(x)
                q0 = xl * p0
                q1 = l * xlm1 * p0 + xl * p1
                q2 = l * (l - 1) * xlm2 * p0 + 2.0 * l * xlm1 * p1 + xl * p2
                w0 = q0 * e
                w1 = (q1 - 0.5 * q0) * e
                w2 = (q2 - q1 + 0.25 * q0) * e
                rho += w_occ * w0 * w0
                drho += w_occ * 2.0 * w0 * w1 * g
                d2rho += w_occ * 2.0 * (w1 * w1 + w0 * w2) * g * g
    return rho, drho, d2rho
