"""Hot evaluation kernels, vectorized in numpy.

Two kernels dominate the runtime of every functional in this package:

* evaluation of exponential-polynomial radial fields
  rho(r) = sum_g exp(-beta_g r) * P_g(r)  (P_g a dense polynomial), for
  one or several coefficient sets at once (a field and its derivatives
  share the exponentials e^{-beta_g r}, so one call evaluates all three), and
* direct evaluation of filled-shell Coulomb densities and their first two
  radial derivatives by orbital summation, with one Laguerre recurrence per
  pair of orbitals feeding the polynomial and both its derivatives.

The orbital-summation kernel exists because the expanded polynomial form of
a many-shell density suffers catastrophic cancellation near the outer edge
(alternating Laguerre coefficients grow roughly as 10^(0.3 k) for degree k),
while summing squared orbitals keeps every contribution non-negative in the
density and mildly signed in the derivatives.  It works in a fixed set of
preallocated arrays updated in place, so its working set does not grow with
the shell count.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# exponential-polynomial fields


def exp_poly_eval(exponents: np.ndarray, coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_g exp(-beta_g r) * Horner(coefs[g], r), vectorized over r.

    ``coefs`` of shape (G, D) gives one row, shaped like ``r``.  A stack of
    R coefficient sets, shape (R, G, D), gives R rows, shape (R, N): each
    group's exponential is computed once and shared by every set, and each
    row equals the one-set call on its coefficients bit for bit.
    """
    sets = coefs if coefs.ndim == 3 else coefs[None]
    out = np.zeros((sets.shape[0], *r.shape), dtype=r.dtype)
    n_deg = sets.shape[2]
    poly = np.empty_like(r)
    decay = np.empty_like(r)
    with np.errstate(under="ignore"):
        for g in range(exponents.shape[0]):
            np.multiply(-exponents[g], r, out=decay)
            np.exp(decay, out=decay)
            for row, c in zip(out, sets[:, g]):
                poly.fill(c[n_deg - 1])
                for d in range(n_deg - 2, -1, -1):
                    poly *= r
                    poly += c[d]
                poly *= decay
                row += poly
    return out if coefs.ndim == 3 else out[0]


# ---------------------------------------------------------------------------
# filled-shell Coulomb densities by orbital summation
#
# Per orbital (n, l), with x = (2Z/n) r, k = n-l-1, a = 2l+1:
#   R(r)   = A * W(x),        W(x)  = x^l e^{-x/2} L_k^a(x)
#   R'(r)  = A*g * W'(x),     g = 2Z/n
#   R''(r) = A*g^2 * W''(x)
# With f_j = x^j e^{-x/2} (a running product across l, f_j = x f_{j-1}),
# L = L_k^a, L' = -L_{k-1}^{a+1} and L'' = L_{k-2}^{a+2}:
#   W   = f_l L
#   W'  = f_l (L' - L/2) + l f_{l-1} L
#   W'' = f_l (L'' - L' + L/4) + l f_{l-1} (2L' - L) + l(l-1) f_{l-2} L
# so no power of x and no division by x is needed.  The orbital's weight
# A^2 * 2(2l+1) / (4 pi) (occupation times angular average) is folded into
# the running product as its square root.
#
# The three Laguerre polynomials come from one recurrence per pair of
# orbitals (l, l+1): running the three-term recurrence for L_i^a, i = 0..k,
# and streaming the prefix sums L_i^{a+m} = sum_{i' <= i} L_{i'}^{a+m-1},
# m = 1..4, yields L_k^a, L_{k-1}^{a+1}, L_{k-2}^{a+2} for orbital l and
# L_{k-1}^{a+2}, L_{k-2}^{a+3}, L_{k-3}^{a+4} for orbital l+1 (order a+2,
# degree k-1).  Reseeding every pair keeps the sums short: running them
# across a whole shell loses about 5e-10 relative in rho at 40 shells.


def _laguerre_step(
    j: int, alpha: float, x: np.ndarray, prev: np.ndarray, cur: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write L_{j+1}^alpha into ``out`` from cur = L_j^alpha, prev = L_{j-1}^alpha.

    The forward three-term recurrence in the degree,
    (j+1) L_{j+1} = (2j + alpha + 1 - x) L_j - (j + alpha) L_{j-1};
    ``prev`` is used as scratch and holds garbage afterwards.
    """
    np.subtract(2.0 * j + alpha + 1.0, x, out=out)
    out *= cur
    prev *= j + alpha
    out -= prev
    out /= j + 1.0
    return out


def _laguerre_array(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_k^alpha(x) by the forward three-term recurrence in the degree."""
    if k == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = np.subtract(alpha + 1.0, x, out=np.empty_like(x))
    nxt = np.empty_like(x)
    for j in range(1, k):
        _laguerre_step(j, alpha, x, prev, cur, nxt)
        prev, cur, nxt = cur, nxt, prev
    return cur


def _seed(buf: np.ndarray, degree: int, order: float, x: np.ndarray) -> np.ndarray:
    """Fill ``buf`` with L_degree^order for degree < 2 (zero below degree 0)."""
    if degree < 0:
        buf.fill(0.0)
    elif degree == 0:
        buf.fill(1.0)
    else:
        np.subtract(order + 1.0, x, out=buf)
    return buf


def _pair_orders(k: int, a: float, x: np.ndarray, work: list) -> tuple:
    """The six Laguerre values a pair of orbitals (l, l+1) needs, from one recurrence.

    Returns (L_k^a, L_{k-1}^{a+1}, L_{k-2}^{a+2}, L_{k-1}^{a+2}, L_{k-2}^{a+3},
    L_{k-3}^{a+4}), with L of negative degree read as zero.  The results are
    views of the seven arrays in ``work``, which are overwritten; the one
    array of ``work`` not returned is left as scratch at ``work[0]``.
    """
    prev, cur, nxt, s1, s2, s3, s4 = work
    # last degree each running sum is needed at; the second capture of the
    # order-(a+2) sum, at k-1, is formed after the loop
    last = (k - 1, k - 2, k - 2, k - 3)
    sums = (s1, s2, s3, s4)
    for m, (buf, top) in enumerate(zip(sums, last), start=1):
        _seed(buf, min(top, 1), a + m, x)
    _seed(prev, 0, a, x)
    _seed(cur, min(k, 1), a, x)
    for i in range(2, k + 1):
        _laguerre_step(i - 1, a, x, prev, cur, nxt)
        prev, cur, nxt = cur, nxt, prev
        if i <= k - 1:
            s1 += cur
            if i <= k - 2:
                s2 += s1
                s3 += s2
                if i <= k - 3:
                    s4 += s3
    # after the loop prev holds L_{k-1}^a, which no orbital needs
    if k - 1 >= 2:
        np.add(s2, s1, out=nxt)
    else:
        _seed(nxt, k - 1, a + 2, x)
    work[:3] = prev, cur, nxt
    return cur, s1, s2, nxt, s3, s4


def _add_orbital(
    lag: np.ndarray,
    lag1: np.ndarray,
    lag2: np.ndarray,
    f0: np.ndarray,
    fm1: np.ndarray,
    fm2: np.ndarray,
    c1: float,
    c2: float,
    tmp: np.ndarray,
    rho: np.ndarray,
    acc1: np.ndarray,
    acc2: np.ndarray,
) -> None:
    """Add one orbital's W^2, -W W' and W'^2 + W W'' to rho, acc1, acc2.

    lag, lag1, lag2 are L_k^a, L_{k-1}^{a+1}, L_{k-2}^{a+2} and are
    overwritten; f0 is the weighted s x^l e^{-x/2}, and c1 * fm1, c2 * fm2
    are s l x^{l-1} e^{-x/2} and s l(l-1) x^{l-2} e^{-x/2}.
    """
    # u = L/2 - L' and v = L'' - L' + L/4, in lag1 and lag2
    np.multiply(lag, 0.5, out=tmp)
    lag1 += tmp
    lag2 += lag1
    tmp *= 0.5
    lag2 -= tmp
    # W'' = f_l v - 2 l f_{l-1} u + l(l-1) f_{l-2} L
    lag2 *= f0
    if c1:
        np.multiply(fm1, lag1, out=tmp)
        tmp *= 2.0 * c1
        lag2 -= tmp
    if c2:
        np.multiply(fm2, lag, out=tmp)
        tmp *= c2
        lag2 += tmp
    # -W' = f_l u - l f_{l-1} L
    lag1 *= f0
    if c1:
        np.multiply(fm1, lag, out=tmp)
        tmp *= c1
        lag1 -= tmp
    lag *= f0
    np.multiply(lag, lag, out=tmp)
    rho += tmp
    np.multiply(lag, lag1, out=tmp)
    acc1 += tmp
    lag1 *= lag1
    lag2 *= lag
    lag2 += lag1
    acc2 += lag2


def shell_profile(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') of shells 1..n_max filled at nuclear charge z.

    Each shell accumulates sum s_l^2 W^2 into rho and sum s_l^2 (-W W') and
    sum s_l^2 (W'^2 + W W'') into two buffers, scaled to r-derivatives by
    -2g and 2g^2 once per shell.
    """
    rho = np.zeros_like(r)
    drho = np.zeros_like(r)
    d2rho = np.zeros_like(r)
    x = np.empty_like(r)
    acc1 = np.empty_like(r)
    acc2 = np.empty_like(r)
    f = [np.empty_like(r) for _ in range(3)]
    work = [np.empty_like(r) for _ in range(7)]
    with np.errstate(under="ignore"):
        for n in range(1, n_max + 1):
            g = 2.0 * z / n
            np.multiply(r, g, out=x)
            acc1.fill(0.0)
            acc2.fill(0.0)
            # s_l^2 = A^2 * 2(2l+1) / (4 pi) with A^2 = g^3/(2n) (n-l-1)!/(n+l)!,
            # so s_0^2 = g^3 / (4 pi n^2) and step[l] = s_l / s_{l-1}
            step = [0.0] + [
                math.sqrt((2.0 * l + 1.0) / ((2.0 * l - 1.0) * (n - l) * (n + l)))
                for l in range(1, n)
            ]
            # f[l % 3] holds s_l x^l e^{-x/2}
            np.multiply(x, -0.5, out=f[0])
            np.exp(f[0], out=f[0])
            f[0] *= math.sqrt(g * g * g / (4.0 * math.pi)) / n
            for l in range(0, n, 2):
                k = n - l - 1
                orders = _pair_orders(k, 2.0 * l + 1.0, x, work)
                for j, (lag, lag1, lag2) in ((l, orders[:3]), (l + 1, orders[3:])):
                    if j == n:
                        break
                    if j >= 1:
                        np.multiply(f[(j - 1) % 3], x, out=f[j % 3])
                        f[j % 3] *= step[j]
                    c1 = j * step[j]
                    c2 = j * (j - 1) * step[j] * step[j - 1] if j >= 2 else 0.0
                    _add_orbital(
                        lag, lag1, lag2, f[j % 3], f[(j - 1) % 3], f[(j - 2) % 3],
                        c1, c2, work[0], rho, acc1, acc2,
                    )
            acc1 *= -2.0 * g
            drho += acc1
            acc2 *= 2.0 * g * g
            d2rho += acc2
    return rho, drho, d2rho
