"""Hot evaluation kernels, vectorized in numpy.

Two kernels dominate the runtime of every functional in this package:

* evaluation of exponential-polynomial radial fields
  rho(r) = sum_g exp(-beta_g r) * P_g(r)  (P_g a dense polynomial), for
  one or several coefficient sets at once.  The nodes go in small blocks:
  one exponential per block, shared by every set (a field and its
  derivatives, so one call evaluates all three), then per set one matrix
  product that sums the groups for every degree and a Horner pass in r.
  The block stays below OpenBLAS's threading cut, where these small
  products would go multi-threaded and slow down several-fold; and
* direct evaluation of filled-shell Coulomb densities and their first two
  radial derivatives, shell by shell, from a closed form in a few Laguerre
  values per shell (two recurrences of length <= n for shell n, so
  O(n_max^2) vector steps in all).

The shell kernel evaluates Laguerre values by their recurrence, never the
expanded polynomial of a many-shell density: that expansion suffers
catastrophic cancellation near the outer edge (alternating Laguerre
coefficients grow roughly as 10^(0.3 k) for degree k).  The closed form's
own cancellation is bounded: at large x its two terms n A^2 and x B C
(below) cancel to about 1/n of their size, so the density loses about
log10(n) digits there and nothing grows with the degree.  It works in a fixed
set of preallocated arrays updated in place, so its working set does not
grow with the shell count.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# exponential-polynomial fields


# Elements in one block of exponentials, G groups by M nodes (see
# exp_poly_eval for why it is small).
_BLOCK_ELEMENTS = 1 << 15
# Every block is padded to a multiple of this many nodes.
_BLOCK_LANES = 16


def exp_poly_eval(exponents: np.ndarray, coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_g exp(-beta_g r) * sum_d coefs[g, d] r^d, vectorized over r.

    ``coefs`` of shape (G, D) gives one row, shaped like ``r``.  A stack of
    R coefficient sets, shape (R, G, D), gives R rows, shape (R, N).

    The nodes go in blocks of M, with G M at most ``_BLOCK_ELEMENTS``.  Per
    block there is one ``np.exp``, in place, over the (G, M) matrix of
    -beta_g r, shared by every row.  Per row there is one (D, G) @ (G, M)
    product, which gives sum_g coefs[g, d] e^{-beta_g r} for every degree
    d, and a D-step Horner in r over M-node arrays, written straight into
    the output.  So the G D N multiply-adds run inside BLAS, and the working
    set is one block plus a (D, M) product.

    The block is small because each product must stay below the size at
    which OpenBLAS splits a product across threads (of the order of
    D G M = 2 * 65536 * 4); these products are far too small to gain from
    it.  On two cores of an AVX-512 Xeon, a 2^17 budget (D G M up to
    1.2e6) made the 17 bundled atoms' profiles take 136 ms, against
    11.5 ms with OPENBLAS_NUM_THREADS=1.  At 2^15 (D <= 9 in every bundled
    atom, so D G M < 3e5) the two agree, 16.7 and 16.8 ms.

    Each row gets its own product of the same shape, so a stacked row
    equals the one-set call on its coefficients bit for bit.  A block is
    padded with r = 0 to a multiple of ``_BLOCK_LANES`` nodes: BLAS may
    compute a ragged last few columns of a product by another code path,
    with other rounding (and hands a single column to gemv), so without
    the padding a node's value would depend on where the block boundaries
    fall.
    """
    sets = coefs if coefs.ndim == 3 else coefs[None]
    n_groups, n_deg = sets.shape[1:]
    nodes = r.reshape(-1)
    out = np.zeros((sets.shape[0], nodes.size), dtype=r.dtype)
    if n_groups and nodes.size:
        # each set as (D, G), so that the product sums over the groups
        mats = np.ascontiguousarray(sets.transpose(0, 2, 1))
        width = max(_BLOCK_LANES, _BLOCK_ELEMENTS // n_groups // _BLOCK_LANES * _BLOCK_LANES)
        width = min(width, -(-nodes.size // _BLOCK_LANES) * _BLOCK_LANES)
        rates = -exponents[:, None]
        buffer = np.empty(n_groups * width, dtype=r.dtype)
        with np.errstate(under="ignore"):
            for start in range(0, nodes.size, width):
                x = nodes[start:start + width]
                m = x.size
                padded = -(-m // _BLOCK_LANES) * _BLOCK_LANES
                block = buffer[: n_groups * padded].reshape(n_groups, padded)
                block[:, m:] = 0.0
                np.multiply(rates, x, out=block[:, :m])
                np.exp(block, out=block)
                for row, mat in zip(out, mats):
                    sums = mat @ block
                    acc = row[start:start + m]
                    np.copyto(acc, sums[n_deg - 1, :m])
                    for d in range(n_deg - 2, -1, -1):
                        acc *= x
                        acc += sums[d, :m]
    out = out.reshape(sets.shape[0], *r.shape)
    return out if coefs.ndim == 3 else out[0]


# ---------------------------------------------------------------------------
# filled-shell Coulomb densities, one closed form per shell
#
# With x = g r, g = 2Z/n, the orbitals of shell n sum to (Heilmann & Lieb,
# Phys. Rev. A 52, 3628 (1995))
#   sum_l (2l+1) (n-l-1)!/(n+l)! x^{2l} [L_{n-l-1}^{2l+1}(x)]^2
#       = n A^2 + x B C =: S(x),
# so rho_n = K e^{-x} S with K = g^3 / (4 pi n).  Writing A = L_{n-1}^0,
# B = L_{n-1}^1, C = L_{n-2}^1, D = L_{n-2}^2, E = L_{n-3}^2, F = L_{n-3}^3,
# G = L_{n-4}^3 (negative degrees read as zero), dL_k^a/dx = -L_{k-1}^{a+1}
# gives
#   S'  = -2n A C + B C - x (D C + B E)
#   S'' = 2n (C^2 + A E) - 2 (D C + B E) + x (F C + 2 D E + B G)
#   rho_n'  = K g e^{-x} (S' - S)
#   rho_n'' = K g^2 e^{-x} (S'' - 2 S' + S)
# Two forward recurrences give every Laguerre value: order 1 up to degree
# n-1 and order 3 up to degree n-2; A, D and E follow from
# L_k^a = L_k^{a+1} - L_{k-1}^{a+1}.  No power of x appears and nothing is
# divided by x.  K e^{-x} enters as a factor sqrt(K) e^{-x/2} on every
# Laguerre value: a single e^{-x} is subnormal at the outer edge of a
# 60-shell grid (x ~ 720) and costs the density about 3 digits there, and
# the unscaled terms of S reach 1e292 at the edge of a 100-shell grid.


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


def _laguerre_top(k: int, alpha: float, x: np.ndarray, work: tuple) -> tuple:
    """(L_k^alpha, L_{k-1}^alpha, L_{k-2}^alpha, scratch) in the four arrays of ``work``.

    For k >= -1; negative degrees read as zero.  The recurrence step
    overwrites L_{j-1} while forming L_{j+1}, so L_{k-2} is copied aside
    before the last step.
    """
    prev, cur, nxt, low = work
    prev.fill(0.0)
    cur.fill(1.0 if k >= 0 else 0.0)
    low.fill(0.0)
    for j in range(k):
        if j == k - 1:
            np.copyto(low, prev)
        _laguerre_step(j, alpha, x, prev, cur, nxt)
        prev, cur, nxt = cur, nxt, prev
    return cur, prev, low, nxt


def _laguerre_array(k: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_k^alpha(x) by the forward three-term recurrence in the degree."""
    return _laguerre_top(k, alpha, x, tuple(np.empty_like(x) for _ in range(4)))[0]


def shell_profile(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') of shells 1..n_max filled at nuclear charge z.

    Adds each shell's closed form K e^{-x} S and its two r-derivatives,
    working in place in thirteen arrays whatever the shell count.
    """
    rho = np.zeros_like(r)
    drho = np.zeros_like(r)
    d2rho = np.zeros_like(r)
    x = np.empty_like(r)
    half = np.empty_like(r)
    low = tuple(np.empty_like(r) for _ in range(4))
    high = tuple(np.empty_like(r) for _ in range(4))
    with np.errstate(under="ignore"):
        for n in range(1, n_max + 1):
            g = 2.0 * z / n
            np.multiply(r, g, out=x)
            # half = sqrt(K) e^{-x/2}
            np.multiply(x, -0.5, out=half)
            np.exp(half, out=half)
            half *= math.sqrt(g * g * g / (4.0 * math.pi * n))
            b, c, a, e = _laguerre_top(n - 1, 1.0, x, low)
            d, f, gl, u = _laguerre_top(n - 2, 3.0, x, high)
            # every term below is a product of two Laguerre values, so
            # scaling each value by sqrt(K) e^{-x/2} applies K e^{-x}
            for value in (b, c, d, f, gl):
                value *= half
            np.subtract(b, c, out=a)
            np.subtract(f, gl, out=e)
            d -= f
            # f = x (F C + 2 D E + B G)
            f *= c
            np.multiply(d, e, out=u)
            u *= 2.0
            f += u
            gl *= b
            f += gl
            f *= x
            # gl = D C + B E
            np.multiply(d, c, out=gl)
            np.multiply(b, e, out=u)
            gl += u
            # u = S''
            np.multiply(a, e, out=d)
            np.multiply(c, c, out=u)
            u += d
            u *= 2.0 * n
            u += f
            u -= gl
            u -= gl
            # d = S'
            np.multiply(a, c, out=d)
            d *= -2.0 * n
            np.multiply(b, c, out=e)
            d += e
            gl *= x
            d -= gl
            # a = S
            e *= x
            a *= a
            a *= n
            a += e
            rho += a
            # S'' - 2 S' + S and S' - S, scaled to r-derivatives
            u -= d
            u -= d
            u += a
            u *= g * g
            d2rho += u
            d -= a
            d *= g
            drho += d
    return rho, drho, d2rho
