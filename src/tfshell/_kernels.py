"""Hot evaluation kernels, vectorized in numpy.

Two kernels evaluate every density the functionals of this package see:

* sums of squared Slater-type orbitals, rho = sum_k phi_k^2 with
  phi_k = sum_i c_ki r^{p_i} e^{-zeta_i r}, and their first two radial
  derivatives.  Each primitive's exponential is computed once per node and
  shared by every orbital, and one matrix product per derivative order
  gives every orbital's value; the squares are never expanded into pair
  terms.  This is how every Hartree-Fock atom is evaluated.  The nodes go
  in small blocks, which keep each product below OpenBLAS's threading cut,
  where such small products would go multi-threaded and slow down
  several-fold; and
* direct evaluation of filled-shell Coulomb densities and their first two
  radial derivatives, shell by shell, from a closed form in a few Laguerre
  values per shell (two recurrences of length <= n for shell n, run in one
  loop at three vector ops per step, so O(n_max^2) vector ops in all).
  ``shell_prefixes`` yields the running sum after every shell, so one pass
  gives the densities of 1..n_max filled shells; ``shell_profile`` is its
  last one.

The shell kernel evaluates Laguerre values by their recurrence, never the
expanded polynomial of a many-shell density: that expansion suffers
catastrophic cancellation near the outer edge (alternating Laguerre
coefficients grow roughly as 10^(0.3 k) for degree k).  The closed form's
own cancellation is bounded: at large x its two terms n A^2 and x B C
(below) cancel to about 1/n of their size, so the density loses about
log10(n) digits there and nothing grows with the degree.  It works in a fixed
set of preallocated arrays updated in place, so its working set does not
grow with the shell count.

``shell_profile`` and ``orbital_profile`` own the radius rule of every
density: a radius must be finite and non-negative (NaN fails), else they
raise ValueError.  Past the radius where the slowest e^{-zeta r}
underflows they evaluate at that radius, which gives +0.0 rows and keeps
the recurrences and zeta r from overflowing.  Their rows are shaped like
``r``, 0-d for a scalar.  ``shell_prefixes``, the ladder's hot path,
takes the ladder's grid nodes as given.
"""

from __future__ import annotations

import math

import numpy as np

# np.exp(-x) is exactly 0 for x above about 745.13, the float64 underflow;
# both profile kernels clamp their radii where every exponential is 0
_UNDERFLOW_X = 745.2


def _radii(r) -> np.ndarray:
    """``r`` as a float array, if every radius is finite and non-negative."""
    r = np.asarray(r, dtype=float)
    # a NaN makes min and max NaN, which fails both comparisons
    if not (r.min(initial=0.0) >= 0.0 and r.max(initial=0.0) < math.inf):
        raise ValueError("radius must be finite and non-negative")
    return r


# ---------------------------------------------------------------------------
# sums of squared Slater-type orbitals


# Elements in one block of basis rows, rows by M nodes (see orbital_profile
# for why it is small).
_BLOCK_ELEMENTS = 1 << 15
# The radii are padded, and every block cut, to a multiple of this many nodes.
_BLOCK_LANES = 16


def orbital_profile(
    exponents: np.ndarray,
    powers: np.ndarray,
    coefs: np.ndarray,
    r,
) -> tuple:
    """(rho, rho', rho'') of sum_k phi_k^2 at the radii ``r``.

    phi_k = sum_i coefs[k, i] r^{p_i} e^{-zeta_i r} is a sum over P
    primitives with positive exponents zeta_i and powers p_i, an integer
    array of non-negative values; ``coefs`` has shape (K, P).  The radii
    are clamped at the underflow radius of the smallest exponent as they
    are copied, once, into a zero-padded row.

    With the primitives ordered by falling power, the P rows r^p e, the
    rows p r^{p-1} e of the powers p >= 1 and the rows p (p-1) r^{p-2} e
    of the powers p >= 2 (e = e^{-zeta r}) fill one buffer of at most
    ``_BLOCK_ELEMENTS`` elements per block of M nodes, M a multiple of
    ``_BLOCK_LANES``.  Per block there is one
    in-place ``np.exp`` over the P M exponentials, a few scalings and
    multiplications by r that build the other rows, and then one product
    per derivative order over a prefix of the buffer, which gives phi_k,
    phi_k' or phi_k'' for every orbital at once.  rho = sum phi^2,
    rho' = 2 sum phi phi' and rho'' = 2 sum (phi'^2 + phi phi'') are then
    summed over the orbitals straight into the output, row by row in a
    fixed order.

    The block is small because each product must stay below the size at
    which OpenBLAS splits a product across threads (of the order of
    2 * 65536 * 4 multiply-adds); these products are far too small to gain
    from it.  A product is at most K times the block, so it stays below
    the cut for the few orbitals of an atom (K <= 11 in every bundled atom,
    so K M times the rows is under 3.7e5).  The budget was set on the
    pair-term kernel this one replaced, which had the same block policy:
    on two cores of an AVX-512 Xeon, a 2^17 budget (products of up to
    1.2e6 multiply-adds) made the 17 bundled atoms' profiles take 136 ms,
    against 11.5 ms with OPENBLAS_NUM_THREADS=1, and at 2^15 (products
    under 3e5) the two agreed, 16.7 and 16.8 ms.

    Each node's values depend on its radius alone, not on the other nodes
    of the call or on where the blocks fall.  The radii are padded with
    r = 0 to a multiple of ``_BLOCK_LANES``, and so is every block, because
    BLAS may compute a ragged last few columns of a product by another code
    path, with other rounding (and hands a single column to gemv); without
    the padding a node's value would depend on where the blocks fall.
    """
    r = _radii(r)
    n_orb, n_prim = coefs.shape
    nodes = r.reshape(-1)
    lanes = -(-nodes.size // _BLOCK_LANES) * _BLOCK_LANES
    out = np.zeros((3, lanes), dtype=float)
    if n_orb and n_prim and nodes.size:
        order = np.argsort(-powers, kind="stable")
        counts = np.bincount(powers[order])
        # above[j] = number of primitives with power >= j, for j = 0..top+2
        above = np.append(np.cumsum(counts[::-1])[::-1], [0, 0])
        top = counts.size - 1
        n1, n2 = int(above[1]), int(above[2])
        n_rows = n_prim + n1 + n2
        zeta = exponents[order]
        c = coefs[:, order]
        zc = c * zeta
        mats = (
            c,
            np.hstack([-zc, c[:, :n1]]),
            np.hstack([zc * zeta, -2.0 * zc[:, :n1], c[:, :n2]]),
        )
        width = min(lanes, max(_BLOCK_LANES, _BLOCK_ELEMENTS // n_rows // _BLOCK_LANES * _BLOCK_LANES))
        radii = np.zeros((1, lanes))
        np.minimum(nodes, _UNDERFLOW_X / exponents.min(), out=radii[0, : nodes.size])
        rates = -zeta[:, None]
        buffer = np.empty(n_rows * width)
        orbitals = np.empty((3, n_orb * width))
        with np.errstate(under="ignore"):
            for start in range(0, lanes, width):
                x = radii[:, start:start + width]
                m = x.shape[1]
                block = buffer[: n_rows * m].reshape(n_rows, m)
                basis, first, second = block[:n_prim], block[n_prim:n_prim + n1], block[n_prim + n1:]
                np.dot(rates, x, out=basis)
                np.exp(basis, out=basis)
                # before its j-th factor r, the row of a primitive holds
                # r^{j-1} e: the power-j rows give p r^{p-1} e and the
                # power-(j+1) rows p (p-1) r^{p-2} e
                for j in range(1, top + 1):
                    lo, hi = above[j + 1], above[j]
                    np.multiply(basis[lo:hi], j, out=first[lo:hi])
                    if above[j + 2] < lo:
                        np.multiply(basis[above[j + 2]:lo], (j + 1) * j, out=second[above[j + 2]:lo])
                    basis[:hi] *= x
                phi, dphi, scratch = (a[: n_orb * m].reshape(n_orb, m) for a in orbitals)
                rho, drho, d2rho = (row[start:start + m] for row in out)
                # the orbital sums are row reductions in a fixed order, not a
                # vector product: BLAS may split a gemv's columns across threads
                np.dot(mats[0], basis, out=phi)
                np.dot(mats[1], block[: n_prim + n1], out=dphi)
                np.multiply(phi, phi, out=scratch)
                np.add.reduce(scratch, axis=0, out=rho)
                np.multiply(phi, dphi, out=scratch)
                np.add.reduce(scratch, axis=0, out=drho)
                drho *= 2.0
                np.dot(mats[2], block, out=scratch)
                phi *= scratch
                dphi *= dphi
                phi += dphi
                np.add.reduce(phi, axis=0, out=d2rho)
                d2rho *= 2.0
    return tuple(row[: nodes.size].reshape(r.shape) for row in out)


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
# Two forward recurrences, run in one loop, give every Laguerre value: order
# 1 up to degree n-1 and order 3 up to degree n-2, whose step j shares the
# vector 2j + 4 - x with order 1's step j+1.  Each carries M_j = (j!/k!) L_j
# for its top degree k, so a step is three vector ops with no division, the
# top degree comes out unscaled, and C, F and G each take one scalar factor;
# 1/k! stays a normal float up to k = 170.  A, D and E follow from
# L_k^a = L_k^{a+1} - L_{k-1}^{a+1}.  No power of x appears and nothing is
# divided by x.  K e^{-x} enters as a factor sqrt(K) e^{-x/2} on every
# Laguerre value: a single e^{-x} is subnormal at the outer edge of a
# 60-shell grid (x ~ 720) and costs the density about 3 digits there, and
# the unscaled terms of S reach 1e292 at the edge of a 100-shell grid.


def _laguerre_tops(k: int, alpha: float, x: np.ndarray, scratch: tuple, tracks: tuple) -> None:
    """Run L^alpha up to degree k, L^{alpha+2} up to k-1, ... in one loop.

    Track i, a list [prev, cur, spent] of three arrays, carries order
    alpha + 2i up to top = k - i in the scaled variable M_j = (j!/top!) L_j.
    Its step M_{j+1} = t M_j - j (j + alpha + 2i) M_{j-1} needs the vector
    t = 2(j+i) + alpha + 1 - x, the same for every track in one iteration,
    and nothing is divided.  The track is left holding [M_{top-1}, M_top,
    M_{top-2}] = [L_{top-1} / top, L_top, L_{top-2} / (top (top-1))], with
    negative degrees reading as zero.  ``scratch`` is two arrays.  M_0 =
    1/top! is a normal float for top <= 170; beyond, the division raises.
    """
    for i, (prev, cur, spent) in enumerate(tracks):
        prev.fill(0.0)
        cur.fill(1.0 / math.factorial(k - i) if k >= i else 0.0)
        spent.fill(0.0)
    t, scaled = scratch
    for j in range(k):
        np.subtract(2.0 * j + alpha + 1.0, x, out=t)
        for i, work in enumerate(tracks[: j + 1]):
            prev, cur, nxt = work
            np.multiply(prev, (j - i) * (j + i + alpha), out=scaled)
            np.multiply(t, cur, out=nxt)
            nxt -= scaled
            work[:] = cur, nxt, prev


def shell_profile(z: float, n_max: int, r) -> tuple:
    """(rho, rho', rho'') of shells 1..n_max filled at nuclear charge z > 0.

    The last prefix of ``shell_prefixes``, for n_max >= 1, on the radii
    clamped at Z r / n_max = ``_UNDERFLOW_X``.
    """
    rows = ()
    for _, *rows in shell_prefixes(z, n_max, np.minimum(_radii(r), _UNDERFLOW_X * n_max / z)):
        pass
    return tuple(rows)


def shell_prefixes(z: float, n_max: int, r: np.ndarray):
    """Yield (n, rho, rho', rho'') of shells 1..n filled at charge z, for n = 1..n_max.

    Adds each shell's closed form K e^{-x} S and its two r-derivatives to
    running sums, working in place in twelve arrays whatever the shell
    count.  The three yielded arrays are those running sums: the next step
    overwrites them, so a caller reads or copies them before it resumes
    the generator.
    """
    rho, drho, d2rho = (np.zeros_like(r) for _ in range(3))
    x, e, u = (np.empty_like(r) for _ in range(3))
    low, high = ([np.empty_like(r) for _ in range(3)] for _ in range(2))
    for n in range(1, n_max + 1):
        # entered per shell, so that the caller never runs inside it
        with np.errstate(under="ignore"):
            g = 2.0 * z / n
            np.multiply(r, g, out=x)
            _laguerre_tops(n - 1, 1.0, x, (e, u), (low, high))
            (c, b, a), (f, d, gl) = low, high
            c *= n - 1.0
            f *= n - 2.0
            gl *= (n - 2.0) * (n - 3.0)
            # e = sqrt(K) e^{-x/2} until E is formed; every term below is a
            # product of two Laguerre values, so this scaling applies K e^{-x}
            np.multiply(x, -0.5, out=e)
            np.exp(e, out=e)
            e *= math.sqrt(g * g * g / (4.0 * math.pi * n))
            for value in (b, c, d, f, gl):
                value *= e
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
        yield n, rho, drho, d2rho
