"""T_4 on the whole half-line by mpmath: a reference no radial span enters.

A density is given as a term list, c r^p e^{-b r} summed, whose first two
derivatives follow term by term.  ``half_line_t4`` integrates the textbook
Laplacian form of the fourth-order integrand over [0, inf) with mpmath's
tanh-sinh rule, split at the fastest and the slowest scale 1/b of the
terms.  ``hydrogenic_terms`` writes the filled-shell density as such a list
in exact sympy numbers from sympy's associated Laguerre polynomials;
``pair_reference.pair_field`` does the same for a Slater-type atom.
"""

from __future__ import annotations

import mpmath
import sympy as sp

from tfshell.hydrogenic import electron_count


def hydrogenic_terms(n_max: int) -> list[tuple]:
    """(1/4 pi) sum 2(2l+1) R_nl^2 of the neutral n_max-shell system as exact (c, p, b) terms."""
    r = sp.symbols("r", positive=True)
    z = sp.Integer(electron_count(n_max))
    acc: dict[tuple, sp.Expr] = {}
    for n in range(1, n_max + 1):
        g = 2 * z / n
        for l in range(n):
            norm_sq = g**3 * sp.factorial(n - l - 1) / (2 * n * sp.factorial(n + l))
            poly = sp.Poly(((g * r) ** l * sp.assoc_laguerre(n - l - 1, 2 * l + 1, g * r)) ** 2, r)
            for (p,), c in poly.terms():
                acc[(p, g)] = acc.get((p, g), 0) + 2 * (2 * l + 1) * norm_sq * c / (4 * sp.pi)
    return [(c, p, b) for (p, b), c in acc.items()]


def _mpf(x) -> mpmath.mpf:
    """A float, or a sympy number evaluated to 40 digits, as an mpmath number."""
    return mpmath.mpf(str(sp.N(x, 40)) if isinstance(x, sp.Basic) else x)


def half_line_t4(terms) -> float:
    """T_4 of rho = sum c r^p e^{-b r} over [0, inf), in the Laplacian form.

    4 pi c_4 times the integral of r^2 rho^{1/3} [(L/rho)^2 - (9/8) L
    rho'^2/rho^3 + (rho'/rho)^4 / 3], L = rho'' + 2 rho'/r, at 20 digits.
    """
    with mpmath.workdps(20):
        terms = [(_mpf(c), int(p), _mpf(b)) for c, p, b in terms]
        c4 = (3 * mpmath.pi**2) ** (-mpmath.mpf(2) / 3) / 540

        def integrand(r):
            rho = d1 = d2 = mpmath.mpf(0)
            for c, p, b in terms:
                e = c * mpmath.exp(-b * r)
                q0 = r**p
                q1 = p * r ** (p - 1)
                q2 = p * (p - 1) * r ** (p - 2)
                rho += e * q0
                d1 += e * (q1 - b * q0)
                d2 += e * (q2 - 2 * b * q1 + b * b * q0)
            lap = d2 + 2 * d1 / r
            y = d1 / rho
            bracket = (lap / rho) ** 2 - mpmath.mpf(9) / 8 * (lap / rho) * y**2 + y**4 / 3
            return 4 * mpmath.pi * c4 * r**2 * mpmath.cbrt(rho) * bracket

        scales = {max(b for _, _, b in terms), min(b for _, _, b in terms)}
        breaks = sorted({k / b for b in scales for k in (mpmath.mpf(1) / 2, 2, 6, 24)})
        value, error = mpmath.quad(integrand, [0, *breaks, mpmath.inf], error=True)
        if not error < 1e-12 * abs(value):
            raise ArithmeticError(f"mpmath quadrature error estimate {error} too large")
        return float(value)

