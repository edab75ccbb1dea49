"""The neutral closed-shell Bohr atom written as a Slater-type .sto record.

Every orbital (n, l) of the n_max-shell model is R_nl(r) proportional to
x^l e^{-x/2} L_{n-l-1}^{2l+1}(x) with x = 2 zeta r and zeta = Z/n.  A
unit-norm primitive of power n' at that zeta is
(2 zeta)^{3/2} x^{n'-1} e^{-x/2} / sqrt((2n')!), so the orbital's
coefficients on the primitives n' = l+1..n depend on (n, l) alone: the
Laguerre coefficient of x^{n'-l-1} times sqrt((2n')!), normalized with
the overlap (n'+m')! / sqrt((2n')! (2m')!) of two such primitives.  All of
it is exact in sympy until the last rounding to a float.  The header's
reference kinetic energy is the model's exact n_max Z^2.
"""

from __future__ import annotations

import sympy as sp

from tfshell.hydrogenic import electron_count

_LETTERS = "spdfgh"
# one alphabetic symbol per shell count, so several records fit one file
SYMBOLS = ("One", "Two", "Three", "Four", "Five", "Six")


def orbital_coefficients(n: int, l: int) -> list[tuple[int, float]]:
    """(n', c) of the unit-norm orbital (n, l) on primitives n' = l+1..n at a common zeta."""
    x = sp.Symbol("x")
    laguerre = sp.Poly(sp.assoc_laguerre(n - l - 1, 2 * l + 1, x), x)
    powers = list(range(l + 1, n + 1))
    raw = [laguerre.coeff_monomial(x ** (p - l - 1)) * sp.sqrt(sp.factorial(2 * p)) for p in powers]
    norm_sq = sum(
        a * b * sp.factorial(p + q) / sp.sqrt(sp.factorial(2 * p) * sp.factorial(2 * q))
        for a, p in zip(raw, powers)
        for b, q in zip(raw, powers)
    )
    scale = 1 / sp.sqrt(sp.nsimplify(norm_sq))
    return [(p, float(sp.N(c * scale, 40))) for c, p in zip(raw, powers)]


def model_record_text(n_max: int) -> str:
    """.sto text of the neutral ``n_max``-shell model, every subshell filled."""
    z = electron_count(n_max)
    lines = [f"ATOM {SYMBOLS[n_max - 1]} {z} {float(n_max * z * z)!r}"]
    for n in range(1, n_max + 1):
        zeta = z / n
        for l in range(n):
            lines.append(f"ORB {n}{_LETTERS[l]} {2 * (2 * l + 1)}")
            lines += [f"PRM {p} {zeta!r} {c!r}" for p, c in orbital_coefficients(n, l)]
    return "\n".join(lines) + "\n"
