"""Filled-shell densities of non-interacting electrons in a Coulomb field.

The solvable system: N electrons bound by a bare -Z/r potential with Z = N,
filling shells n = 1..n_max completely.  Shell filling gives the
closed-shell electron counts 2, 10, 28, 60, 110, ...; per-orbital energies
follow the Rydberg formula, so the total kinetic energy is exactly
n_max * Z^2.  The density (``HydrogenicDensity``) is an analytic sum of
squared radial wavefunctions.  Each shell's sum has a closed form in a few
Laguerre values (Heilmann & Lieb, Phys. Rev. A 52, 3628 (1995)), which the
kernel evaluates by recurrence, never through the exponential-polynomial
expansion: that expansion cancels catastrophically for many shells, while
the closed form keeps many-shell configurations accurate in double
precision.

A model system is fixed by its shell count n_max alone, with Z = N =
``electron_count(n_max)``, so the density and its exact energy both take
n_max.  Every orbital of the outermost shell decays as r^{n_max - 1}
e^{-Z r / n_max}, and the density reports that slowest primitive, from
which ``kedf.span_for`` sets its span.  A charge away from neutrality
reaches only the kernel, ``_kernels.shell_profile(z, n_max, r)``; the
closed-shell ladder reads every point off one such pass at a large
charge (``asymptotics.model_energy_sequence`` describes its grid).

This module alone decides what a shell count is: ``electron_count``
takes a positive integer and no bool, and ``HydrogenicDensity`` also
caps it at ``MAX_SHELLS`` and words that cap; the ladder and the
correction pass counts on as given.  It also owns the input rules of
every module: ``_read_int`` reads each integer token, ``_is_int`` says
what value is an integer, and ``_int_text`` shows either in a message.
The shell kernel (per shell, two Laguerre recurrences of length at most
n, run in one loop, and a closed form in their last values) is checked
to 1e-13 against a 32-digit mpmath orbital sum at 25, 40 and 60 shells
and a 40-digit mpmath closed form at 100.  The cap stays at 40 until the
ladder's 1e-8 quadrature gate and its fits are checked beyond that; the
kernel itself is not the limit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _kernels

__all__ = [
    "MAX_SHELLS",
    "MAGIC_NUMBERS",
    "HydrogenicDensity",
    "electron_count",
    "shell_count_for",
    "model_kinetic_energy",
    "model_kinetic_energy_continuous",
]

MAX_SHELLS = 40

# the widest integer or token a message prints in full: far below the
# int-to-str limit (640 digits at the least), so str() never raises there
_MESSAGE_WIDTH = 100


def _int_text(value) -> str:
    """``repr(value)``, but an int past 100 digits or a str past 100 characters by its size.

    The messages that show an input integer or token, or an integer
    computed from one, call this, so none outgrows a line or fails in str().
    """
    if isinstance(value, str):
        return repr(value) if len(value) <= _MESSAGE_WIDTH else f"a {len(value)}-character token"
    if not isinstance(value, int) or abs(value) < 10**_MESSAGE_WIDTH:
        return repr(value)
    magnitude = abs(value)
    # log10 rounds, so one comparison settles the count at a power of ten
    power = round(math.log10(magnitude))
    digits = power + (magnitude >= 10**power)
    return f"a {digits}-digit {'negative ' if value < 0 else ''}number"


def _is_int(value) -> bool:
    """True for an int or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _read_int(token: str) -> int | None:
    """The int ``token`` writes in ASCII digits after an optional sign, else None.

    ValueError counts its significant digits if int() would refuse them.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"  # leading zeros would count against int()'s limit
    # that limit on a string; 0, or an interpreter before 3.10.7, sets none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise ValueError(f"{len(digits)} significant digits, more than the {limit} read")
    return -int(digits) if token[0] == "-" else int(digits)


def electron_count(n_max: int) -> int:
    """Electrons in shells 1..n_max filled completely: sum of 2 n^2."""
    if not _is_int(n_max) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {_int_text(n_max)}")
    n = int(n_max)
    return n * (n + 1) * (2 * n + 1) // 3


# the closed-shell counts of one to five filled shells: 2, 10, 28, 60, 110
MAGIC_NUMBERS = tuple(electron_count(n) for n in range(1, 6))


def shell_count_for(z: int) -> int | None:
    """Inverse of electron_count on the closed-shell sequence, else None.

    3 electron_count(n) / 2 = n^3 + 3n^2/2 + n/2 lies in [n^3, (n+1)^3), so
    the only candidate is the integer cube root of 3z // 2, found by
    Newton's method on plain ints in O(log log z) steps.
    """
    m = 3 * z // 2
    if m < 1:
        return None
    # from any x >= m^{1/3}, x -> (2x + m // x^2) // 3 falls to floor(m^{1/3}) and stops there
    root = 1 << -(-m.bit_length() // 3)
    while (step := (2 * root + m // (root * root)) // 3) < root:
        root = step
    return root if electron_count(root) == z else None


def model_kinetic_energy(n_max: int) -> float:
    """Exact kinetic energy n_max * Z^2 (hartree) of the neutral n_max-shell system."""
    return n_max * float(electron_count(n_max)) ** 2


def model_kinetic_energy_continuous(z: float) -> float:
    """Closed-form continuation of the kinetic energy to non-integer filling.

    Solving the cubic shell-filling relation for the (real) shell count and
    substituting back gives

        T(Z) = 1/2 (3^{-1/3} D^{-1} + 3^{-2/3} D - 1) Z^2,
        D = (54 Z + sqrt(2916 Z^2 - 3))^{1/3},

    which coincides with n_max * Z^2 whenever Z is a closed-shell count.
    Its domain is the finite Z >= (3/2916)^{1/2}; any other Z, NaN
    included, raises ValueError.
    """
    z = float(z)
    radicand = 2916.0 * z * z - 3.0
    # NaN fails every comparison
    if not (0.0 < z < math.inf and radicand >= 0.0):
        raise ValueError(f"charge {z} outside the domain of the closed form (finite Z > 0, 2916 Z^2 >= 3)")
    d = (54.0 * z + math.sqrt(radicand)) ** (1.0 / 3.0)
    return 0.5 * (3.0 ** (-1.0 / 3.0) / d + 3.0 ** (-2.0 / 3.0) * d - 1.0) * z * z


class HydrogenicDensity:
    """Density of the neutral n_max-shell system.

    Answers the density protocol of ``kedf``: ``profile`` is one
    ``_kernels.shell_profile`` call, and ``slowest_primitive`` is
    (Z / n_max, n_max - 1), the outermost shell's r^{n_max - 1}
    e^{-Z r / n_max}.
    """

    def __init__(self, n_max: int) -> None:
        z = electron_count(n_max)
        if n_max > MAX_SHELLS:
            raise ValueError(
                f"Z={_int_text(z)} fills {_int_text(n_max)} shells; filled-shell counts are "
                f"supported for 1..{MAX_SHELLS} shells"
            )
        self.n_max = int(n_max)
        self.z = float(z)
        self.slowest_primitive = (self.z / self.n_max, self.n_max - 1)

    def profile(self, r):
        """(rho, rho', rho'') shaped like ``r``, from one kernel call."""
        return _kernels.shell_profile(self.z, self.n_max, r)

    def total_charge(self) -> float:
        return self.z

    def __repr__(self) -> str:
        return f"HydrogenicDensity(Z={self.z:g}, n_max={self.n_max})"
