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
caps it at ``MAX_SHELLS``; the ladder and the correction pass counts on
as given.  The shell kernel (per shell, two Laguerre recurrences of
length at most n, run in one loop, and a closed form in their last
values) is checked to 1e-13 against a 32-digit mpmath orbital sum at 25,
40 and 60 shells and a 40-digit mpmath closed form at 100.  The cap
stays at 40 until the ladder's 1e-8 quadrature gate and its fits are
checked beyond that; the kernel itself is not the limit.
"""

from __future__ import annotations

import bisect
import math

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

# np.exp(-x) is exactly 0 for x above about 745.13, the float64 underflow
_UNDERFLOW_X = 745.2


def electron_count(n_max: int) -> int:
    """Electrons in shells 1..n_max filled completely: sum of 2 n^2."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    return int(n_max) * (n_max + 1) * (2 * n_max + 1) // 3


# the closed-shell counts of one to five filled shells: 2, 10, 28, 60, 110
MAGIC_NUMBERS = tuple(electron_count(n) for n in range(1, 6))


def shell_count_for(z: int) -> int | None:
    """Inverse of electron_count on the closed-shell sequence, else None.

    Doubles a bound on the shell count, then bisects: O(log z) steps.
    """
    hi = 1
    while electron_count(hi) < z:
        hi *= 2
    n = bisect.bisect_left(range(1, hi + 1), z, key=electron_count) + 1
    return n if electron_count(n) == z else None


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
    """
    z = float(z)
    radicand = 2916.0 * z * z - 3.0
    if radicand < 0.0:
        raise ValueError(f"charge {z} below the domain of the closed form (2916 Z^2 >= 3)")
    d = (54.0 * z + math.sqrt(radicand)) ** (1.0 / 3.0)
    return 0.5 * (3.0 ** (-1.0 / 3.0) / d + 3.0 ** (-2.0 / 3.0) * d - 1.0) * z * z


class HydrogenicDensity:
    """Density of the neutral n_max-shell system, evaluated by the closed-form shell kernel.

    Answers the density protocol of ``kedf`` (``profile``,
    ``total_charge`` and ``slowest_primitive``, here (Z / n_max,
    n_max - 1): the outermost shell's r^{n_max - 1} e^{-Z r / n_max}).
    """

    def __init__(self, n_max: int) -> None:
        z = electron_count(n_max)
        if n_max > MAX_SHELLS:
            raise ValueError(f"n_max = {n_max} beyond supported shell range {MAX_SHELLS}")
        self.n_max = int(n_max)
        self.z = float(z)
        self.slowest_primitive = (self.z / self.n_max, self.n_max - 1)

    def profile(self, r):
        """(rho, rho', rho'') from one kernel call: arrays, or floats for a scalar r."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        # a NaN makes min and max NaN, which fails both comparisons
        if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
            raise ValueError("radius must be finite and non-negative")
        z, n_max = self.z, self.n_max
        # past Z r / n_max = _UNDERFLOW_X every shell's e^{-Z r / n} is 0,
        # while its Laguerre recurrence can overflow to inf (0 * inf = nan)
        r_far = _UNDERFLOW_X * n_max / z
        if arr.size == 0 or arr.max() <= r_far:
            rows = _kernels.shell_profile(z, n_max, arr)
        else:
            near = arr <= r_far
            rows = tuple(np.zeros_like(arr) for _ in range(3))
            for row, part in zip(rows, _kernels.shell_profile(z, n_max, arr[near])):
                row[near] = part
        if np.asarray(r).ndim == 0:
            return tuple(float(row[0]) for row in rows)
        return rows

    def total_charge(self) -> float:
        return self.z

    def __repr__(self) -> str:
        return f"HydrogenicDensity(Z={self.z:g}, n_max={self.n_max})"
