"""Shell correction to the Thomas-Fermi energy of Coulomb systems.

For a neutral system of filled hydrogen-like shells the total kinetic
energy is known in closed form, so the Thomas-Fermi deficit

    delta_T(Z) = T_shell(Z) - T_TF[rho_shell]

is computable exactly at the filling numbers Z = 2, 10, 28, 60, 110.
A cubic in Z through the first four of those points extends the deficit
to every integer Z in between; adding it back to a Thomas-Fermi energy
gives the corrected estimate T_TF + delta_T.  The exact deficits are read
off the ladder points of ``asymptotics.model_energy_sequence`` (which
describes their grid).  ``delta_t`` alone decides which Z the correction
reaches, and how; the command line prints its ValueError as it stands.

``cubic_coefficients(mode)`` gives the cubic: 'refit' (the command line's
default) solves for its coefficients from freshly computed node deltas at
full precision, while 'published' returns the five-decimal literature
coefficients for comparison runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .asymptotics import model_energy_sequence
from .hydrogenic import MAGIC_NUMBERS, MAX_SHELLS, electron_count, shell_count_for

__all__ = [
    "INTERPOLATION_MAX_Z",
    "LAST_NODE_Z",
    "PUBLISHED_COEFFICIENTS",
    "cubic_coefficients",
    "delta_t_exact",
    "delta_t_interpolated",
    "delta_t",
]

# cubic c0 + c1 Z + c2 Z^2 + c3 Z^3 through the deficits at Z = 2, 10, 28, 60
PUBLISHED_COEFFICIENTS = (0.21210, -0.19860, 0.12815, 0.00010)

_NODE_SHELLS = (1, 2, 3, 4)
# the charge of the last node, 60: beyond it the cubic extrapolates
LAST_NODE_Z = electron_count(_NODE_SHELLS[-1])
# the cubic serves every Z up to the last closed-shell count, 110
INTERPOLATION_MAX_Z = MAGIC_NUMBERS[-1]


def delta_t_exact(n_max: int) -> float:
    """Exact Thomas-Fermi deficit of the closed-shell system with ``n_max`` shells.

    T_shell - T_TF[rho_shell] for the neutral configuration (Z equal to the
    electron count), read off the ladder point of
    ``asymptotics.model_energy_sequence``, which computes and caches the
    energies and checks the shell count.  Quadrature failures propagate.
    """
    (point,) = model_energy_sequence([n_max])
    return point.t_exact - point.t_tf


def _as_atomic_number(z: int) -> int:
    if not isinstance(z, (int, np.integer)):
        raise ValueError(f"atomic number must be an integer, got {z!r}")
    return int(z)


@lru_cache(maxsize=None)
def cubic_coefficients(mode: str) -> tuple[float, float, float, float]:
    """(c0, c1, c2, c3) of the deficit cubic: published, or refit through the exact nodes."""
    if mode == "published":
        return PUBLISHED_COEFFICIENTS
    if mode == "refit":
        nodes = model_energy_sequence(_NODE_SHELLS)
        zs = np.array([point.z for point in nodes])
        deltas = [point.t_exact - point.t_tf for point in nodes]
        coefs = np.linalg.solve(np.vander(zs, 4, increasing=True), deltas)
        return tuple(float(c) for c in coefs)
    raise ValueError(f"unknown interpolation mode {mode!r}; use 'published' or 'refit'")


def _cubic(z: int, mode: str) -> float:
    c0, c1, c2, c3 = cubic_coefficients(mode)
    z = float(z)
    return c0 + z * (c1 + z * (c2 + z * c3))


def delta_t_interpolated(z: int, mode: str) -> float:
    """Cubic-interpolated deficit at integer atomic number ``z`` (1..110).

    Beyond the last construction node (Z = ``LAST_NODE_Z`` = 60) this is an
    extrapolation; the command-line layer warns about it, the library does not.
    """
    z = _as_atomic_number(z)
    if not 1 <= z <= INTERPOLATION_MAX_Z:
        raise ValueError(f"atomic number out of range [1, {INTERPOLATION_MAX_Z}]: {z}")
    return _cubic(z, mode)


def delta_t(z: int, mode: str) -> float:
    """Deficit delta_T for atomic number ``z``.

    The exact node value when ``z`` fills 1..``MAX_SHELLS`` shells
    (2, 10, 28, 60, 110, ...) and the cubic value at any other ``z`` in
    1..``INTERPOLATION_MAX_Z``.  Every other ``z`` raises ValueError.
    """
    z = _as_atomic_number(z)
    n_max = shell_count_for(z)
    if n_max is None:
        if not 1 <= z <= INTERPOLATION_MAX_Z:
            raise ValueError(
                f"Z={z} is not a filled-shell count and lies beyond the "
                f"interpolation range (1..{INTERPOLATION_MAX_Z})"
            )
        return _cubic(z, mode)
    if n_max > MAX_SHELLS:
        raise ValueError(
            f"Z={z} fills {n_max} shells; filled-shell counts are "
            f"supported for 1..{MAX_SHELLS} shells"
        )
    return delta_t_exact(n_max)
