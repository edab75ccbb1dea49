"""Shell correction to the Thomas-Fermi energy of Coulomb systems.

For a neutral system of filled hydrogen-like shells the total kinetic
energy is known in closed form, so the Thomas-Fermi deficit

    delta_T(Z) = T_shell(Z) - T_TF[rho_shell]

is computable exactly at the filling numbers Z = 2, 10, 28, 60, 110.
A cubic in Z through the first four of those points extends the deficit
to every integer Z in between; adding it back to a Thomas-Fermi energy
gives the corrected estimate T_TF + delta_T.  The exact deficits are read
off the ladder points of ``asymptotics.model_energy_sequence`` (which
describes their grid).  ``delta_t`` alone gives delta_T, decides which Z
it reaches and reports the node it is exact at; the command line prints
its ValueError as it stands and offers ``INTERPOLATION_MODES`` as they
stand.  The refit mode (``DEFAULT_MODE``) solves for the cubic from freshly
computed node deltas at full precision; the published mode returns the
five-decimal literature coefficients for comparison runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .asymptotics import model_energy_sequence
from .hydrogenic import MAGIC_NUMBERS, electron_count, shell_count_for

__all__ = [
    "DEFAULT_MODE",
    "INTERPOLATION_MAX_Z",
    "INTERPOLATION_MODES",
    "LAST_NODE_Z",
    "PUBLISHED_COEFFICIENTS",
    "cubic_coefficients",
    "delta_t_exact",
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
    ``asymptotics.model_energy_sequence``, which computes the energies and
    checks the shell count.  Quadrature failures propagate.
    """
    (point,) = model_energy_sequence([n_max])
    return point.t_exact - point.t_tf


def _refit() -> tuple[float, float, float, float]:
    """The cubic through the exact deficits at the first four nodes."""
    nodes = model_energy_sequence(_NODE_SHELLS)
    zs = np.array([point.z for point in nodes])
    deltas = [point.t_exact - point.t_tf for point in nodes]
    coefs = np.linalg.solve(np.vander(zs, 4, increasing=True), deltas)
    return tuple(float(c) for c in coefs)


# the interpolation modes, in the order the command line lists them, each
# with the source of its cubic; the fit through the nodes is the default
INTERPOLATION_MODES = {"published": lambda: PUBLISHED_COEFFICIENTS, "refit": _refit}
DEFAULT_MODE = next(mode for mode, source in INTERPOLATION_MODES.items() if source is _refit)


def _check_mode(mode: str) -> None:
    if mode not in INTERPOLATION_MODES:
        names = " or ".join(repr(name) for name in INTERPOLATION_MODES)
        raise ValueError(f"unknown interpolation mode {mode!r}; use {names}")


@lru_cache(maxsize=None)
def cubic_coefficients(mode: str) -> tuple[float, float, float, float]:
    """(c0, c1, c2, c3) of the deficit cubic of ``mode``, computed once per process."""
    _check_mode(mode)
    return INTERPOLATION_MODES[mode]()


def delta_t(z: int, mode: str) -> tuple[float, int | None]:
    """Deficit delta_T for atomic number ``z``, and the node it is exact at.

    The exact node value, with its shell count, when ``z`` is a
    filled-shell count (2, 10, 28, 60, 110, ...); the cubic of ``mode``,
    with None, at any other ``z`` in 1..``INTERPOLATION_MAX_Z`` (an
    extrapolation past ``LAST_NODE_Z``).  Every other ``z``, an unknown
    ``mode`` and a filled-shell count past the cap of
    ``hydrogenic.HydrogenicDensity``, which words it, raise ValueError
    before any quadrature.
    """
    if isinstance(z, bool) or not isinstance(z, (int, np.integer)):
        raise ValueError(f"atomic number must be an integer, got {z!r}")
    z = int(z)
    _check_mode(mode)
    n_max = shell_count_for(z)
    if n_max is None:
        if not 1 <= z <= INTERPOLATION_MAX_Z:
            side = "below" if z < 1 else "beyond"
            raise ValueError(
                f"Z={z} is not a filled-shell count and lies {side} the "
                f"interpolation range (1..{INTERPOLATION_MAX_Z})"
            )
        c0, c1, c2, c3 = cubic_coefficients(mode)
        return c0 + z * (c1 + z * (c2 + z * c3)), None
    return delta_t_exact(n_max), n_max
