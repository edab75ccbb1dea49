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
stand.  Each mode is the cubic's coefficients, held as constants: the
refit mode (``DEFAULT_MODE``) at full precision, as solving the
Vandermonde system on the four exact node deficits gives them, and the
published mode to the five decimals of the literature, for comparison
runs.  A Z between the nodes thus costs no quadrature; the test suite
repeats the refit on the ladder and holds the constants to it.

``table1_row`` and ``model_row`` build the records of ``tfshell table1``
and ``tfshell model`` from the deficit ``delta_t`` returned; the first
holds Table 1's one error convention, the columns ``TABLE1_ERROR_KEYS``.
"""

from __future__ import annotations

from .asymptotics import MODEL_SERIES, model_energy_sequence, model_series
from .atomic_data import STOAtomRecord, atom_density
from .hydrogenic import (
    MAGIC_NUMBERS,
    _int_text,
    _is_int,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
    shell_count_for,
)
from .kedf import Energies, energies

__all__ = [
    "DEFAULT_MODE",
    "INTERPOLATION_MAX_Z",
    "INTERPOLATION_MODES",
    "LAST_NODE_Z",
    "TABLE1_ERROR_KEYS",
    "delta_t_exact",
    "delta_t",
    "model_row",
    "table1_row",
]

# the interpolation modes, in the order the command line lists them, each
# with its cubic; the refit, the default, is the cubic through the exact
# deficits delta_t_exact(1..4), in the digits that round-trip its floats
INTERPOLATION_MODES = {
    # cubic c0 + c1 Z + c2 Z^2 + c3 Z^3 through the deficits at Z = 2, 10, 28, 60
    "published": (0.21210, -0.19860, 0.12815, 0.00010),
    "refit": (
        0.21209857870156784,
        -0.19860129586614697,
        0.1281455374180465,
        0.00010426308295771889,
    ),
}
DEFAULT_MODE = "refit"

# the charge of the last node, 60: beyond it the cubic extrapolates
LAST_NODE_Z = MAGIC_NUMBERS[3]
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
    return point.t_exact - point.t.t_tf


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
    if not _is_int(z):
        raise ValueError(f"atomic number must be an integer, got {z!r}")
    z = int(z)
    try:
        c0, c1, c2, c3 = INTERPOLATION_MODES[mode]
    except KeyError:
        names = " or ".join(repr(name) for name in INTERPOLATION_MODES)
        raise ValueError(f"unknown interpolation mode {mode!r}; use {names}") from None
    n_max = shell_count_for(z)
    if n_max is None:
        if not 1 <= z <= INTERPOLATION_MAX_Z:
            side = "below" if z < 1 else "beyond"
            raise ValueError(
                f"Z={_int_text(z)} is not a filled-shell count and lies {side} the "
                f"interpolation range (1..{INTERPOLATION_MAX_Z})"
            )
        return c0 + z * (c1 + z * (c2 + z * c3)), None
    return delta_t_exact(n_max), n_max


# the error columns of a table1 row, in the order the table prints them
TABLE1_ERROR_KEYS = ("err_tf_pct", "err_tf_t2_pct", "err_tf_t2_t4_pct", "err_corrected_pct")


def table1_row(record: STOAtomRecord, delta: float, t: Energies | None = None) -> dict:
    """The ``table1`` record of one atom: energies and percent errors.

    ``t`` defaults to ``energies(atom_density(record))``.  Errors follow
    (approximation - reference)/reference, so a functional that
    underestimates the Hartree-Fock kinetic energy reports a negative
    error.  The gradient columns grade the cumulative sums T_TF + T_2 and
    T_TF + T_2 + T_4; the corrected energy is T_TF + delta_T.
    """
    if t is None:
        t = energies(atom_density(record))
    ref = record.reference_hf_kinetic
    corrected = t.t_tf + delta
    approximations = (t.t_tf, t.t_tf + t.t2, t.t_tf + t.t2 + t.t4, corrected)
    return {
        "z": record.atomic_number,
        "atom": record.element,
        "reference_hf_kinetic": ref,
        "t_tf": t.t_tf,
        "t2": t.t2,
        "t4": t.t4,
        "delta_t": delta,
        "corrected": corrected,
        **{key: 100.0 * ((approx - ref) / ref) for key, approx in zip(TABLE1_ERROR_KEYS, approximations)},
    }


def model_row(z: int, delta: float, n_max: int | None, mode: str) -> dict:
    """The ``model`` record of charge ``z``: exact energy, deficit and large-Z series.

    ``delta`` and ``n_max`` are what ``delta_t(z, mode)`` returned; the
    exact energy is continued between the filled-shell counts.
    """
    if n_max is not None:
        t_exact = model_kinetic_energy(n_max)
        delta_kind = f"exact at {n_max} filled shells"
    else:
        t_exact = model_kinetic_energy_continuous(z)
        below = [n for n in MAGIC_NUMBERS if n < z]
        where = f"between filled-shell counts {below[-1]} and" if below else "below the first filled-shell count"
        delta_kind = f"interpolated, not exact (Z {where} {MAGIC_NUMBERS[len(below)]})"
    series_value = model_series(MODEL_SERIES, z)
    return {
        "z": z,
        "electrons": z,
        "filled_shells": n_max,
        "t_model": t_exact,
        "t_tf_model": t_exact - delta,
        "delta_t": delta,
        "delta_kind": delta_kind,
        "series_value": series_value,
        "series_relative_gap": (series_value - t_exact) / t_exact,
        "interpolation_mode": mode,
    }
