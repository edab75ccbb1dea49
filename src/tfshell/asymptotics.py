"""Large-Z behavior: series coefficients, extrapolation, and the scaled density.

Three strands live here:

* the closed-form expansion of the shell-model kinetic energy in powers
  of Z^{1/3} (``MODEL_SERIES``, summed by ``model_series``), with every
  coefficient an exact surd;
* Richardson extrapolation of finite-shell energy sequences to asymptotic
  coefficients (``richardson_extrapolate``, ``model_energy_sequence``),
  with ``FITS``, the one table of the ladder fits ``tfshell asymptotics``
  reports, their powers and targets (run by ``fit_rows``);
* the semiclassical limit of the scaled density (``tf_limit_density``)
  and the finite-Z scaled density sampled against it
  (``scaled_model_density``, ``figure_density_rows``).

Every power in ``MODEL_SERIES`` and ``FITS`` is a whole number of thirds,
the unit of the extrapolation variable u = Z^{-1/3}, and is written as the
integer k of Z^{k/3}.

Scaling conventions: r_hat = Z^{1/3} r and rho_hat = rho / Z^2, in which
the limit density is Z-independent, vanishes at the turning point
r_hat = 18^{1/3}, and integrates (times 4 pi r_hat^2) to exactly 1.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .hydrogenic import MAX_SHELLS, HydrogenicDensity, model_kinetic_energy
from .kedf import ConvergenceError, Energies, grid_for, profile_energies

__all__ = [
    "TURNING_POINT",
    "FITS",
    "LADDER_SHELLS",
    "MODEL_SERIES",
    "SequencePoint",
    "Fit",
    "fit_rows",
    "model_series",
    "richardson_extrapolate",
    "tf_limit_density",
    "scaled_model_density",
    "model_energy_sequence",
    "figure_density_rows",
    "figure_error_rows",
]

TURNING_POINT = 18.0 ** (1.0 / 3.0)

_MAX_ELIMINATION_DEPTH = 5
# The ladder the asymptotics command fits: Neville at that depth reads only
# the last depth + 1 points, so these fit to the same bits as n_max 2..25.
LADDER_SHELLS = tuple(range(25 - _MAX_ELIMINATION_DEPTH, 25 + 1))

# fig1.csv: the scaled densities of these shell counts at this many points
_FIG1_SHELLS = (1, 2, 3, 5)
_FIG1_POINTS = 500
# fig1a.csv: the functional errors of every supported shell count
_FIG1A_SHELLS = tuple(range(1, MAX_SHELLS + 1))


# Exact coefficients of the shell-model energy in descending powers of Z^{1/3}:
# a pair (k, c) is the term c Z^{k/3}.  Every power missing from this list
# (k = 4, 3, 2, 0) is identically zero.
MODEL_SERIES: tuple[tuple[int, float], ...] = (
    (7, (3.0 / 2.0) ** (1.0 / 3.0)),
    (6, -0.5),
    (5, 1.0 / (6.0 * 12.0 ** (1.0 / 3.0))),
    (1, -1.0 / (3888.0 * 18.0 ** (1.0 / 3.0))),
    (-1, 1.0 / (69984.0 * 12.0 ** (1.0 / 3.0))),
)


def model_series(terms: Sequence[tuple[int, float]], z: float) -> float:
    """The series sum(c z^{k/3}) over ``terms``, pairs (k, c) such as ``MODEL_SERIES``, summed at ``z``."""
    return float(sum(c * float(z) ** (k / 3) for k, c in terms))


def _extrapolate_constant(u: list[float], s: list[float]) -> float:
    """Limit of s(u) as u -> 0 by Neville extrapolation in u.

    Column k of the tableau is the degree-k polynomial through k+1
    consecutive points, evaluated at u = 0; the estimate at each depth is
    taken from the smallest-u window.  Exact for polynomial s(u) once the
    depth reaches the degree.
    """
    depth = min(_MAX_ELIMINATION_DEPTH, len(s) - 1)
    column = s[:]
    estimates = [column[-1]]
    for k in range(1, depth + 1):
        column = [
            (u[i] * column[i + 1] - u[i + k] * column[i]) / (u[i] - u[i + k])
            for i in range(len(column) - 1)
        ]
        value = column[-1]
        if not math.isfinite(value):
            raise ConvergenceError("extrapolation tableau produced a non-finite value")
        estimates.append(value)
    # Settling tableaus have shrinking corrections; divergence shows up as
    # corrections that keep growing toward the deepest levels.  Roundoff
    # jitter near the floor is excluded by the relative-size guard.
    deltas = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    nonzero = [d for d in deltas if d > 0]
    significant = nonzero and deltas[-1] > 1e-9 * abs(estimates[-1])
    growing_tail = len(deltas) >= 3 and deltas[-1] > deltas[-2] > deltas[-3]
    if significant and (
        (growing_tail and deltas[-1] > 10.0 * min(nonzero))
        or deltas[-1] > 1e3 * min(nonzero)
    ):
        raise ConvergenceError(
            "extrapolation tableau diverges: correction sizes grew from "
            f"{min(nonzero):.3e} to {deltas[-1]:.3e}"
        )
    return estimates[-1]


def richardson_extrapolate(
    sequence: Sequence[tuple[float, float]], powers: Sequence[float]
) -> list[float]:
    """Fit value(Z) ~ sum(a_i Z^{p_i}) from a finite increasing-Z sequence.

    ``sequence`` holds (Z, value) pairs; ``powers`` the powers p_i in
    strictly decreasing order.  Coefficients are extracted one at a time:
    divide the running residual by Z^{p_i}, accelerate the resulting
    sequence to its u -> 0 limit in u = Z^{-1/3}, subtract, repeat.
    Requires at least len(powers) + 2 points, every Z, value and power
    finite; raises ConvergenceError when an acceleration tableau
    diverges instead of settling.
    """
    pts = [(float(z), float(v)) for z, v in sequence]
    if len(pts) < len(powers) + 2:
        raise ValueError(
            f"need at least {len(powers) + 2} points for {len(powers)} powers, got {len(pts)}"
        )
    zs = [z for z, _ in pts]
    # written so that a NaN fails each check
    if not (zs[0] > 0.0 and zs[-1] < math.inf and all(a < b for a, b in zip(zs, zs[1:]))):
        raise ValueError("sequence must have finite, positive, strictly increasing Z values")
    if not all(math.isfinite(v) for _, v in pts):
        raise ValueError("sequence values must be finite")
    plist = [float(p) for p in powers]
    if not (all(map(math.isfinite, plist)) and all(a > b for a, b in zip(plist, plist[1:]))):
        raise ValueError("powers must be finite and strictly decreasing")

    u = [z ** (-1.0 / 3.0) for z in zs]
    residual = [v for _, v in pts]
    coefficients = []
    for p in plist:
        scaled = [r / z**p for r, z in zip(residual, zs)]
        a = _extrapolate_constant(u, scaled)
        coefficients.append(a)
        residual = [r - a * z**p for r, z in zip(residual, zs)]
    return coefficients


def tf_limit_density(r_hat):
    """Scaled semiclassical density: (2*sqrt(2)/3 pi^2)(1/r_hat - 18^{-1/3})^{3/2}.

    Valid for finite r_hat > 0; identically zero at and beyond the turning
    point 18^{1/3}.  The r_hat -> 0 divergence is integrable under the 4 pi
    r_hat^2 weight (the total scaled charge is exactly 1), but the point
    r_hat = 0 itself is rejected, and so are NaN and inf.
    """
    arr = np.asarray(r_hat, dtype=float)
    # a NaN makes min and max NaN, which fails both comparisons
    if not (arr.min(initial=1.0) > 0.0 and arr.max(initial=1.0) < math.inf):
        raise ValueError("tf_limit_density requires finite r_hat > 0")
    const = 2.0 * math.sqrt(2.0) / (3.0 * math.pi**2)
    inside = arr < TURNING_POINT
    out = np.zeros_like(arr)
    # below about 1e-308, 1 / r_hat overflows to +inf, the density's value there
    with np.errstate(over="ignore"):
        out[inside] = const * (1.0 / arr[inside] - 18.0 ** (-1.0 / 3.0)) ** 1.5
    if np.isscalar(r_hat) or arr.ndim == 0:
        return float(out)
    return out


def scaled_model_density(n_max: int, r_hat) -> np.ndarray:
    """The scaled density rho_hat(r_hat) = Z^{-2} rho(Z^{-1/3} r_hat) of the n_max-shell model."""
    r_hat = np.asarray(r_hat, dtype=float)
    rho = HydrogenicDensity(n_max)
    z = rho.z
    return np.asarray(rho.profile(r_hat * z ** (-1.0 / 3.0))[0] / z**2, dtype=float)


class SequencePoint(NamedTuple):
    """One closed-shell system of the magic-number sequence: exact energy and ``kedf.Energies`` ``t``."""

    n_max: int
    z: float
    t_exact: float
    t: Energies


def model_energy_sequence(shell_counts: Iterable[int]) -> list[SequencePoint]:
    """Exact energy and ``kedf.Energies`` (field ``t``) for each shell count.

    Every shell count goes to ``HydrogenicDensity`` as given, which checks
    it, before any is computed.  The points come from one pass of the
    shell kernel (``_kernels.shell_prefixes``) at Z_top =
    ``electron_count(MAX_SHELLS)`` on ``grid_for`` of the
    ``MAX_SHELLS``-shell density, the one grid of every ladder point.  A
    density of k filled shells is rho_k(r; Z) = Z^3 P_k(Z r) for one
    unit-charge profile P_k (Heilmann & Lieb), so the running sum after
    shell k is the k-shell density at Z_top, with charge N(k); its energies
    times (Z_k / Z_top)^2 are those of the neutral k-shell system.  Points
    are integrated in shell order, only at the requested prefixes, and
    returned in request order; a point has the same bits whichever call
    asks for it, and nothing is kept between calls.  Raising
    ``MAX_SHELLS`` moves every point and must re-run
    ``test_every_prefix_matches_its_own_grid``.  A failing point raises for
    the first failing shell count.
    """
    densities = [HydrogenicDensity(n_max) for n_max in shell_counts]
    wanted = {rho.n_max: rho for rho in densities}
    top = HydrogenicDensity(MAX_SHELLS)
    grid = grid_for(top)
    points = {}
    for n_max, *rows in _kernels.shell_prefixes(top.z, max(wanted, default=0), grid.nodes):
        rho = wanted.get(n_max)
        if rho is None:
            continue
        scale = rho.z**2 / top.z**2
        t = Energies._make(scale * e for e in profile_energies(grid, rows, rho.total_charge()))
        points[n_max] = SequencePoint(n_max, rho.z, model_kinetic_energy(n_max), t)
    return [points[rho.n_max] for rho in densities]


class Fit(NamedTuple):
    """One Richardson fit on the ladder, with the paper's target for each power Z^{k/3} it fits."""

    series: str
    value: Callable[[Energies], float]
    # True to fit value / t_exact, the fraction of the exact energy
    relative: bool
    # (k, target, tolerance) per fitted power Z^{k/3}, k decreasing
    terms: tuple[tuple[int, float, float], ...]


# The fits of `tfshell asymptotics` in report order, with the paper's printed
# targets.  The T_TF Z^2 target (-0.625856) is not the Z^2 coefficient of the
# ladder's local-density energy, which an independent core-scaling oracle in
# the acceptance tests puts at -0.65282.
FITS: tuple[Fit, ...] = (
    Fit("T_TF", lambda t: t.t_tf, False, (
        (7, 1.144714, 1e-5),
        (6, -0.625856, 1e-3),
        (5, 0.146878, 1e-2),
    )),
    Fit("T2", lambda t: t.t2, False, ((7, 0.0, 1e-4),)),
    Fit("T2", lambda t: t.t2, True, ((-1, 0.10942, 1e-3),)),
    Fit("T4", lambda t: t.t4, True, ((-1, 0.015052, 1e-3),)),
)


def fit_rows(points: Sequence[SequencePoint]) -> list[dict]:
    """The records of ``tfshell asymptotics``: one per fitted power of ``FITS`` on ``points``.

    A record's ``power`` reads ``Z^2`` when k is a multiple of 3 and
    ``Z^{7/3}`` otherwise; its ``quantity`` says whether the fit is of the
    energy or of its fraction of the exact energy.
    """
    rows = []
    for fit in FITS:
        sequence = [
            (p.z, fit.value(p.t) / p.t_exact if fit.relative else fit.value(p.t)) for p in points
        ]
        fitted = richardson_extrapolate(sequence, [k / 3 for k, *_ in fit.terms])
        quantity = "fraction of exact energy" if fit.relative else "coefficient"
        for value, (k, target, tolerance) in zip(fitted, fit.terms):
            label = f"Z^{k // 3}" if k % 3 == 0 else f"Z^{{{k}/3}}"
            deviation = abs(value - target)
            rows.append({
                "series": fit.series, "quantity": quantity, "power": label, "fitted": value,
                "target": target, "deviation": deviation, "tolerance": tolerance,
                "within_tolerance": deviation <= tolerance,
            })
    return rows


def figure_density_rows() -> list[dict]:
    """Rows (r_hat, rho_hat_model, rho_hat_tf, n_max) for density plots.

    Each shell count of ``_FIG1_SHELLS`` is sampled at ``_FIG1_POINTS``
    uniform points on (0, 18^{1/3}].
    """
    r_hat = np.linspace(0.0, TURNING_POINT, _FIG1_POINTS + 1)[1:]
    tf_vals = tf_limit_density(r_hat)
    rows = []
    for n_max in _FIG1_SHELLS:
        for r, m, t in zip(r_hat, scaled_model_density(n_max, r_hat), tf_vals):
            rows.append(
                {
                    "r_hat": float(r),
                    "rho_hat_model": float(m),
                    "rho_hat_tf": float(t),
                    "n_max": int(n_max),
                }
            )
    return rows


def figure_error_rows() -> list[dict]:
    """Rows (n_max, Z, rel_err_T0, rel_err_T2, rel_err_T4) of ``_FIG1A_SHELLS`` for error plots.

    Errors follow the underestimate-positive convention
    (reference - approximation)/reference, where the approximations are
    the cumulative sums T0, T0+T2, T0+T2+T4.  That is the opposite sign of
    ``tfshell table1`` (``correction.table1_row``), on purpose: the
    local-density energy of the ladder always underestimates, and its error
    curve is plotted positive.  The T0 column is always positive; the
    corrected sums overshoot small systems, so the T2 column goes positive
    from three shells and the T4 column only from eight.
    """
    rows = []
    for n_max, z, t_exact, t in model_energy_sequence(_FIG1A_SHELLS):
        rows.append(
            {
                "n_max": n_max,
                "Z": z,
                "rel_err_T0": (t_exact - t.t_tf) / t_exact,
                "rel_err_T2": (t_exact - (t.t_tf + t.t2)) / t_exact,
                "rel_err_T4": (t_exact - (t.t_tf + t.t2 + t.t4)) / t_exact,
            }
        )
    return rows
