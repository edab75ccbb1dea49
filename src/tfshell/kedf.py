"""Kinetic-energy functionals on radial densities, plus the quadrature engine.

Functionals (all as 4 pi * integral of r^2 * tau dr, hartree):

* ``tf_energy``       tau_0 = (3/10)(3 pi^2)^{2/3} rho^{5/3}
* ``weizsacker_energy``  tau_W = (rho')^2 / (8 rho); returns (T_W, T_W/9)
* ``fourth_order_energy``  tau_4 built from rho', rho'' (see below)
* ``energies``        all three, (T_TF, T_W, T_4), from one shared pass

A density is anything with the three methods of the ``Density`` protocol:
``profile(r)`` for (rho, rho', rho''), ``value(r)`` for rho alone and
``total_charge()``.  Slater-type atoms (``atomic_data.STODensity``) and
the filled-shell ``hydrogenic.HydrogenicDensity`` both answer it.

All three integrands depend on the same (rho, rho', rho'').  ``energies``
evaluates that profile in one call on the nodes of the grid and of its
refinement together, then integrates every functional from each grid's
slice, so it costs one density evaluation where the three
single-functional calls cost one per functional and grid.
Each integrand is written once and shared by both paths, so the values are
identical bit for bit.

The fourth-order integrand is evaluated in the algebraically equivalent form

    r^2 tau_4 = c4 rho^{1/3} [ s^2/rho^2 - (9/8) r s (rho')^2/rho^3
                               + (1/3) r^2 (rho')^4/rho^4 ],   s = 2 rho' + r rho''

(s is r times the spherical Laplacian of rho), which removes every explicit
1/r and keeps the integrand finite down to r = 0 for cusped densities.  The
bracket is computed from the ratios y = rho'/rho, w = s/rho and q = r y^2
as w^2 - (9/8) w q + q^2/3, so no power of rho is formed: rho^3 and rho^2
underflow to zero below about 1e-103 and 1e-154, well above the 1e-280
cutoff, and would turn the integrand into inf or NaN there.

Quadrature: composite 16-point Gauss-Legendre panels on the exponentially
mapped coordinate r = r_min + (r_max - r_min)(e^{a t} - 1)/(e^a - 1),
t in [0, 1], which crowds nodes near the nucleus where the cusp lives.
Every constructed grid must pass the scheme self-test (the Gamma integral
of r^2 e^{-r} to 1e-10 relative); grids too coarse to pass are refused
rather than returned.  The 16-point Gauss-Legendre rule is held as float
literals, and the self-test value of a short-span surrogate grid is
computed once per n_points; the comparison against the 1e-10 gate
runs on every construction.  Every functional value is checked against
a doubled grid (built once per grid and cached) and signals
non-convergence when the two results disagree beyond 1e-8 relative;
``energies`` applies that gate to each of its three values separately, and
the ConvergenceError names the functional that failed.  A value that is
not finite fails the same gate, and a density that is negative or NaN on a
grid raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "DEFAULT_GRID_POINTS",
    "DEFAULT_R_MAX",
    "RHO_CUTOFF",
    "GridError",
    "ConvergenceError",
    "Density",
    "RadialGrid",
    "EnergyBreakdown",
    "make_grid",
    "tf_energy",
    "weizsacker_energy",
    "fourth_order_energy",
    "energies",
]

TF_CONSTANT = 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0)
FOURTH_ORDER_CONSTANT = (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0

DEFAULT_GRID_POINTS = 2000
DEFAULT_R_MAX = 45.0
# sharpness a of the exponential map
_ALPHA = 12.0

# densities below this are treated as vacuum in the ratio-valued integrands
RHO_CUTOFF = 1e-280

_PANEL_ORDER = 16
_SELF_TEST_SPAN = 45.0
_SELF_TEST_TOL = 1e-10
_CONVERGENCE_TOL = 1e-8


class Density(Protocol):
    """What the functionals ask of a radial density.

    ``profile`` returns (rho, rho', rho'') at an array of radii, ``value``
    rho alone, and ``total_charge`` the integral of 4 pi r^2 rho.
    """

    def profile(self, r) -> tuple: ...

    def value(self, r): ...

    def total_charge(self) -> float: ...


class GridError(ValueError):
    """Grid construction failed validation or its scheme self-test."""


class ConvergenceError(RuntimeError):
    """A functional value did not stabilize under grid refinement."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes and weights for integrals over [r_min, r_max]."""

    nodes: np.ndarray
    weights: np.ndarray
    n_points: int
    r_min: float
    r_max: float
    _refined: "RadialGrid | None" = field(default=None, init=False, repr=False)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the integral of the sampled function."""
        return float(np.dot(self.weights, values))

    def refined(self) -> "RadialGrid":
        """The same span at twice the resolution.

        Built and self-tested once per grid; later calls return the same
        grid object.
        """
        if self._refined is None:
            grid = make_grid(2 * self.n_points, (self.r_min, self.r_max))
            object.__setattr__(self, "_refined", grid)
        return self._refined


# The 16-point Gauss-Legendre rule on [-1, 1] as round-trip float literals,
# equal bit for bit to numpy.polynomial.legendre.leggauss(16), which a test
# checks; holding them here keeps numpy.polynomial out of every run.
_GL_NODES = np.array(
    [
        -0.9894009349916499,
        -0.9445750230732326,
        -0.8656312023878318,
        -0.755404408355003,
        -0.6178762444026438,
        -0.45801677765722737,
        -0.2816035507792589,
        -0.09501250983763744,
        0.09501250983763744,
        0.2816035507792589,
        0.45801677765722737,
        0.6178762444026438,
        0.755404408355003,
        0.8656312023878318,
        0.9445750230732326,
        0.9894009349916499,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.027152459411754176,
        0.062253523938647456,
        0.0951585116824926,
        0.12462897125553407,
        0.1495959888165767,
        0.16915651939500265,
        0.18260341504492364,
        0.18945061045506864,
        0.18945061045506864,
        0.18260341504492364,
        0.16915651939500265,
        0.1495959888165767,
        0.12462897125553407,
        0.0951585116824926,
        0.062253523938647456,
        0.027152459411754176,
    ]
)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)


def _build_expmap(n_points: int, r_min: float, r_max: float):
    n_panels = -(-n_points // _PANEL_ORDER)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wt = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    span = r_max - r_min
    denom = math.expm1(_ALPHA)
    e_at = np.exp(_ALPHA * t)
    nodes = r_min + span * (e_at - 1.0) / denom
    jac = span * _ALPHA * e_at / denom
    return nodes, wt * jac


def _self_test_probe(nodes: np.ndarray, weights: np.ndarray) -> float:
    """The rule's value for the Gamma(3) integral of r^2 e^{-r}, exactly 2."""
    return float(np.dot(weights, nodes**2 * np.exp(-nodes)))


@lru_cache(maxsize=256)
def _surrogate_probe(n_points: int) -> float:
    """Self-test value of the same-resolution grid on [0, 45]."""
    return _self_test_probe(*_build_expmap(n_points, 0.0, _SELF_TEST_SPAN))


def make_grid(
    n_points: int = DEFAULT_GRID_POINTS, r_span: tuple[float, float] = (0.0, DEFAULT_R_MAX)
) -> RadialGrid:
    """Construct a radial quadrature grid and verify its scheme self-test.

    ``n_points`` is rounded up to a whole number of 16-point panels.  The
    returned grid integrates r^2 e^{-r} over the half-line to within 1e-10
    relative of the exact value 2; construction fails with ``GridError``
    when the requested resolution cannot deliver that.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 16:
        raise GridError(f"n_points must be an integer >= 16, got {n_points!r}")
    r_min, r_max = (float(r_span[0]), float(r_span[1]))
    if not (math.isfinite(r_min) and math.isfinite(r_max)) or r_min < 0 or r_max <= r_min:
        raise GridError(f"invalid span {r_span!r}: need 0 <= r_min < r_max")

    nodes, weights = _build_expmap(int(n_points), r_min, r_max)
    grid = RadialGrid(nodes, weights, int(n_points), r_min, r_max)

    # Scheme self-test on a span long enough that truncation of the test
    # integrand is negligible; short-span grids are validated through a
    # same-resolution surrogate, whose value is computed once.
    if r_min == 0.0 and r_max >= _SELF_TEST_SPAN:
        probe = _self_test_probe(nodes, weights)
    else:
        probe = _surrogate_probe(int(n_points))
    if abs(probe - 2.0) > 2.0 * _SELF_TEST_TOL:
        raise GridError(
            f"scheme self-test failed at {n_points} points "
            f"(got {probe!r} for the Gamma(3) integral); increase n_points"
        )
    return grid


def _checked_density(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    floor = -1e-12 * max(float(values.max(initial=0.0)), 1.0)
    # written so that a NaN anywhere (which makes min, max and floor NaN) fails
    if not values.min(initial=0.0) >= floor:
        raise ValueError("density is negative or NaN on the evaluation grid")
    return np.clip(values, 0.0, None)


def _check_refinement(
    names: tuple[str, ...], values: tuple[float, ...], refined_values: tuple[float, ...]
) -> None:
    """Raise ConvergenceError naming the first functional that fails the gate.

    A value fails when it or its refined value is not finite, or when the
    refined value moved beyond 1e-8 relative.
    """
    for name, value, refined in zip(names, values, refined_values):
        if not (math.isfinite(value) and math.isfinite(refined)):
            bad = refined if math.isfinite(value) else value
            raise ConvergenceError(
                f"{name}: the result is {bad!r}, not a finite number; "
                "shrink the radial span or improve the density"
            )
        scale = max(abs(refined), abs(value), 1e-30)
        if abs(refined - value) > _CONVERGENCE_TOL * scale:
            raise ConvergenceError(
                f"{name}: grid refinement moved the result from {value!r} to {refined!r}; "
                "increase grid points or the radial span"
            )


def _converged(
    names: tuple[str, ...],
    evaluate: Callable[[RadialGrid], tuple[float, ...]],
    grid: RadialGrid,
) -> tuple[float, ...]:
    values = evaluate(grid)
    _check_refinement(names, values, evaluate(grid.refined()))
    return values


def _cutoff_mask(rho: Density, grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Nodes where the ratio-valued integrands are evaluated.

    Raises ConvergenceError when the density treated as vacuum carries a
    non-negligible share of the charge.
    """
    mask = values > RHO_CUTOFF
    if mask.all():
        return mask
    skipped = 4.0 * math.pi * float(
        np.dot(grid.weights[~mask], grid.nodes[~mask] ** 2 * rho.value(grid.nodes[~mask]))
    )
    total = abs(rho.total_charge())
    if total > 0 and abs(skipped) > 1e-10 * total:
        raise ConvergenceError(
            f"density below the {RHO_CUTOFF:g} cutoff carries {skipped:g} electrons "
            "of the integration region; shrink r_max or improve the density"
        )
    return mask


# One integral per functional; the single-functional entry points and the
# shared pass in ``energies`` both go through these.


def _tf_integral(grid: RadialGrid, values: np.ndarray) -> float:
    return 4.0 * math.pi * grid.integrate(grid.nodes**2 * TF_CONSTANT * values ** (5.0 / 3.0))


def _weizsacker_integral(
    grid: RadialGrid, values: np.ndarray, deriv: np.ndarray, mask: np.ndarray
) -> float:
    integrand = np.zeros_like(values)
    np.divide(deriv * deriv, 8.0 * values, out=integrand, where=mask)
    return 4.0 * math.pi * grid.integrate(grid.nodes**2 * integrand)


def _fourth_order_integral(
    grid: RadialGrid,
    values: np.ndarray,
    deriv: np.ndarray,
    deriv2: np.ndarray,
    mask: np.ndarray,
) -> float:
    r = grid.nodes
    integrand = np.zeros_like(values)
    safe = np.where(mask, values, 1.0)
    y = deriv / safe
    w = (2.0 * deriv + r * deriv2) / safe
    q = r * y * y
    bracket = w * w - 1.125 * w * q + q * q / 3.0
    np.multiply(FOURTH_ORDER_CONSTANT * safe ** (1.0 / 3.0), bracket, out=integrand, where=mask)
    return 4.0 * math.pi * grid.integrate(integrand)


def tf_energy(rho: Density, grid: RadialGrid) -> float:
    """Thomas-Fermi kinetic energy of a radial density (hartree)."""

    def evaluate(g: RadialGrid) -> tuple[float]:
        return (_tf_integral(g, _checked_density(rho.value(g.nodes))),)

    return _converged(("T_TF",), evaluate, grid)[0]


def weizsacker_energy(rho: Density, grid: RadialGrid) -> tuple[float, float]:
    """Weizsacker energy T_W and the gradient correction T_2 = T_W / 9."""

    def evaluate(g: RadialGrid) -> tuple[float]:
        values, deriv, _ = (np.asarray(a, dtype=float) for a in rho.profile(g.nodes))
        values = _checked_density(values)
        return (_weizsacker_integral(g, values, deriv, _cutoff_mask(rho, g, values)),)

    (t_w,) = _converged(("T_W",), evaluate, grid)
    return t_w, t_w / 9.0


def fourth_order_energy(rho: Density, grid: RadialGrid) -> float:
    """Fourth-order gradient correction T_4 (hartree).

    Requires exact first and second derivatives from ``rho.profile``; the
    integrand is assembled in the r-regular form described in the module
    docstring, so no explicit 1/r appears and the r -> 0 limit is finite.
    """

    def evaluate(g: RadialGrid) -> tuple[float]:
        values, deriv, deriv2 = (np.asarray(a, dtype=float) for a in rho.profile(g.nodes))
        values = _checked_density(values)
        mask = _cutoff_mask(rho, g, values)
        return (_fourth_order_integral(g, values, deriv, deriv2, mask),)

    return _converged(("T_4",), evaluate, grid)[0]


def energies(rho: Density, grid: RadialGrid) -> tuple[float, float, float]:
    """(T_TF, T_W, T_4) from one density profile call (hartree).

    The same values, bit for bit, as ``tf_energy``, ``weizsacker_energy``
    and ``fourth_order_energy`` called one by one, which evaluate the
    density separately for each functional.  The nodes of the grid and of
    its refinement go to ``rho.profile`` in one array, and the density
    checks, the vacuum cutoff and the integrals then run on each grid's own
    slice.  Each functional must pass the refinement gate on its own; the
    ConvergenceError names the first that fails.
    """

    grids = (grid, grid.refined())
    nodes = np.concatenate([g.nodes for g in grids])
    profile = [np.asarray(a, dtype=float) for a in rho.profile(nodes)]
    results = []
    start = 0
    for g in grids:
        values, deriv, deriv2 = (a[start:start + g.nodes.size] for a in profile)
        start += g.nodes.size
        values = _checked_density(values)
        mask = _cutoff_mask(rho, g, values)
        results.append(
            (
                _tf_integral(g, values),
                _weizsacker_integral(g, values, deriv, mask),
                _fourth_order_integral(g, values, deriv, deriv2, mask),
            )
        )
    _check_refinement(("T_TF", "T_W", "T_4"), results[0], results[1])
    return results[0]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Functional values and signed relative errors for one system.

    Errors follow (approximation - reference)/reference, so a functional
    that underestimates the reference kinetic energy reports a negative
    error.  ``err_second``/``err_fourth`` grade the cumulative gradient
    sums T_TF + T_2 and T_TF + T_2 + T_4.
    """

    t_tf: float
    t2: float
    t4: float
    delta_t: float
    corrected: float
    reference: float
    err_tf: float
    err_second: float
    err_fourth: float
    err_corrected: float

    @classmethod
    def from_components(
        cls, t_tf: float, t2: float, t4: float, delta_t: float, reference: float
    ) -> "EnergyBreakdown":
        if not reference > 0:
            raise ValueError(f"reference kinetic energy must be positive, got {reference!r}")

        def rel(approx: float) -> float:
            return (approx - reference) / reference

        corrected = t_tf + delta_t
        return cls(
            t_tf=t_tf,
            t2=t2,
            t4=t4,
            delta_t=delta_t,
            corrected=corrected,
            reference=reference,
            err_tf=rel(t_tf),
            err_second=rel(t_tf + t2),
            err_fourth=rel(t_tf + t2 + t4),
            err_corrected=rel(corrected),
        )
