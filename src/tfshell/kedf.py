"""Kinetic-energy functionals on radial densities, plus the quadrature engine.

``energies(rho, grid)`` is the one entry point.  It returns (T_TF, T_W, T_4),
each as 4 pi * integral of r^2 * tau dr in hartree, with

* T_TF: tau_0 = (3/10)(3 pi^2)^{2/3} rho^{5/3}
* T_W:  tau_W = (rho')^2 / (8 rho); the gradient correction is T_2 = T_W / 9
* T_4:  tau_4 built from rho', rho'' (see below)

A density is anything with the two methods of the ``Density`` protocol:
``profile(r)`` for (rho, rho', rho'') and ``total_charge()``.  Slater-type
atoms (``atomic_data.STODensity``) and the filled-shell
``hydrogenic.HydrogenicDensity`` both answer it.  Both also report their
slowest primitive (zeta, p), so that rho ~ r^{2p} e^{-2 zeta r} at large r,
and ``grid_for(rho)`` turns that into the one radial span every command
integrates on: R = (70 + 6 p) / zeta at ``DEFAULT_GRID_POINTS``.

All three integrands depend on the same (rho, rho', rho'').  ``energies``
evaluates that profile in one call on every node of the grid (the Gauss
nodes and their Kronrod extension, below); the density checks, the vacuum
cutoff, the three integrands and the charge check all read that one
evaluation.

The fourth-order integrand is evaluated in the algebraically equivalent form

    r^2 tau_4 = c4 rho^{1/3} [ s^2/rho^2 - (9/8) r s (rho')^2/rho^3
                               + (1/3) r^2 (rho')^4/rho^4 ],   s = 2 rho' + r rho''

(s is r times the spherical Laplacian of rho), which removes every explicit
1/r and keeps the integrand finite down to r = 0 for cusped densities.  The
bracket is computed from the ratios y = rho'/rho, w = s/rho and q = r y^2
as w^2 - (9/8) w q + q^2/3, so no power of rho is formed: rho^3 and rho^2
underflow to zero below about 1e-103 and 1e-154, well above the 1e-280
cutoff, and would turn the integrand into inf or NaN there.

Quadrature: composite 16-point Gauss-Legendre panels on [0, r_max] in the
exponentially mapped coordinate r = r_max (e^{a t} - 1)/(e^a - 1),
t in [0, 1], which crowds nodes near the nucleus where the cusp lives.
Every constructed grid must pass the scheme self-test (the Gamma integral
of r^2 e^{-r} to 1e-10 relative); grids too coarse to pass are refused
rather than returned.  The 16-point Gauss-Legendre rule is held as float
literals.  What a grid does not owe to its span (the exponential map at
the panel abscissae, the panel-scaled weights, and the self-test value of
a short-span surrogate grid) is computed once per n_points; the
comparison against the 1e-10 gate runs on every construction.

Error check: each panel also carries the 17 nodes of the 33-point
Gauss-Kronrod extension of its Gauss rule (Kronrod 1965; QUADPACK, Piessens
et al. 1983), which reuses the 16 Gauss nodes and integrates polynomials
exactly through degree 49.  A functional is evaluated once on the Gauss and
Kronrod nodes together; the reported value is the Gauss sum on the Gauss
nodes alone, and the Kronrod sum over all of them is its error estimate.
The self-test covers both rules.  A value whose two sums disagree beyond
1e-8 relative raises ConvergenceError; ``energies`` applies that gate to
each of its three values separately, and the ConvergenceError names the
functional that failed.  A value that is not finite fails the same gate,
and a density that is negative or NaN on a grid raises ValueError.  After
those gates, the Gauss sum of 4 pi r^2 rho from the same profile call must
match ``total_charge()`` to 1e-8 relative; a span too short to hold the
density raises ConvergenceError.  Last comes the tail gate: at the
outermost node of the same profile call each integrand f decays as
rho^c with c = 5/3, 1 and 1/3 for T_TF, T_W and T_4, so the integral
beyond the span is about f / (c |rho'/rho|) there.  A tail past 1e-8 of
its value raises ConvergenceError naming the functional and the span; a
density at or below the vacuum cutoff at that node has no tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

import numpy as np

__all__ = [
    "DEFAULT_GRID_POINTS",
    "RHO_CUTOFF",
    "GridError",
    "ConvergenceError",
    "Density",
    "RadialGrid",
    "make_grid",
    "span_for",
    "grid_for",
    "energies",
]

TF_CONSTANT = 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0)
FOURTH_ORDER_CONSTANT = (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0

DEFAULT_GRID_POINTS = 2000
# span_for: at zeta R = 70 + 6 p the slowest integrand, r^2 tau_4 ~
# rho^{1/3}, has fallen by e^{-2 zeta R / 3} = e^{-46.7 - 4 p}; the 4 p
# covers the power r^{2p/3} it carries.  Against 8000 points on five times
# the span, every ladder point and bundled atom is within 6e-16 in all
# three functionals; 60 + 6 p leaves T_4 off by 5e-15, 50 + 6 p by 3e-12
_SPAN_DECAYS = 70.0
_SPAN_PER_POWER = 6.0
# sharpness a of the exponential map
_ALPHA = 12.0

# densities below this are treated as vacuum in the ratio-valued integrands
RHO_CUTOFF = 1e-280

_PANEL_ORDER = 16
_SELF_TEST_SPAN = 45.0
_SELF_TEST_TOL = 1e-10
_CONVERGENCE_TOL = 1e-8
# the functionals as the gates name them, and the power c of rho that
# each integrand decays as far out (f ~ rho^c)
_FUNCTIONALS = ("T_TF", "T_W", "T_4")
_TAIL_POWERS = (5.0 / 3.0, 1.0, 1.0 / 3.0)


class Density(Protocol):
    """What the functionals ask of a radial density.

    ``profile`` returns (rho, rho', rho'') at an array of radii and
    ``total_charge`` the integral of 4 pi r^2 rho.  ``slowest_primitive``
    is (zeta, p) of the orbital primitive r^p e^{-zeta r} that decays
    slowest, so rho ~ r^{2p} e^{-2 zeta r} at large r; only ``span_for``
    reads it.
    """

    slowest_primitive: tuple[float, int]

    def profile(self, r) -> tuple: ...

    def total_charge(self) -> float: ...


class GridError(ValueError):
    """Grid construction failed validation or its scheme self-test."""


class ConvergenceError(RuntimeError):
    """A functional value failed its quadrature error check."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes and weights for integrals over [0, r_max].

    ``r_max`` is the span.  ``nodes`` and ``weights`` are the composite
    16-point Gauss-Legendre rule.  ``kronrod_nodes`` are the 17 further nodes per panel of its
    33-point Kronrod extension, and ``kronrod_weights`` that rule's weights
    on ``nodes`` followed by ``kronrod_nodes`` (the order of
    ``all_nodes()``).
    """

    r_max: float
    nodes: np.ndarray
    weights: np.ndarray
    kronrod_nodes: np.ndarray
    kronrod_weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the integral of the sampled function."""
        return float(np.dot(self.weights, values))

    def all_nodes(self) -> np.ndarray:
        """The Gauss nodes followed by the Kronrod nodes."""
        return np.concatenate((self.nodes, self.kronrod_nodes))


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
# The 33-point Kronrod extension of that rule: the 17 nodes it adds (the
# zeros of the Stieltjes polynomial E_17) and its weights on the Gauss and
# on the Kronrod nodes, as round-trip float literals of the rule computed in
# exact and 80-digit arithmetic; a test rebuilds them in mpmath.
_KRONROD_NODES = np.array(
    [
        -0.9982392741454446,
        -0.9715059509693926,
        -0.9091576670123429,
        -0.8142402870624444,
        -0.6897411066817623,
        -0.5404076763521397,
        -0.37148378087841627,
        -0.18916857901808373,
        0.0,
        0.18916857901808373,
        0.37148378087841627,
        0.5404076763521397,
        0.6897411066817623,
        0.8142402870624444,
        0.9091576670123429,
        0.9715059509693926,
        0.9982392741454446,
    ]
)
_KRONROD_GAUSS_WEIGHTS = np.array(
    [
        0.013257930688091158,
        0.031260543647380526,
        0.047506215976407015,
        0.062358806011834855,
        0.07476982388559955,
        0.08459580379259064,
        0.09129203282819166,
        0.09472840124723005,
        0.09472840124723005,
        0.09129203282819166,
        0.08459580379259064,
        0.07476982388559955,
        0.062358806011834855,
        0.047506215976407015,
        0.031260543647380526,
        0.013257930688091158,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.004742777049247318,
        0.022498859440049444,
        0.039512951202421966,
        0.055205633095422174,
        0.06886299519153125,
        0.08005394126371929,
        0.08833750257911273,
        0.09343867406092123,
        0.0951542160804983,
        0.09343867406092123,
        0.08833750257911273,
        0.08005394126371929,
        0.06886299519153125,
        0.055205633095422174,
        0.039512951202421966,
        0.022498859440049444,
        0.004742777049247318,
    ]
)
for _rule in (_GL_NODES, _GL_WEIGHTS, _KRONROD_NODES, _KRONROD_GAUSS_WEIGHTS, _KRONROD_WEIGHTS):
    _rule.setflags(write=False)
del _rule


@lru_cache(maxsize=256)
def _resolution(n_points: int) -> tuple[tuple[np.ndarray, ...], tuple[float, float]]:
    """What every grid of ``n_points`` shares, whatever its span.

    The panels: e^{a t} at the Gauss and at the Kronrod abscissae of every
    panel, and the panel half-widths times the Gauss, the Kronrod-on-Gauss
    and the Kronrod weights.  The probes: the self-test values of the
    same-resolution grid on [0, 45], which short-span grids stand on.
    """
    n_panels = -(-n_points // _PANEL_ORDER)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])

    def exp_at(x: np.ndarray) -> np.ndarray:
        return np.exp(_ALPHA * (mid[:, None] + half[:, None] * x[None, :]).ravel())

    def scaled(w: np.ndarray) -> np.ndarray:
        return (half[:, None] * w[None, :]).ravel()

    panels = (
        exp_at(_GL_NODES),
        exp_at(_KRONROD_NODES),
        scaled(_GL_WEIGHTS),
        scaled(_KRONROD_GAUSS_WEIGHTS),
        scaled(_KRONROD_WEIGHTS),
    )
    for part in panels:
        part.setflags(write=False)
    return panels, _self_test_probes(*_map_panels(panels, _SELF_TEST_SPAN))


def _map_panels(panels: tuple[np.ndarray, ...], r_max: float):
    """(nodes, weights, kronrod_nodes, kronrod_weights) of ``panels`` mapped onto [0, r_max]."""
    e_gauss, e_kronrod, w_gauss, w_kronrod_gauss, w_kronrod = panels
    denom = math.expm1(_ALPHA)

    def mapped(e_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return r_max * (e_at - 1.0) / denom, r_max * _ALPHA * e_at / denom

    nodes, jac = mapped(e_gauss)
    kronrod_nodes, kronrod_jac = mapped(e_kronrod)
    kronrod_weights = np.concatenate((w_kronrod_gauss * jac, w_kronrod * kronrod_jac))
    return nodes, w_gauss * jac, kronrod_nodes, kronrod_weights


def _self_test_probes(nodes, weights, kronrod_nodes, kronrod_weights) -> tuple[float, float]:
    """Both rules' values for the Gamma(3) integral of r^2 e^{-r}, exactly 2."""
    r = np.concatenate((nodes, kronrod_nodes))
    f = r**2 * np.exp(-r)
    return float(np.dot(weights, f[: nodes.size])), float(np.dot(kronrod_weights, f))


def make_grid(n_points: int, r_max: float) -> RadialGrid:
    """Construct a radial quadrature grid on [0, r_max] and verify its scheme self-test.

    ``n_points`` is rounded up to a whole number of 16-point panels.  The
    returned grid's Gauss rule and its Kronrod extension both integrate
    r^2 e^{-r} over the half-line to within 1e-10 relative of the exact
    value 2; construction fails with ``GridError`` when the requested
    resolution cannot deliver that.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 16:
        raise GridError(f"n_points must be an integer >= 16, got {n_points!r}")
    r_max = float(r_max)
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise GridError(f"invalid r_max {r_max!r}: need a finite radius > 0")

    panels, surrogate = _resolution(int(n_points))
    rule = _map_panels(panels, r_max)
    grid = RadialGrid(r_max, *rule)

    # Scheme self-test of both rules on a span long enough that truncation
    # of the test integrand is negligible; short-span grids are validated
    # through a same-resolution surrogate, whose values are computed once.
    probes = _self_test_probes(*rule) if r_max >= _SELF_TEST_SPAN else surrogate
    for probe in probes:
        if abs(probe - 2.0) > 2.0 * _SELF_TEST_TOL:
            raise GridError(
                f"scheme self-test failed at {n_points} points "
                f"(got {probe!r} for the Gamma(3) integral); increase n_points"
            )
    return grid


def span_for(rho: Density) -> float:
    """The radial span (70 + 6 p) / zeta of ``rho``'s slowest primitive (zeta, p)."""
    zeta, p = rho.slowest_primitive
    return (_SPAN_DECAYS + _SPAN_PER_POWER * p) / zeta


def grid_for(rho: Density) -> RadialGrid:
    """The grid every command integrates ``rho`` on.

    ``DEFAULT_GRID_POINTS`` points over ``span_for(rho)``.
    """
    return make_grid(DEFAULT_GRID_POINTS, span_for(rho))


def _checked_density(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    floor = -1e-12 * max(float(values.max(initial=0.0)), 1.0)
    # written so that a NaN anywhere (which makes min, max and floor NaN) fails
    if not values.min(initial=0.0) >= floor:
        raise ValueError("density is negative or NaN on the evaluation grid")
    return np.clip(values, 0.0, None)


def _check_refinement(
    names: tuple[str, ...], values: tuple[float, ...], kronrod_values: tuple[float, ...]
) -> None:
    """Raise ConvergenceError naming the first functional that fails the gate.

    ``kronrod_values`` are the Kronrod values of the Gauss ``values``.  A
    value fails when it or its Kronrod value is not finite, or when the
    two differ beyond 1e-8 relative.
    """
    for name, value, kronrod in zip(names, values, kronrod_values):
        if not (math.isfinite(value) and math.isfinite(kronrod)):
            bad = kronrod if math.isfinite(value) else value
            raise ConvergenceError(
                f"{name}: the result is {bad!r}, not a finite number; "
                "shrink the radial span or improve the density"
            )
        scale = max(abs(kronrod), abs(value), 1e-30)
        if abs(kronrod - value) > _CONVERGENCE_TOL * scale:
            raise ConvergenceError(
                f"{name}: grid refinement moved the result from {value!r} to {kronrod!r}; "
                "increase grid points or the radial span"
            )


def _rule_values(
    grid: RadialGrid, integrands: tuple[np.ndarray, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """4 pi times the (Gauss, Kronrod) integrals of integrands on ``grid.all_nodes()``."""
    n = grid.nodes.size
    return (
        tuple(4.0 * math.pi * grid.integrate(f[:n]) for f in integrands),
        tuple(4.0 * math.pi * float(np.dot(grid.kronrod_weights, f)) for f in integrands),
    )


def _cutoff_mask(rho: Density, grid: RadialGrid, r: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Nodes of ``r = grid.all_nodes()`` where the ratio-valued integrands are evaluated.

    ``raw`` is the density on ``r`` as ``rho.profile`` returned it, before
    clipping.  Raises ConvergenceError when the density treated as vacuum
    carries a non-negligible share of the charge.
    """
    mask = raw > RHO_CUTOFF
    if mask.all():
        return mask
    vacuum = np.zeros_like(raw)
    vacuum[~mask] = r[~mask] ** 2 * raw[~mask]
    skipped = 4.0 * math.pi * float(np.dot(grid.kronrod_weights, vacuum))
    total = abs(rho.total_charge())
    if total > 0 and abs(skipped) > 1e-10 * total:
        raise ConvergenceError(
            f"density below the {RHO_CUTOFF:g} cutoff carries {skipped:g} electrons "
            "of the integration region; shrink r_max or improve the density"
        )
    return mask


# One integrand per functional, without the 4 pi, on the nodes r.


def _tf_integrand(r: np.ndarray, values: np.ndarray) -> np.ndarray:
    return r**2 * TF_CONSTANT * values ** (5.0 / 3.0)


def _weizsacker_integrand(
    r: np.ndarray, values: np.ndarray, deriv: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    integrand = np.zeros_like(values)
    np.divide(deriv * deriv, 8.0 * values, out=integrand, where=mask)
    return r**2 * integrand


def _fourth_order_integrand(
    r: np.ndarray,
    values: np.ndarray,
    deriv: np.ndarray,
    deriv2: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    integrand = np.zeros_like(values)
    safe = np.where(mask, values, 1.0)
    y = deriv / safe
    w = (2.0 * deriv + r * deriv2) / safe
    q = r * y * y
    bracket = w * w - 1.125 * w * q + q * q / 3.0
    np.multiply(FOURTH_ORDER_CONSTANT * safe ** (1.0 / 3.0), bracket, out=integrand, where=mask)
    return integrand


def _profile_integrands(rho: Density, grid: RadialGrid) -> tuple[tuple[np.ndarray, ...], float]:
    """The charge, T_TF, T_W and T_4 integrands from one profile call on ``grid.all_nodes()``.

    Also returns the decay rate |rho'/rho| at the outermost node, the last
    of ``all_nodes()``, or 0 where the density there is vacuum.
    """
    r = grid.all_nodes()
    raw, deriv, deriv2 = (np.asarray(a, dtype=float) for a in rho.profile(r))
    values = _checked_density(raw)
    mask = _cutoff_mask(rho, grid, r, raw)
    integrands = (
        r**2 * values,
        _tf_integrand(r, values),
        _weizsacker_integrand(r, values, deriv, mask),
        _fourth_order_integrand(r, values, deriv, deriv2, mask),
    )
    decay = abs(float(deriv[-1] / raw[-1])) if mask[-1] else 0.0
    return integrands, decay


def _check_tail(
    grid: RadialGrid, integrands: tuple[np.ndarray, ...], decay: float, values: tuple[float, ...]
) -> None:
    """Raise ConvergenceError naming the first functional the span cuts short.

    ``integrands`` are those of ``_FUNCTIONALS`` on ``grid.all_nodes()``
    and ``values`` their integrals.  The integral of each beyond the
    outermost node is estimated as f / (c |rho'/rho|) there, with c its
    ``_TAIL_POWERS`` entry; ``decay`` 0 means vacuum there, and no tail.
    """
    if decay == 0.0:
        return
    for name, f, power, value in zip(_FUNCTIONALS, integrands, _TAIL_POWERS, values):
        share = 4.0 * math.pi * abs(float(f[-1])) / (power * decay) / max(abs(value), 1e-30)
        if share > _CONVERGENCE_TOL:
            raise ConvergenceError(
                f"{name}: about {share:.1e} of the value lies beyond the radial span "
                f"{grid.r_max!r}; increase the radial span"
            )


def energies(rho: Density, grid: RadialGrid) -> tuple[float, float, float]:
    """(T_TF, T_W, T_4) of a radial density from one profile call (hartree).

    The Gauss and Kronrod nodes go to ``rho.profile`` in one array, and the
    density checks, the vacuum cutoff and the three integrands run on it
    once.  T_4 needs exact first and second derivatives from the profile;
    its integrand is the r-regular form of the module docstring, so no
    explicit 1/r appears.  Each functional must pass the Kronrod gate on
    its own; the ConvergenceError names the first that fails.  Then the
    grid's charge must match ``rho.total_charge()``, or ConvergenceError
    says that the span cuts the density off.  Last, the tail gate: a
    functional whose integrand beyond the span is estimated past 1e-8 of
    its value raises ConvergenceError naming it and the span.
    """
    integrands, decay = _profile_integrands(rho, grid)
    (charge, *values), (_, *kronrod_values) = _rule_values(grid, integrands)
    _check_refinement(_FUNCTIONALS, values, kronrod_values)
    total = rho.total_charge()
    if abs(charge - total) > _CONVERGENCE_TOL * abs(total):
        raise ConvergenceError(
            f"the grid holds {charge!r} of the density's {total!r} electrons; increase r_max"
        )
    _check_tail(grid, integrands[1:], decay, values)
    return tuple(values)
