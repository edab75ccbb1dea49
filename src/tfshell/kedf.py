"""Kinetic-energy functionals on radial densities, plus the quadrature engine.

``energies(rho)`` is the entry point.  It returns (T_TF, T_W, T_4),
each as 4 pi * integral of r^2 * tau dr in hartree, with

* T_TF: tau_0 = (3/10)(3 pi^2)^{2/3} rho^{5/3}
* T_W:  tau_W = (rho')^2 / (8 rho); the gradient correction is T_2 = T_W / 9
* T_4:  tau_4 built from rho', rho'' (see below)

A density is anything with the two methods of the ``Density`` protocol:
``profile(r)`` for (rho, rho', rho'') and ``total_charge()``.  Slater-type
atoms (``atomic_data.STODensity``) and the filled-shell
``hydrogenic.HydrogenicDensity`` both answer it.  Both also report their
slowest primitive (zeta, p), so that rho ~ r^{2p} e^{-2 zeta r} at large r,
and ``span_for(rho)`` turns that into the one radial span every command
integrates on: R = (70 + 6 p) / zeta.

``energies`` sizes its own grid over that span.  It tries 512, 1008 and
then 2000 points (``DEFAULT_GRID_POINTS`` // 4, // 2 and itself, rounded
to whole panels) and accepts the first grid on which all three Gauss
values agree with their Kronrod values (below) to 1e-14 relative, 20
times the largest estimate measured at roundoff level.  Every bundled
atom meets that at 512 points, within 4.8e-16 of its 2000-point values.
The 2000-point grid, ``grid_for(rho)``, is accepted whatever its
estimate, so a density that needs it gets exactly the values and errors
of ``profile_energies`` there.  The closed-shell ladder keeps one fixed
grid instead (see ``asymptotics.model_energy_sequence``).

All three integrands depend on the same (rho, rho', rho'').  ``energies``
evaluates that profile in one call on every node of each grid it tries
(the Gauss nodes and their Kronrod extension, below): the density check,
the three integrands, the target, every gate below and the charge check
all read that one evaluation.  A caller that already holds a profile on
a grid's nodes, as the closed-shell ladder does for every prefix of one
shell pass, calls ``profile_energies`` directly and passes the same
gates.

Both gradient integrands are built from the same ratios y = rho'/rho,
w = s/rho and q = r y^2, with s = 2 rho' + r rho'' (r times the spherical
Laplacian of rho):

    r^2 tau_W = r rho q / 8
    r^2 tau_4 = c4 rho^{1/3} [ w^2 - (9/8) w q + q^2/3 ]

The second is the textbook tau_4 with every explicit 1/r removed, so it
stays finite down to r = 0 for cusped densities.  No power of rho or rho'
is formed: (rho')^2 and rho^2 underflow below about 1e-154 and rho^3
below 1e-103, which would bias T_W low or turn T_4 into inf or NaN.  The
ratios are divided only where rho > 0.  A node where rho is
exactly 0 is vacuum: it holds no charge and adds nothing to any integral.

Quadrature: composite 16-point Gauss-Legendre panels on [0, r_max] in the
exponentially mapped coordinate r = r_max (e^{a t} - 1)/(e^a - 1),
t in [0, 1], which crowds nodes near the nucleus where the cusp lives.
The 16-point Gauss-Legendre rule is held as float literals.  What a grid
does not owe to its span (the exponential map at the panel abscissae and
the panel-scaled weights) is computed once per n_points.  A grid is
judged only by the values computed on it, by the gates below.

Error check: each panel also carries the 17 nodes of the 33-point
Gauss-Kronrod extension of its Gauss rule (Kronrod 1965; QUADPACK, Piessens
et al. 1983), which reuses the 16 Gauss nodes and integrates polynomials
exactly through degree 49.  A functional is evaluated once on the Gauss and
Kronrod nodes together; the reported value is the Gauss sum on the Gauss
nodes alone, and the Kronrod sum over all of them is its error estimate.
A value whose two sums disagree beyond 1e-8 relative raises
ConvergenceError; ``profile_energies`` applies that gate to each of its
three values separately, and the ConvergenceError names the functional
that failed.  A value that is not finite fails the same gate, and a
density that is NaN, or negative beyond 1e-12 of its largest value, on
a grid raises ValueError.  After
those gates, the Gauss sum of 4 pi r^2 rho from the same profile call must
match ``total_charge()`` to 1e-8 relative; a span too short to hold the
density raises ConvergenceError.  Last comes the tail gate: at the
outermost node of the same profile call each integrand f decays as
rho^c with c = 5/3, 1 and 1/3 for T_TF, T_W and T_4, so the integral
beyond the span is about f / (c |rho'/rho|) there.  A tail past 1e-8 of
its value raises ConvergenceError naming the functional; a density of
exactly 0 at that node has no tail.  The density check and the Kronrod
and tail gates are purely relative, with no floor under small values: a
density scaled by 1e-270 fails where the unscaled one does.  Each ConvergenceError ends
with the grid's point count and span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

import numpy as np

__all__ = [
    "DEFAULT_GRID_POINTS",
    "GridError",
    "ConvergenceError",
    "Density",
    "RadialGrid",
    "make_grid",
    "span_for",
    "grid_for",
    "energies",
    "profile_energies",
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

_PANEL_ORDER = 16
_CONVERGENCE_TOL = 1e-8
# energies accepts the first of _TRIAL_POINTS whose Gauss values all agree
# with their Kronrod values to this, else it takes the DEFAULT_GRID_POINTS
# grid; 20 times the largest estimate measured at roundoff level, 4.5e-16
# over the 17 bundled atoms and the 40 ladder points
_ACCURACY_TARGET = 1e-14
# make_grid rounds them to 512 and 1008 points
_TRIAL_POINTS = (DEFAULT_GRID_POINTS // 4, DEFAULT_GRID_POINTS // 2)
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
    """Grid parameters that describe no grid."""


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
def _panels(n_points: int) -> tuple[np.ndarray, ...]:
    """What every grid of ``n_points`` shares, whatever its span.

    e^{a t} at the Gauss and at the Kronrod abscissae of every panel, and
    the panel half-widths times the Gauss, the Kronrod-on-Gauss and the
    Kronrod weights.
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
    return panels


def make_grid(n_points: int, r_max: float) -> RadialGrid:
    """Construct a radial quadrature grid on [0, r_max].

    ``n_points`` is rounded up to a whole number of 16-point panels.  A bad
    ``n_points`` or a span that is not a finite radius > 0 raises
    ``GridError``.  Whether the grid resolves a density is judged on the
    values ``energies`` returns, not here.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 16:
        raise GridError(f"n_points must be an integer >= 16, got {n_points!r}")
    r_max = float(r_max)
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise GridError(f"invalid r_max {r_max!r}: need a finite radius > 0")

    e_gauss, e_kronrod, w_gauss, w_kronrod_gauss, w_kronrod = _panels(int(n_points))
    denom = math.expm1(_ALPHA)

    def mapped(e_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return r_max * (e_at - 1.0) / denom, r_max * _ALPHA * e_at / denom

    nodes, jac = mapped(e_gauss)
    kronrod_nodes, kronrod_jac = mapped(e_kronrod)
    kronrod_weights = np.concatenate((w_kronrod_gauss * jac, w_kronrod * kronrod_jac))
    return RadialGrid(r_max, nodes, w_gauss * jac, kronrod_nodes, kronrod_weights)


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
    # relative to the largest value alone, so a density scaled by 1e-20
    # fails where the unscaled one does
    floor = -1e-12 * float(values.max(initial=0.0))
    # written so that a NaN anywhere (which makes min, max and floor NaN) fails
    if not values.min(initial=0.0) >= floor:
        raise ValueError("density is negative or NaN on the evaluation grid")
    return np.clip(values, 0.0, None)


def _grid_text(grid: RadialGrid) -> str:
    """The grid as the ConvergenceError texts name it."""
    return f"({grid.nodes.size} points over {grid.r_max!r} bohr)"


def _check_refinement(
    grid: RadialGrid,
    names: tuple[str, ...],
    values: tuple[float, ...],
    kronrod_values: tuple[float, ...],
) -> None:
    """Raise ConvergenceError naming the first functional that fails the gate.

    ``kronrod_values`` are the Kronrod values of the Gauss ``values`` on
    ``grid``.  A value fails when it or its Kronrod value is not finite, or
    when the two differ beyond 1e-8 of the larger, however small both are.
    """
    for name, value, kronrod in zip(names, values, kronrod_values):
        if not (math.isfinite(value) and math.isfinite(kronrod)):
            bad = kronrod if math.isfinite(value) else value
            raise ConvergenceError(
                f"{name}: the result is {bad!r}, not a finite number {_grid_text(grid)}"
            )
        if abs(kronrod - value) > _CONVERGENCE_TOL * max(abs(kronrod), abs(value)):
            raise ConvergenceError(
                f"{name}: grid refinement moved the result from {value!r} to {kronrod!r} "
                f"{_grid_text(grid)}"
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


def _tf_integrand(r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """r^2 tau_0, without the 4 pi."""
    return r**2 * TF_CONSTANT * values ** (5.0 / 3.0)


def _gradient_integrands(
    r: np.ndarray, values: np.ndarray, deriv: np.ndarray, deriv2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r^2 tau_W and r^2 tau_4, without the 4 pi, and y = rho'/rho.

    Both come from the ratios y, w = (2 rho' + r rho'')/rho and q = r y^2,
    which are divided only where rho > 0 and are 0 in vacuum:
    r^2 tau_W = r rho q / 8 and r^2 tau_4 = c4 rho^{1/3} (w^2 - (9/8) w q + q^2/3).
    """
    live = values > 0.0
    y = np.divide(deriv, values, out=np.zeros_like(values), where=live)
    w = np.divide(2.0 * deriv + r * deriv2, values, out=np.zeros_like(values), where=live)
    q = r * y * y
    weizsacker = 0.125 * r * values * q
    bracket = w * w - 1.125 * w * q + q * q / 3.0
    fourth_order = FOURTH_ORDER_CONSTANT * values ** (1.0 / 3.0) * bracket
    return weizsacker, fourth_order, y


def _integrands(r: np.ndarray, rows: tuple) -> tuple[tuple[np.ndarray, ...], float]:
    """The charge, T_TF, T_W and T_4 integrands of the profile ``rows`` at radii ``r``.

    ``rows`` is (rho, rho', rho'') at ``r``.  Also returns the decay rate
    |rho'/rho| at the last radius, the outermost node of
    ``all_nodes()``, or 0 where the density there is 0.
    """
    values, deriv, deriv2 = (np.asarray(a, dtype=float) for a in rows)
    values = _checked_density(values)
    weizsacker, fourth_order, y = _gradient_integrands(r, values, deriv, deriv2)
    integrands = (r**2 * values, _tf_integrand(r, values), weizsacker, fourth_order)
    return integrands, abs(float(y[-1]))


def _check_tail(
    grid: RadialGrid, integrands: tuple[np.ndarray, ...], decay: float, values: tuple[float, ...]
) -> None:
    """Raise ConvergenceError naming the first functional the span cuts short.

    ``integrands`` are those of ``_FUNCTIONALS`` on ``grid.all_nodes()``
    and ``values`` their integrals.  The integral of each beyond the
    outermost node is estimated as f / (c |rho'/rho|) there, with c its
    ``_TAIL_POWERS`` entry; ``decay`` 0 means rho = 0 there, and no tail.
    A tail past 1e-8 of its value fails, however small both are; a value
    and tail both exactly 0 pass.
    """
    if decay == 0.0:
        return
    for name, f, power, value in zip(_FUNCTIONALS, integrands, _TAIL_POWERS, values):
        tail = 4.0 * math.pi * abs(float(f[-1])) / (power * decay)
        if tail > _CONVERGENCE_TOL * abs(value):
            share = tail / abs(value) if value else math.inf
            raise ConvergenceError(
                f"{name}: about {share:.1e} of the value lies beyond the radial span "
                f"{_grid_text(grid)}"
            )


def _gated_energies(
    grid: RadialGrid, rows: tuple, charge: float, target: float | None
) -> tuple[float, float, float] | None:
    """(T_TF, T_W, T_4) of the profile ``rows`` on ``grid`` through every gate.

    The density check and the integrands run once, and the Kronrod values
    come from that same evaluation.  With a ``target``, a grid whose three
    Gauss values differ from their Kronrod values beyond ``target`` of the
    larger (or are not finite) is not accepted: the gates are skipped and
    the result is None.  A density ValueError raises whatever the target.
    """
    integrands, decay = _integrands(grid.all_nodes(), rows)
    (held, *values), (_, *kronrod_values) = _rule_values(grid, integrands)
    if target is not None and not all(
        abs(kronrod - value) <= target * max(abs(kronrod), abs(value))
        for value, kronrod in zip(values, kronrod_values)
    ):
        return None
    _check_refinement(grid, _FUNCTIONALS, values, kronrod_values)
    if abs(held - charge) > _CONVERGENCE_TOL * abs(charge):
        raise ConvergenceError(
            f"the grid holds {held!r} of the density's {charge!r} electrons {_grid_text(grid)}"
        )
    _check_tail(grid, integrands[1:], decay, values)
    return tuple(values)


def profile_energies(grid: RadialGrid, rows: tuple, charge: float) -> tuple[float, float, float]:
    """(T_TF, T_W, T_4) of a density profile on ``grid`` (hartree), through every gate.

    ``rows`` is (rho, rho', rho'') on ``grid.all_nodes()`` and ``charge``
    the density's total charge.  The density check and the three
    integrands run on the rows once.  T_4 needs exact first and second
    derivatives; its integrand is the r-regular form of the module
    docstring, so no explicit 1/r appears.  Each functional must pass the
    Kronrod gate on its own; the ConvergenceError names the first that
    fails.  Then the grid's charge must match ``charge``, or
    ConvergenceError says that the span cuts the density off.  Last, the
    tail gate: a functional whose integrand beyond the span is estimated
    past 1e-8 of its value raises ConvergenceError naming it and the span.
    """
    return _gated_energies(grid, rows, charge, None)


def energies(rho: Density) -> tuple[float, float, float]:
    """(T_TF, T_W, T_4) of ``rho`` on the smallest grid that resolves it (hartree).

    Every grid spans ``span_for(rho)``.  512 and then 1008 points are tried,
    each with one ``rho.profile`` call on all of its nodes.  The first
    whose three Gauss values agree with their Kronrod values to 1e-14
    relative is accepted, and its values must pass every gate of
    ``profile_energies`` there (a density ValueError raises at once,
    whatever the size).  Failing both, the result is ``profile_energies``
    on ``grid_for(rho)``, bit for bit, values and errors alike.
    """
    span = span_for(rho)
    charge = rho.total_charge()
    for n_points in _TRIAL_POINTS:
        grid = make_grid(n_points, span)
        values = _gated_energies(grid, rho.profile(grid.all_nodes()), charge, _ACCURACY_TARGET)
        if values is not None:
            return values
    grid = grid_for(rho)
    return profile_energies(grid, rho.profile(grid.all_nodes()), charge)
