"""Kinetic-energy functionals on radial densities, plus the quadrature engine.

``energies(rho)`` is the entry point.  It returns ``Energies``: T_TF, T_W
and T_4, each 4 pi * integral of r^2 tau dr in hartree with the tau of the
table below, and the gradient correction T_2 = T_W / 9 as ``Energies.t2``.

A density is anything with the two methods of the ``Density`` protocol:
``profile(r)`` for (rho, rho', rho'') and ``total_charge()``.  Slater-type
atoms (``atomic_data.STODensity``) and the filled-shell
``hydrogenic.HydrogenicDensity`` both answer it.  Both also report their
slowest primitive (zeta, p), so that rho ~ r^{2p} e^{-2 zeta r} at large r,
and ``span_for(rho)`` turns that into the one radial span every command
integrates on: R = (70 + 6 p) / zeta.

``energies`` sizes its own grid over that span.  It measures 512 points
(``DEFAULT_GRID_POINTS`` // 2, rounded to whole panels) and gates them
when every value's error estimate |G - K| (below) is within 1e-14 of it,
about 20 times the largest estimate measured at roundoff level; every
bundled atom is, within 4.2e-16 of its 1008-point values.  Otherwise it
takes the 1008-point grid, ``grid_for(rho)``, whatever its estimate, so
a density that needs it gets exactly the values and errors of
``profile_energies`` there.  The closed-shell ladder keeps one fixed grid
instead (see ``asymptotics.model_energy_sequence``).

``_FUNCTIONALS`` is the one table of functionals, in ``Energies`` order.
A row holds the name the gates print, the power c of rho that the
integrand decays as far out (f ~ rho^c) and the integrand r^2 tau without
the 4 pi, from r, rho and the ratios w = s/rho and q = r y^2 that
``_ratios`` forms once per profile (y = rho'/rho; s = 2 rho' + r rho'' is
r times the spherical Laplacian of rho):

    r^2 tau_0 = (3/10) (3 pi^2)^{2/3} r^2 rho^{5/3}     (c = 5/3)
    r^2 tau_W = r rho q / 8 = r^2 (rho')^2 / (8 rho)      (c = 1)
    r^2 tau_4 = c4 rho^{1/3} [ w^2 - (9/8) w q + q^2/3 ]  (c = 1/3)

The last is the textbook tau_4 with every explicit 1/r removed, so it is
finite at r = 0 for cusped densities.  Past rho^{5/3} and rho^{1/3}, no
power of rho or rho' is formed: (rho')^2 and rho^2 underflow below about
1e-154 and rho^3 below 1e-103, which would bias T_W low or turn T_4 into
inf or NaN.  A node where rho is 0 is vacuum and adds nothing to any sum.

``energies`` evaluates (rho, rho', rho'') in one call on the nodes of
each grid it measures; every integrand, check and gate reads that one
evaluation.  A caller that already holds a profile on a grid's nodes, as
the closed-shell ladder does for every prefix of one shell pass, calls
``profile_energies`` directly and passes the same gates.

Quadrature: composite 33-point Gauss-Kronrod panels (Kronrod 1965;
QUADPACK, Piessens et al. 1983) on [0, r_max] in the exponentially mapped
coordinate r = r_max (e^{a t} - 1)/(e^a - 1), t in [0, 1], which crowds
nodes near the nucleus where the cusp lives.  Each panel holds the 16
Gauss-Legendre nodes and the 17 nodes of their Kronrod extension, which
integrates polynomials exactly through degree 49; each rule is stored
once, in QUADPACK's half-rule layout, and mirrored at import.  A grid of n
points has n Gauss nodes, so 33 n / 16 nodes in all.  What a grid does not
owe to its span (the exponential map at the panel abscissae and the
panel-scaled weights) is computed once per n_points.  A grid is judged
only by the values computed on it, by the gates below.

Error check: a functional is evaluated once on all the nodes; the reported
value is the Kronrod sum over them, as QUADPACK reports it, and the Gauss
sum on the Gauss nodes alone is the partner of its error estimate |G - K|,
which ``_settled`` alone holds to a tolerance.  On the 40-shell ladder
grid the Kronrod sums at 1008 points are within 1.4e-15 of an 8000-point
reference, where the Gauss sums are up to 3.2e-12 off.

``_measure`` reads one profile call on a grid into one record; a density
that is NaN, or negative beyond 1e-12 of its largest value, raises
ValueError there.  ``_gated`` then raises ConvergenceError at the first
gate the record fails, in this order:

1. per functional, T_TF, T_W, then T_4: a value or Gauss sum that is not
   finite, then an estimate beyond 1e-8 of the larger sum;
2. the charge: the Kronrod sum of 4 pi r^2 rho must match a finite
   ``total_charge()`` to 1e-8 relative, or the span cuts the density off;
3. the tail, per functional: with its row's tail power c, the integral
   beyond the span is about f / (c |rho'/rho|) at the outermost node; a
   tail past 1e-8 of its value fails, and a density of exactly 0 there has
   no tail.

A functional's ConvergenceError names it, and each ends with the grid's
point count and span.  The density check and every gate are purely
relative, with no floor under small values: a density scaled by 1e-270
fails where the unscaled one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Protocol

import numpy as np

__all__ = [
    "DEFAULT_GRID_POINTS",
    "ConvergenceError",
    "Density",
    "Energies",
    "RadialGrid",
    "make_grid",
    "span_for",
    "grid_for",
    "energies",
    "profile_energies",
]

TF_CONSTANT = 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0)
FOURTH_ORDER_CONSTANT = (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0

DEFAULT_GRID_POINTS = 1008
# span_for: at zeta R = 70 + 6 p the slowest integrand, r^2 tau_4 ~
# rho^{1/3}, has fallen by e^{-2 zeta R / 3} = e^{-46.7 - 4 p}; the 4 p
# covers the power r^{2p/3} it carries.  Against 8000 points on five times
# the span, every ladder point and bundled atom is within 6e-16 in all
# three functionals; 60 + 6 p leaves T_4 off by 5e-15, 50 + 6 p by 3e-12
_SPAN_DECAYS = 70.0
_SPAN_PER_POWER = 6.0
# sharpness a of the exponential map
_ALPHA = 12.0

_CONVERGENCE_TOL = 1e-8
# energies gates the _TRIAL_POINTS grid when every value's estimate
# |G - K| is within this of it, else the DEFAULT_GRID_POINTS grid; about
# 20 times the largest estimate measured at roundoff level, 5.3e-16 over
# the 17 bundled atoms at 512 and 1008 points
_ACCURACY_TARGET = 1e-14
# make_grid rounds it to 512 points
_TRIAL_POINTS = DEFAULT_GRID_POINTS // 2


class Energies(NamedTuple):
    """(T_TF, T_W, T_4) of one density, in hartree."""

    t_tf: float
    t_w: float
    t4: float

    @property
    def t2(self) -> float:
        """The second-order gradient correction T_2 = T_W / 9."""
        return self.t_w / 9.0


class _Functional(NamedTuple):
    """A row of ``_FUNCTIONALS``: gate name, tail power c and integrand f(r, rho, w, q)."""

    name: str
    power: float
    integrand: Callable[..., np.ndarray]


_FUNCTIONALS = (
    _Functional("T_TF", 5.0 / 3.0, lambda r, rho, w, q: r**2 * TF_CONSTANT * rho ** (5.0 / 3.0)),
    _Functional("T_W", 1.0, lambda r, rho, w, q: 0.125 * r * rho * q),
    _Functional("T_4", 1.0 / 3.0, lambda r, rho, w, q: (
        FOURTH_ORDER_CONSTANT * rho ** (1.0 / 3.0) * (w * w - 1.125 * w * q + q * q / 3.0))),
)


class Density(Protocol):
    """What the functionals ask of a radial density.

    ``profile`` returns (rho, rho', rho'') shaped like its radii and
    ``total_charge`` the integral of 4 pi r^2 rho.  ``slowest_primitive``
    is (zeta, p) of the orbital primitive r^p e^{-zeta r} that decays
    slowest, so rho ~ r^{2p} e^{-2 zeta r} at large r; only ``span_for``
    reads it.
    """

    slowest_primitive: tuple[float, int]

    def profile(self, r) -> tuple: ...

    def total_charge(self) -> float: ...


class ConvergenceError(RuntimeError):
    """A numerical result failed its convergence check (a quadrature gate or an extrapolation tableau)."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes and weights for integrals over [0, r_max].

    ``r_max`` is the span.  ``nodes`` are the 16 Gauss-Legendre nodes of
    every panel followed by the 17 nodes per panel of their 33-point
    Kronrod extension, and ``weights`` are that Kronrod rule's, the rule
    every value is reported with.  ``gauss_weights`` are the Gauss rule's
    on the leading ``gauss_weights.size`` nodes; they serve only the error
    estimate.
    """

    r_max: float
    nodes: np.ndarray
    weights: np.ndarray
    gauss_weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Kronrod sum approximating the integral of the function sampled at ``nodes``."""
        return float(np.dot(self.weights, values))


# The 16-point Gauss-Legendre rule and its 33-point Kronrod extension on
# [-1, 1], each number stated once in QUADPACK's half-rule layout: _XGK
# holds the 17 non-negative abscissae from the edge in to the centre 0.0,
# the Gauss nodes at the odd positions and the zeros of the Stieltjes
# polynomial E_17 at the even ones; _WGK holds the Kronrod weights at them
# and _WG the Gauss weights.  The literals equal numpy.polynomial's
# leggauss(16) bit for bit, and the extension computed in exact and
# 80-digit arithmetic rounded once, which tests check; holding them here
# keeps numpy.polynomial out of every run.
_XGK = (
    0.9982392741454446,
    0.9894009349916499,
    0.9715059509693926,
    0.9445750230732326,
    0.9091576670123429,
    0.8656312023878318,
    0.8142402870624444,
    0.755404408355003,
    0.6897411066817623,
    0.6178762444026438,
    0.5404076763521397,
    0.45801677765722737,
    0.37148378087841627,
    0.2816035507792589,
    0.18916857901808373,
    0.09501250983763744,
    0.0,
)
_WGK = (
    0.004742777049247318,
    0.013257930688091158,
    0.022498859440049444,
    0.031260543647380526,
    0.039512951202421966,
    0.047506215976407015,
    0.055205633095422174,
    0.062358806011834855,
    0.06886299519153125,
    0.07476982388559955,
    0.08005394126371929,
    0.08459580379259064,
    0.08833750257911273,
    0.09129203282819166,
    0.09343867406092123,
    0.09472840124723005,
    0.0951542160804983,
)
_WG = (
    0.027152459411754176,
    0.062253523938647456,
    0.0951585116824926,
    0.12462897125553407,
    0.1495959888165767,
    0.16915651939500265,
    0.18260341504492364,
    0.18945061045506864,
)


def _mirrored(xgk: tuple, wgk: tuple, wg: tuple) -> tuple[np.ndarray, ...]:
    """The five rule arrays, each ascending on [-1, 1] and read-only, from the half-rule tables.

    They are the Gauss nodes and weights, the Kronrod nodes, and the Kronrod
    weights on the Gauss and on the Kronrod nodes.  Abscissae are negated
    exactly, and the centre enters once, as +0.0.
    """
    # all 33 abscissae in ascending order keep the Gauss nodes at the odd positions
    x = np.concatenate((-np.array(xgk[:-1]), xgk[::-1]))
    w = np.array(wgk[:-1] + wgk[::-1])
    rules = (x[1::2], np.array(wg + wg[::-1]), x[0::2], w[1::2], w[0::2])
    for rule in rules:
        rule.setflags(write=False)
    return rules


_GL_NODES, _GL_WEIGHTS, _KRONROD_NODES, _KRONROD_GAUSS_WEIGHTS, _KRONROD_WEIGHTS = _mirrored(_XGK, _WGK, _WG)
# the Gauss nodes of one panel: a grid's n_points are whole panels of them
_PANEL_ORDER = _GL_NODES.size


@lru_cache(maxsize=256)
def _panels(n_points: int) -> tuple[np.ndarray, ...]:
    """What every grid of ``n_points`` shares, whatever its span.

    e^{a t} at the Gauss and then at the Kronrod abscissae of every panel,
    the panel half-widths times the Kronrod weights in that order, and
    times the Gauss weights.
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
        np.concatenate((exp_at(_GL_NODES), exp_at(_KRONROD_NODES))),
        np.concatenate((scaled(_KRONROD_GAUSS_WEIGHTS), scaled(_KRONROD_WEIGHTS))),
        scaled(_GL_WEIGHTS),
    )
    for part in panels:
        part.setflags(write=False)
    return panels


def make_grid(n_points: int, r_max: float) -> RadialGrid:
    """Construct a radial quadrature grid on [0, r_max].

    ``n_points`` is rounded up to a whole number of 16-point panels.  A bad
    ``n_points`` or a span that is not a finite radius > 0 raises
    ValueError.  Whether the grid resolves a density is judged on the
    values ``energies`` returns, not here.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < _PANEL_ORDER:
        raise ValueError(f"n_points must be an integer >= {_PANEL_ORDER}, got {n_points!r}")
    r_max = float(r_max)
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"invalid r_max {r_max!r}: need a finite radius > 0")

    e_at, w_kronrod, w_gauss = _panels(int(n_points))
    denom = math.expm1(_ALPHA)
    nodes = r_max * (e_at - 1.0) / denom
    jac = r_max * _ALPHA * e_at / denom
    return RadialGrid(r_max, nodes, w_kronrod * jac, w_gauss * jac[: w_gauss.size])


def span_for(rho: Density) -> float:
    """The radial span (70 + 6 p) / zeta of ``rho``'s slowest primitive (zeta, p)."""
    zeta, p = rho.slowest_primitive
    return (_SPAN_DECAYS + _SPAN_PER_POWER * p) / zeta


def grid_for(rho: Density) -> RadialGrid:
    """The largest grid ``energies`` integrates ``rho`` on, and the ladder's.

    ``DEFAULT_GRID_POINTS`` (1008) points over ``span_for(rho)``: 2079
    nodes.
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
    return f"({grid.gauss_weights.size} points over {grid.r_max!r} bohr)"


def _ratios(r: np.ndarray, values: np.ndarray, deriv: np.ndarray, deriv2: np.ndarray) -> tuple:
    """y = rho'/rho, w = (2 rho' + r rho'')/rho and q = r y^2, divided only where rho > 0, else 0."""
    live = values > 0.0
    y = np.divide(deriv, values, out=np.zeros_like(values), where=live)
    w = np.divide(2.0 * deriv + r * deriv2, values, out=np.zeros_like(values), where=live)
    return y, w, r * y * y


class _Measured(NamedTuple):
    """One profile on ``grid.nodes``, measured once for the gates of ``_gated``.

    ``integrands`` are those of ``_FUNCTIONALS`` (4 pi r^2 tau without the
    4 pi), ``gauss`` and ``values`` 4 pi times their Gauss and Kronrod sums,
    ``held`` the Kronrod sum of 4 pi r^2 rho, and ``decay`` |rho'/rho| at
    the outermost node (the last panel's last Kronrod node), 0 where the
    density there is 0.
    """

    grid: RadialGrid
    integrands: tuple[np.ndarray, ...]
    gauss: tuple[float, ...]
    values: tuple[float, ...]
    held: float
    decay: float


def _measure(grid: RadialGrid, rows: tuple) -> _Measured:
    """The record of ``rows`` = (rho, rho', rho'') on ``grid.nodes``, after the density check."""
    r = grid.nodes
    values, deriv, deriv2 = (np.asarray(a, dtype=float) for a in rows)
    values = _checked_density(values)
    held = 4.0 * math.pi * grid.integrate(r**2 * values)
    y, w, q = _ratios(r, values, deriv, deriv2)
    integrands = tuple(row.integrand(r, values, w, q) for row in _FUNCTIONALS)
    n = grid.gauss_weights.size
    gauss = tuple(4.0 * math.pi * float(np.dot(grid.gauss_weights, f[:n])) for f in integrands)
    kronrod = tuple(4.0 * math.pi * grid.integrate(f) for f in integrands)
    return _Measured(grid, integrands, gauss, kronrod, held, abs(float(y[-1])))


def _settled(gauss: float, kronrod: float, tol: float) -> bool:
    """Whether the estimate |G - K| is within ``tol`` of the larger sum (no floor; False on NaN)."""
    return abs(kronrod - gauss) <= tol * max(abs(kronrod), abs(gauss))


def _gated(measured: _Measured, charge: float) -> Energies:
    """The Kronrod values of ``measured``, once it passes the gates of the module docstring.

    ``charge`` is the density's total charge.  A value and tail both
    exactly 0 pass the tail gate.
    """
    grid, integrands, gauss_values, values, held, decay = measured
    for row, gauss, value in zip(_FUNCTIONALS, gauss_values, values):
        if not (math.isfinite(gauss) and math.isfinite(value)):
            bad = value if math.isfinite(gauss) else gauss
            raise ConvergenceError(
                f"{row.name}: the result is {bad!r}, not a finite number {_grid_text(grid)}"
            )
        if not _settled(gauss, value, _CONVERGENCE_TOL):
            raise ConvergenceError(
                f"{row.name}: grid refinement moved the result from {gauss!r} to {value!r} "
                f"{_grid_text(grid)}"
            )
    # NaN fails the first comparison, an infinite charge the second
    if not abs(held - charge) <= _CONVERGENCE_TOL * abs(charge) < math.inf:
        raise ConvergenceError(
            f"the grid holds {held!r} of the density's {charge!r} electrons {_grid_text(grid)}"
        )
    if decay:
        for row, f, value in zip(_FUNCTIONALS, integrands, values):
            tail = 4.0 * math.pi * abs(float(f[-1])) / (row.power * decay)
            if tail > _CONVERGENCE_TOL * abs(value):
                share = tail / abs(value) if value else math.inf
                raise ConvergenceError(
                    f"{row.name}: about {share:.1e} of the value lies beyond the radial span "
                    f"{_grid_text(grid)}"
                )
    return Energies._make(values)


def profile_energies(grid: RadialGrid, rows: tuple, charge: float) -> Energies:
    """The ``Energies`` of a density profile on ``grid`` (hartree), through every gate.

    ``rows`` is (rho, rho', rho'') on ``grid.nodes``, with the exact
    derivatives that T_4 needs, and ``charge`` the density's total charge.
    Each value is the Kronrod sum over all the nodes, and the gates, in
    their order, are ``_gated``'s.
    """
    return _gated(_measure(grid, rows), charge)


def energies(rho: Density) -> Energies:
    """The ``Energies`` of ``rho`` on the smallest grid that resolves it (hartree).

    Both grids span ``span_for(rho)``.  The 512-point grid is measured
    first, with one ``rho.profile`` call on its nodes (a density
    ValueError raises at once).  If each of the three Kronrod values is
    ``_settled`` within 1e-14 of its Gauss sum, that grid is gated as
    ``profile_energies`` gates it.  Otherwise the result is
    ``profile_energies`` on the 1008 points of ``grid_for(rho)``, bit for
    bit, values and errors alike.
    """
    grid = make_grid(_TRIAL_POINTS, span_for(rho))
    measured = _measure(grid, rho.profile(grid.nodes))
    if not all(_settled(g, k, _ACCURACY_TARGET) for g, k in zip(measured.gauss, measured.values)):
        grid = grid_for(rho)
        measured = _measure(grid, rho.profile(grid.nodes))
    return _gated(measured, rho.total_charge())
