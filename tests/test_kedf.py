"""Quadrature engine and kinetic-energy functionals against closed forms."""

import ast
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from densities import energies_on
from half_line import half_line_t4, hydrogenic_terms
from orbitals import orbital_density
from pair_reference import pair_field
from tfshell import _kernels, cli, kedf
from tfshell.asymptotics import model_energy_sequence
from tfshell.correction import table1_row
from tfshell.atomic_data import STODensity, atom_density
from tfshell.hydrogenic import HydrogenicDensity
from tfshell.kedf import (
    FOURTH_ORDER_CONSTANT,
    TF_CONSTANT,
    ConvergenceError,
    Energies,
    RadialGrid,
    energies,
    grid_for,
    make_grid,
    span_for,
)

# ---------------------------------------------------------------------------
# closed forms for a single-exponential density rho = c exp(-beta r)
#
# T_TF: 4 pi c_TF c^{5/3} * Gamma(3) / (5 beta / 3)^3
# T_W:  4 pi (beta^2 c / 8) * Gamma(3) / beta^3 = pi c / beta
# T_4:  the r^2-absorbed bracket collapses to
#         (5/24) beta^4 r^2 - (7/4) beta^3 r + 4 beta^2,
#       and with decay beta/3 the three moments sum to 7.5 beta, so
#       T_4 = 30 pi c_4 c^{1/3} beta.
# ---------------------------------------------------------------------------


def tf_closed(c: float, beta: float) -> float:
    return 4.0 * math.pi * TF_CONSTANT * c ** (5.0 / 3.0) * 2.0 / (5.0 * beta / 3.0) ** 3


def tw_closed(c: float, beta: float) -> float:
    return math.pi * c / beta


def t4_closed(c: float, beta: float) -> float:
    mu = beta / 3.0
    integral = (
        (5.0 / 24.0) * beta**4 * 2.0 / mu**3
        - (7.0 / 4.0) * beta**3 / mu**2
        + 4.0 * beta**2 / mu
    )
    return 4.0 * math.pi * FOURTH_ORDER_CONSTANT * c ** (1.0 / 3.0) * integral


@pytest.fixture(scope="module")
def grid() -> RadialGrid:
    return make_grid(2000, 45.0)


def test_constants() -> None:
    assert TF_CONSTANT == pytest.approx(0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0), rel=1e-15)
    assert FOURTH_ORDER_CONSTANT == pytest.approx(
        (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0, rel=1e-15
    )


# span scales with 1/beta: the slowest integrand decay is beta/3, and the
# closed forms assume the tail is fully captured.  At c = 1e-160 (rho')^2
# underflows on most of the span, and at c = 1e-270 rho itself reaches the
# subnormals; the ratios rho'/rho keep both exact.  abs=0 keeps the 1e-10
# relative at these scales, where approx's default 1e-12 absolute would not
@pytest.mark.parametrize(
    "c,beta,span",
    [
        (16.0 / math.pi, 4.0, 45.0),
        (0.37, 0.8, 150.0),
        (5.1, 2.6, 45.0),
        (1e-160, 2.0, 45.0),
        (1e-270, 2.0, 45.0),
    ],
)
def test_single_exponential_closed_forms(c: float, beta: float, span: float) -> None:
    grid = make_grid(2000, span)
    # c e^{-beta r} as the square of one orbital
    field = orbital_density([[(math.sqrt(c), 0, beta / 2.0)]])
    t_tf, t_w, t4 = energies_on(field, grid)
    assert t_tf == pytest.approx(tf_closed(c, beta), rel=1e-10, abs=0.0)
    assert t_w == pytest.approx(tw_closed(c, beta), rel=1e-10, abs=0.0)
    assert t4 == pytest.approx(t4_closed(c, beta), rel=1e-10, abs=0.0)


def test_t4_closed_form_simplification() -> None:
    assert t4_closed(2.0, 1.5) == pytest.approx(
        30.0 * math.pi * FOURTH_ORDER_CONSTANT * 2.0 ** (1.0 / 3.0) * 1.5, rel=1e-14
    )


def test_one_shell_density_weizsacker_is_exact(grid: RadialGrid) -> None:
    # a pure 1s density is a single orbital; its gradient term recovers the
    # full kinetic energy n_max * Z^2 = 4
    density = HydrogenicDensity(1)
    t_tf, t_w, _ = energies_on(density, grid)
    assert t_w == pytest.approx(4.0, rel=1e-10)
    assert t_tf == pytest.approx(tf_closed(16.0 / math.pi, 4.0), rel=1e-10)


def _standard_form_t4(rho_of, span: tuple[float, float]) -> float:
    """T_4 from the textbook laplacian form by adaptive quadrature.

    rho_of(r) must return (rho, rho', rho''); the explicit 2 rho'/r keeps
    this form singular at the origin, hence the small positive lower limit.
    """

    def integrand(r: float) -> float:
        rho, d1, d2 = rho_of(r)
        lap = d2 + 2.0 * d1 / r
        bracket = (lap / rho) ** 2 - 1.125 * lap * d1 * d1 / rho**3 + (d1 / rho) ** 4 / 3.0
        return 4.0 * math.pi * r * r * FOURTH_ORDER_CONSTANT * rho ** (1.0 / 3.0) * bracket

    value, _ = quad(integrand, span[0], span[1], limit=300, epsabs=1e-13, epsrel=1e-12)
    return value


def test_t4_regular_form_matches_standard_form_single_exponential() -> None:
    c, beta = 0.9, 1.7

    def rho_of(r: float):
        e = c * math.exp(-beta * r)
        return e, -beta * e, beta * beta * e

    reference = _standard_form_t4(rho_of, (1e-9, 60.0))
    grid = make_grid(2000, 60.0)
    field = orbital_density([[(math.sqrt(c), 0, beta / 2.0)]])
    assert energies_on(field, grid)[2] == pytest.approx(reference, rel=2e-9)


def test_t4_regular_form_matches_standard_form_two_shells() -> None:
    # the adaptive quadrature is the limiting party here (the grid value is
    # refinement-stable to far better)
    density = HydrogenicDensity(2)
    fine = grid_for(density)
    reference = _standard_form_t4(density.profile, (1e-9, span_for(density)))
    assert energies_on(density, fine)[2] == pytest.approx(reference, rel=1e-7)


@pytest.mark.parametrize("lam", [0.5, 1.3, 2.7])
def test_dilation_scales_every_functional_quadratically(lam: float) -> None:
    # 2 e^{-1.5 r} + 0.7 r^2 e^{-0.9 r} as two orbitals; lam^3 rho(lam r)
    # scales each exponent by lam and each coefficient by lam^{p + 3/2}
    orbitals = [[(math.sqrt(2.0), 0, 0.75)], [(math.sqrt(0.7), 1, 0.45)]]
    field = orbital_density(orbitals)
    scaled = orbital_density(
        [[(c * lam ** (p + 1.5), p, zeta * lam) for c, p, zeta in orb] for orb in orbitals]
    )
    base = grid_for(field)
    scaled_grid = grid_for(scaled)
    for scaled_value, base_value in zip(energies_on(scaled, scaled_grid), energies_on(field, base)):
        assert scaled_value == pytest.approx(lam**2 * base_value, rel=1e-8)


# --- grid construction and validation --------------------------------------


def test_grid_minimum_resolution() -> None:
    # a grid is judged by the values computed on it: 48 points build, and
    # the Kronrod gate refuses what they give for a 1s density
    coarse = make_grid(48, 45.0)
    assert coarse.gauss_weights.size == 48
    refused = r"^T_TF: grid refinement moved .+ \(48 points over 45\.0 bohr\)$"
    with pytest.raises(ConvergenceError, match=refused):
        energies_on(HydrogenicDensity(1), coarse)
    grid = make_grid(64, 45.0)
    assert grid.gauss_weights.size == 64
    assert energies_on(HydrogenicDensity(1), grid)[1] == pytest.approx(4.0, rel=1e-10)


def test_short_coarse_grid_fails_the_gate_on_every_call() -> None:
    # the span-free half of a grid is memoized per n_points; the gates on
    # the values are not
    density = HydrogenicDensity(2)
    refused = r"^T_TF: grid refinement moved .+ \(48 points over 5\.0 bohr\)$"
    for _ in range(2):
        with pytest.raises(ConvergenceError, match=refused):
            energies_on(density, make_grid(48, 5.0))


def test_gauss_legendre_literals_match_leggauss() -> None:
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(kedf._GL_NODES, nodes)
    assert np.array_equal(kedf._GL_WEIGHTS, weights)
    # bit for bit, signed zeros included
    assert kedf._GL_NODES.tobytes() == nodes.tobytes()
    assert kedf._GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.fixture(scope="module")
def kronrod_rule():
    """The 16-point Gauss rule and its 33-point Kronrod extension at 50 digits.

    Returns (gauss nodes, Kronrod nodes, weights on the Gauss nodes, weights
    on the Kronrod nodes) as mpf lists.  The Stieltjes polynomial E_17 is
    the monic odd polynomial of degree 17 orthogonal to every polynomial of
    degree < 17 under the weight P_16; its coefficients come from an exact
    rational solve, its zeros from bracketing between the Gauss nodes, and
    the weights from exactness on P_0..P_32.
    """
    from fractions import Fraction

    import mpmath as mp

    with mp.workdps(50):
        legendre = [[Fraction(1)], [Fraction(0), Fraction(1)]]
        for n in range(1, 16):
            up = [Fraction(0)] + [c * (2 * n + 1) for c in legendre[n]]
            down = [c * n for c in legendre[n - 1]] + [Fraction(0)] * 2
            legendre.append([(a - b) / (n + 1) for a, b in zip(up, down)])
        p16 = legendre[16]

        def p16_moment(m: int) -> Fraction:
            # integral over [-1, 1] of P_16(x) x^m
            return sum(Fraction(2, i + m + 1) * c for i, c in enumerate(p16) if (i + m) % 2 == 0)

        odd = range(1, 17, 2)
        rows = [[p16_moment(j + k) for j in odd] + [-p16_moment(17 + k)] for k in odd]
        for i in range(len(rows)):  # exact Gauss-Jordan elimination
            pivot = next(r for r in range(i, len(rows)) if rows[r][i] != 0)
            rows[i], rows[pivot] = rows[pivot], rows[i]
            rows[i] = [c / rows[i][i] for c in rows[i]]
            for r in range(len(rows)):
                if r != i:
                    rows[r] = [a - rows[r][i] * b for a, b in zip(rows[r], rows[i])]
        stieltjes = {17: Fraction(1), **{j: row[-1] for j, row in zip(odd, rows)}}

        def mpf(c: Fraction):
            return mp.mpf(c.numerator) / c.denominator

        def e17(x):
            return mp.fsum(mpf(c) * x**j for j, c in stieltjes.items())

        roots = mp.polyroots([mpf(c) for c in reversed(p16)], maxsteps=200, extraprec=200)
        gauss = sorted(mp.re(x) for x in roots)
        ends = [mp.mpf(-1)] + gauss + [mp.mpf(1)]
        kronrod = []
        for lo, hi in zip(ends, ends[1:]):
            assert e17(lo) * e17(hi) < 0
            kronrod.append(mp.findroot(e17, (lo, hi), solver="anderson"))
        nodes = gauss + kronrod
        matrix = mp.matrix([[mp.legendre(k, x) for x in nodes] for k in range(33)])
        weights = mp.lu_solve(matrix, mp.matrix([2] + [0] * 32))
        return gauss, kronrod, list(weights[:16]), list(weights[16:])


def test_kronrod_literals_match_mpmath_rule(kronrod_rule) -> None:
    gauss, kronrod, on_gauss, on_kronrod = kronrod_rule
    assert [float(x) for x in gauss] == kedf._GL_NODES.tolist()
    for literals, exact in (
        (kedf._KRONROD_NODES, kronrod),
        (kedf._KRONROD_GAUSS_WEIGHTS, on_gauss),
        (kedf._KRONROD_WEIGHTS, on_kronrod),
    ):
        assert literals.tolist() == [float(x) for x in exact]
    assert min(on_gauss + on_kronrod) > 0


def test_kronrod_literals_are_exact_through_degree_49() -> None:
    import mpmath as mp

    # the float literals, summed at 40 digits; in the Legendre basis, because
    # the rule's error on x^50 (5.4e-18) hides below the literals' roundoff
    # while on P_50 it is 4.9e-4
    nodes = [mp.mpf(x) for x in kedf._GL_NODES.tolist() + kedf._KRONROD_NODES.tolist()]
    weights = kedf._KRONROD_GAUSS_WEIGHTS.tolist() + kedf._KRONROD_WEIGHTS.tolist()
    assert min(weights) > 0
    with mp.workdps(40):
        weights = [mp.mpf(w) for w in weights]
        for k in range(51):
            exact = 2 if k == 0 else 0
            error = abs(mp.fsum(w * mp.legendre(k, x) for w, x in zip(weights, nodes)) - exact)
            if k <= 49:
                assert error < 1e-15, k
            else:
                assert error > 1e-6


def test_gauss_part_of_grid_is_the_plain_expmap_rule() -> None:
    # the Gauss nodes and weights, bit for bit, from the map written out;
    # the Kronrod weights on them, and the Kronrod extension's nodes and
    # weights, too.  Spans that share a resolution share its span-free
    # half, so 2000 points run at four spans
    cases = ((2000, 45.0), (2000, 100.3), (2000, 15.2), (2000, 140.0), (3008, 130.0), (64, 5.0))
    for n_points, r_max in cases:
        grid = make_grid(n_points, r_max)
        edges = np.linspace(0.0, 1.0, -(-n_points // 16) + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])

        def mapped(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # the nodes at abscissae x of every panel, and the map's Jacobian there
            e_at = np.exp(12.0 * (mid[:, None] + half[:, None] * x[None, :]).ravel())
            return r_max * (e_at - 1.0) / math.expm1(12.0), r_max * 12.0 * e_at / math.expm1(12.0)

        def scaled(w: np.ndarray) -> np.ndarray:
            return (half[:, None] * w[None, :]).ravel()

        nodes, jac = mapped(kedf._GL_NODES)
        n = nodes.size
        assert grid.nodes[:n].tobytes() == nodes.tobytes()
        assert grid.gauss_weights.tobytes() == (scaled(kedf._GL_WEIGHTS) * jac).tobytes()
        assert grid.weights[:n].tobytes() == (scaled(kedf._KRONROD_GAUSS_WEIGHTS) * jac).tobytes()
        nodes, jac = mapped(kedf._KRONROD_NODES)
        assert grid.nodes[n:].tobytes() == nodes.tobytes()
        assert grid.weights[n:].tobytes() == (scaled(kedf._KRONROD_WEIGHTS) * jac).tobytes()


def test_grids_do_not_import_numpy_polynomial() -> None:
    code = (
        "import sys\n"
        "import tfshell.cli\n"
        "from tfshell.kedf import make_grid\n"
        "make_grid(2000, 45.0)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_points": 15},
        {"n_points": 64.5},
        {"r_max": -1.0},
        {"r_max": 0.0},
        {"r_max": math.inf},
        {"r_max": math.nan},
    ],
)
def test_grid_rejects_bad_parameters(kwargs) -> None:
    base = {"n_points": 2000, "r_max": 45.0}
    base.update(kwargs)
    refused = r"^(n_points must be an integer >= 16, got |invalid r_max .+: need a finite radius > 0$)"
    with pytest.raises(ValueError, match=refused):
        make_grid(base["n_points"], base["r_max"])


def test_grid_geometry(grid: RadialGrid) -> None:
    # the Gauss nodes lead, in increasing order
    n = grid.gauss_weights.size
    assert n % 16 == 0
    assert n >= 2000
    gauss = grid.nodes[:n]
    assert np.all(np.diff(gauss) > 0)
    assert gauss[0] > 0.0
    assert gauss[-1] < 45.0
    assert np.all(grid.gauss_weights > 0)
    # the Gamma(3) integral of r^2 e^{-r}, exactly 2, on the Gauss rule
    probe = float(np.dot(grid.gauss_weights, gauss**2 * np.exp(-gauss)))
    assert abs(probe - 2.0) <= 1e-9


def test_grid_refined(grid: RadialGrid) -> None:
    # 17 Kronrod nodes per 16-node Gauss panel follow the Gauss nodes
    n = grid.gauss_weights.size
    assert grid.nodes.size == grid.weights.size == 33 * n // 16 == 4125
    assert np.all(np.diff(grid.nodes[n:]) > 0)
    assert np.all(grid.weights > 0)
    assert 0.0 < grid.nodes.min() and grid.nodes.max() < 45.0
    # in each panel the Kronrod nodes interlace the Gauss nodes, one at each end
    is_kronrod = np.argsort(grid.nodes, kind="stable") >= n
    panel = np.array([True, False] * 16 + [True])
    assert np.array_equal(is_kronrod, np.tile(panel, n // 16))
    # the same integral on the Kronrod rule
    r = grid.nodes
    assert abs(grid.integrate(r**2 * np.exp(-r)) - 2.0) <= 1e-9


def test_integrate_is_the_reported_rule(grid: RadialGrid) -> None:
    # grid.integrate is the rule profile_energies reports with, bit for bit:
    # T_W of e^{-2r}, and the Kronrod rule has 33 nodes per 16 Gauss points
    field = orbital_density([[(1.0, 0, 1.0)]])
    weizsacker = kedf._measure(grid, field.profile(grid.nodes)).integrands[1]
    assert 4.0 * math.pi * grid.integrate(weizsacker) == energies_on(field, grid)[1]
    assert grid.nodes.size == 33 * grid.gauss_weights.size // 16


def test_integrate_is_weighted_dot(grid: RadialGrid) -> None:
    values = np.sin(grid.nodes)
    assert grid.integrate(values) == float(np.dot(grid.weights, values))


# --- failure modes ----------------------------------------------------------


class CountingField(STODensity):
    """Records the nodes of every profile() call."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.profile_nodes: list[np.ndarray] = []

    @property
    def profile_sizes(self) -> list[int]:
        return [nodes.size for nodes in self.profile_nodes]

    def profile(self, r):
        self.profile_nodes.append(np.array(r, dtype=float))
        return super().profile(r)


def test_single_functional_evaluates_grid_and_refinement(grid: RadialGrid) -> None:
    # one call on the Gauss and Kronrod nodes together
    field = orbital_density([[(1.0, 0, 1.0)]], CountingField)
    energies_on(field, grid)
    assert len(field.profile_nodes) == 1
    assert field.profile_nodes[0].tobytes() == grid.nodes.tobytes()


# each functional by the name it had as a function of its own, read off the
# one profile call of energies: (index in energies, closed form)
SINGLE_FUNCTIONALS = {
    "tf_energy": (0, tf_closed),
    "weizsacker_energy": (1, tw_closed),
    "fourth_order_energy": (2, t4_closed),
}


@pytest.mark.parametrize("functional", list(SINGLE_FUNCTIONALS))
@pytest.mark.parametrize("n_points,sampled", [(2000, 4125), (3008, 6204)])
def test_single_functionals_evaluate_profile_once(functional: str, n_points: int, sampled: int) -> None:
    # e^{-20 r} is exactly 0 beyond r = 37.2, so the vacuum nodes are read
    # from the same profile call as the integrands
    index, closed = SINGLE_FUNCTIONALS[functional]
    field = orbital_density([[(1.0, 0, 10.0)]], CountingField)
    grid = make_grid(n_points, 45.0)
    assert np.any(field.profile(grid.nodes)[0] == 0.0)
    field.profile_nodes.clear()
    value = energies_on(field, grid)[index]
    assert field.profile_sizes == [grid.nodes.size] == [sampled]
    assert value == pytest.approx(closed(1.0, 20.0), rel=1e-10)


class NegativeDensity:
    """-e^{-r} with its derivatives: the density protocol and nothing else."""

    def profile(self, r):
        e = np.exp(-np.asarray(r, dtype=float))
        return -e, e, -e

    def total_charge(self) -> float:
        return -8.0 * math.pi


def test_negative_density_rejected(grid: RadialGrid) -> None:
    with pytest.raises(ValueError, match="negative"):
        energies_on(NegativeDensity(), grid)


def test_vanishing_density_matches_closed_forms() -> None:
    # 1e-270 e^{-r} is subnormal beyond r = 87.0 and exactly 0 beyond 123.4
    # on its own 140-bohr grid: the nonzero nodes hold every functional, and
    # the zero nodes are vacuum that holds nothing
    field = orbital_density([[(1e-135, 0, 0.5)]])
    grid = grid_for(field)
    rho = field.profile(grid.nodes)[0]
    assert np.any(rho == 0.0) and np.any((0.0 < rho) & (rho < 2.3e-308))
    t_tf, t_w, t4 = energies_on(field, grid)
    assert t_tf == tf_closed(1e-270, 1.0) == 0.0  # c^{5/3} underflows
    assert t_w == pytest.approx(tw_closed(1e-270, 1.0), rel=1e-10, abs=0.0)
    assert t4 == pytest.approx(t4_closed(1e-270, 1.0), rel=1e-10, abs=0.0)


def test_span_short_of_the_density_fails_the_charge_check() -> None:
    # e^{-r} holds 8 pi electrons, of which [0, 10] holds the fraction
    # 1 - e^{-10} (1 + 10 + 50); the three functionals pass their own gates
    # there, so only the charge check sees the cut
    field = orbital_density([[(1.0, 0, 0.5)]])
    short = make_grid(2000, 10.0)
    measured = kedf._measure(short, field.profile(short.nodes))
    kedf._gated(measured._replace(decay=0.0), measured.held)
    with pytest.raises(ConvergenceError) as exc:
        energies_on(field, short)
    message = re.fullmatch(
        r"the grid holds (\S+) of the density's (\S+) electrons \(2000 points over 10\.0 bohr\)",
        str(exc.value),
    )
    held, total = float(message[1]), float(message[2])
    assert total == field.total_charge() == pytest.approx(8.0 * math.pi, rel=1e-15)
    assert held == pytest.approx(total * (1.0 - 61.0 * math.exp(-10.0)), rel=1e-10)
    # 30 bohr holds the charge to 1e-8, but T_4's integrand, decaying as
    # e^{-r/3}, leaves 2.5e-3 of its value beyond it; the span of the
    # density's own grid, 140 bohr, passes every gate
    beyond_30 = (
        r"^T_4: about \S+ of the value lies beyond the radial span \(2000 points over 30\.0 bohr\)$"
    )
    with pytest.raises(ConvergenceError, match=beyond_30):
        energies_on(field, make_grid(2000, 30.0))
    energies_on(field, grid_for(field))


@pytest.mark.parametrize("charge", [math.nan, math.inf, -math.inf])
def test_non_finite_charge_fails_the_charge_check(charge: float) -> None:
    # the gate's |held - charge| > 1e-8 |charge| used to be False for all
    # three, and the energies came back as if the charge had been held
    field = STODensity([1.0], [0], [[1.0]], charge)
    held = rf"^the grid holds \S+ of the density's {re.escape(repr(charge))} electrons \(\d+ points over \S+ bohr\)$"
    grid = grid_for(field)
    with pytest.raises(ConvergenceError, match=held):
        kedf.profile_energies(grid, field.profile(grid.nodes), charge)
    with pytest.raises(ConvergenceError, match=held):
        energies(field)


# --- the radial span and its tail gate ---------------------------------------


def test_ladder_t4_matches_the_half_line() -> None:
    # the T_4 of fig1a/fig2a at three shells against mpmath on [0, inf); the
    # span (6 n^2 + 40) / Z cut 3.9e-6 of it off
    reference = half_line_t4(hydrogenic_terms(3))
    assert model_energy_sequence([3])[0].t.t4 == pytest.approx(reference, rel=1e-8)


def test_table1_t4_matches_the_half_line(bundled, capsys) -> None:
    # Li's T_4 as table1 prints it against mpmath on [0, inf); a 45-bohr span
    # cut 1.8e-6 of it off
    assert cli.main(["table1", "--atoms", "Li", "--format", "jsonl"]) == 0
    t4 = json.loads(capsys.readouterr().out)["t4"]
    assert t4 == pytest.approx(half_line_t4(pair_field(bundled["Li"])), rel=1e-8)


@pytest.mark.parametrize("name,span", [("3 shells", 94.0 / 28.0), ("Li", 45.0)])
def test_tail_gate_fires_on_a_short_span(bundled, name: str, span: float) -> None:
    # the spans these densities had before grid_for: 3.5e-6 and 1.4e-6 of
    # T_4 estimated beyond them, 3.9e-6 and 1.8e-6 the truth
    rho = HydrogenicDensity(3) if name == "3 shells" else atom_density(bundled[name])
    grid = make_grid(2000, span)
    with pytest.raises(ConvergenceError) as exc:
        energies_on(rho, grid)
    message = re.fullmatch(
        rf"T_4: about (\S+) of the value lies beyond the radial span "
        rf"\(2000 points over {re.escape(repr(span))} bohr\)",
        str(exc.value),
    )
    assert message is not None, str(exc.value)
    truncated = kedf._measure(grid, rho.profile(grid.nodes)).gauss[2]
    full = energies_on(rho, grid_for(rho))[2]
    assert float(message[1]) == pytest.approx((full - truncated) / full, rel=0.3)


def test_tail_gate_is_silent_on_every_derived_grid(bundled) -> None:
    # no derived grid reaches vacuum: rho > 0 on every node, so the commands
    # never take the rho = 0 branch of the integrands or of the tail gate
    densities = [HydrogenicDensity(n) for n in range(1, 41)]
    densities += [atom_density(record) for record in bundled.values()]
    for rho in densities:
        grid = grid_for(rho)
        assert np.all(rho.profile(grid.nodes)[0] > 0.0)
        assert all(math.isfinite(t) for t in energies_on(rho, grid))


@pytest.mark.parametrize("c", [1.0, 1e-20, 1e-270])
def test_tail_gate_has_no_floor(grid: RadialGrid, c: float) -> None:
    # c e^{-r} leaves 4.3e-5 of its T_4 beyond 45 bohr whatever c is; at
    # c = 1e-270 T_4 is near 1e-90 and the tail near 1e-95, and a floor
    # under either would let the short span pass
    field = orbital_density([[(math.sqrt(c), 0, 0.5)]])
    beyond = r"^T_4: about 4\.3e-05 of the value lies beyond the radial span \(2000 points over 45\.0 bohr\)$"
    with pytest.raises(ConvergenceError, match=beyond):
        energies_on(field, grid)


def _record(grid: RadialGrid, gauss, values, integrands=(np.zeros(3),) * 3, decay=0.0):
    """A hand-built measurement on ``grid`` that holds its charge of 1."""
    return kedf._Measured(grid, integrands, gauss, values, 1.0, decay)


def test_gates_compare_small_values_relatively(grid: RadialGrid) -> None:
    # 1e-40 and 2e-40 differ by half of the larger: no floor hides it
    with pytest.raises(ConvergenceError, match="^T_W: grid refinement moved the result"):
        kedf._gated(_record(grid, (1.0, 1e-40, 1.0), (1.0, 2e-40, 1.0)), 1.0)
    kedf._gated(_record(grid, (1.0, 1e-300, 1.0), (1.0, 1e-300 * (1.0 + 1e-12), 1.0)), 1.0)
    # a value and its tail both exactly 0 pass; a tail on a 0 value does not
    zeros = (0.0, 0.0, 0.0)
    kedf._gated(_record(grid, zeros, zeros, decay=1.0), 1.0)
    tail_on_zero = (np.zeros(3), np.array([0.0, 0.0, 1e-300]), np.zeros(3))
    with pytest.raises(ConvergenceError, match="^T_W: about inf of the value"):
        kedf._gated(_record(grid, zeros, zeros, tail_on_zero, decay=1.0), 1.0)


def test_vacuum_at_the_span_end_has_no_tail() -> None:
    # e^{-2r} is exactly 0 in floating point long before 400 bohr, where
    # rho'/rho would read 0/0: the gate takes a vacuum node for no tail
    field = orbital_density([[(1.0, 0, 1.0)]])
    grid = make_grid(2000, 400.0)
    assert kedf._measure(grid, field.profile(grid.nodes)).decay == 0.0
    assert energies_on(field, grid)[1] == pytest.approx(tw_closed(1.0, 2.0), rel=1e-10)


def test_slowest_primitive_sets_the_span() -> None:
    assert HydrogenicDensity(3).slowest_primitive == (28.0 / 3.0, 2)
    # the smallest exponent, and the largest power at it
    rho = orbital_density([[(1.0, 0, 2.0), (0.5, 3, 0.7)], [(0.2, 1, 0.7), (0.1, 5, 1.1)]])
    assert rho.slowest_primitive == (0.7, 3)
    assert span_for(rho) == (70.0 + 6.0 * 3) / 0.7
    grid = grid_for(rho)
    assert grid.r_max == span_for(rho)
    assert grid.gauss_weights.size == kedf.DEFAULT_GRID_POINTS
    # a density without primitives has no extent, and no grid
    with pytest.raises(ValueError, match="invalid r_max 0.0"):
        grid_for(orbital_density([]))


class PoisonedField(STODensity):
    """Returns NaN at node ``index`` of every call in profile component ``component``."""

    def __init__(self, *args, component: int, index: int = 100) -> None:
        super().__init__(*args)
        self.component = component
        self.index = index

    def profile(self, r):
        parts = [np.array(a) for a in super().profile(r)]
        parts[self.component][self.index] = np.nan
        return tuple(parts)


def test_nan_density_rejected(grid: RadialGrid) -> None:
    field = orbital_density([[(1.0, 0, 1.0)]], PoisonedField, component=0)
    with pytest.raises(ValueError, match="NaN"):
        energies_on(field, grid)


def test_non_finite_functional_value_names_functional(grid: RadialGrid) -> None:
    # a finite density whose rho'' is NaN at one node: only T_4 reads it
    field = orbital_density([[(1.0, 0, 1.0)]], PoisonedField, component=2)
    with pytest.raises(ConvergenceError, match="^T_4: the result is nan"):
        energies_on(field, grid)
    # T_TF and T_W are finite and pass the gate on their own
    measured = kedf._measure(grid, field.profile(grid.nodes))
    finite = (1.0,)
    kedf._gated(_record(grid, measured.gauss[:2] + finite, measured.values[:2] + finite), 1.0)


def test_fourth_order_is_finite_far_out(bundled) -> None:
    # He's density falls below 1e-103 well inside a 150-bohr span, where
    # (rho')^2, rho^2 and rho^3 of the plain forms underflow; the ratio form
    # does not.  rho^{5/3} of T_TF underflows there harmlessly, so only the
    # ratios and the T_W and T_4 rows run with every floating-point error raised.
    field = atom_density(bundled["He"])
    far_grid = make_grid(2000, 150.0)
    r = far_grid.nodes
    with np.errstate(all="raise"):
        values, deriv, deriv2 = field.profile(r)
        _, w, q = kedf._ratios(r, values, deriv, deriv2)
        guarded = tuple(
            4.0 * math.pi * far_grid.integrate(row.integrand(r, values, w, q))
            for row in kedf._FUNCTIONALS[1:]
        )
    near = energies_on(field, make_grid(2000, 45.0))[1:]
    far = energies_on(field, far_grid)[1:]
    assert far == guarded
    assert far == pytest.approx(near, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refinement_gate_rejects_non_finite_values(grid: RadialGrid, bad: float) -> None:
    with pytest.raises(ConvergenceError, match="^T_4: the result is"):
        kedf._gated(_record(grid, (1.0, 1.0, bad), (1.0, 1.0, bad)), 1.0)
    # a finite Gauss sum whose Kronrod value is not finite
    not_finite = r"^T_4: the result is .+ \(2000 points over 45\.0 bohr\)$"
    with pytest.raises(ConvergenceError, match=not_finite):
        kedf._gated(_record(grid, (1.0, 1.0, 1.0), (1.0, 1.0, bad)), 1.0)
    kedf._gated(_record(grid, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0 + 1e-12)), 1.0)


# (Gauss, Kronrod) pairs of order 1, so that scaled by 1e-300 they stay
# normal numbers, and whether each is settled at 1e-14 and at 1e-8: equal,
# 1e-12, 1e-10 and 1e-6 apart relative, of either sign, and of opposite signs
SUM_PAIRS = [
    (1.0, 1.0, True, True),
    (2.5, 2.5 * (1.0 + 1e-12), False, True),
    (-3.0, -3.0 * (1.0 + 1e-10), False, True),
    (0.7, 0.7 * (1.0 - 1e-6), False, False),
    (2.0, -2.0, False, False),
]


@pytest.mark.parametrize("gauss,kronrod,at_target,at_gate", SUM_PAIRS)
def test_settled_is_symmetric_and_has_no_floor(
    gauss: float, kronrod: float, at_target: bool, at_gate: bool
) -> None:
    for tol, settled in ((kedf._ACCURACY_TARGET, at_target), (kedf._CONVERGENCE_TOL, at_gate)):
        assert kedf._settled(gauss, kronrod, tol) is settled
        assert kedf._settled(kronrod, gauss, tol) is settled
        assert kedf._settled(1e-300 * gauss, 1e-300 * kronrod, tol) is settled
        for total in (gauss, kronrod):
            assert kedf._settled(total, total, tol)
            assert not kedf._settled(total, math.nan, tol)
            assert not kedf._settled(math.nan, total, tol)


@pytest.mark.parametrize("relative", [0.0, 1e-12, 9e-9, 1.1e-8, 1e-6, 0.5])
def test_refinement_gate_is_settled_at_the_convergence_tolerance(
    grid: RadialGrid, relative: float
) -> None:
    # for finite sums, _gated raises exactly when _settled at 1e-8 is false
    pairs = ((1.0, 1.0 + relative), (1.0 + relative, 1.0), (1e-300, 1e-300 * (1.0 + relative)))
    for gauss, value in pairs:
        record = _record(grid, (1.0, gauss, 1.0), (1.0, value, 1.0))
        if kedf._settled(gauss, value, kedf._CONVERGENCE_TOL):
            assert kedf._gated(record, 1.0) == (1.0, value, 1.0)
        else:
            with pytest.raises(ConvergenceError, match="^T_W: grid refinement moved the result"):
                kedf._gated(record, 1.0)
        assert kedf._settled(gauss, value, kedf._CONVERGENCE_TOL) is (relative < 1e-8)


def test_only_kedf_reads_gauss_weights() -> None:
    # the Gauss sums serve only the estimate rule, _settled; no other module
    # forms an estimate of its own
    readers = []
    for path in sorted(Path(kedf.__file__).parent.glob("*.py")):
        if path.stem == "kedf":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "gauss_weights":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def _divisions_by_nine(path: Path) -> list[str]:
    """``path:line`` of every division by the constant 9 in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(divisor, ast.Constant) and divisor.value == 9:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_kedf_forms_t2() -> None:
    # T_2 = T_W / 9 has one owner, Energies.t2; no other module divides by 9
    package = Path(kedf.__file__).parent
    assert _divisions_by_nine(package / "kedf.py") != []
    others = [p for p in sorted(package.glob("*.py")) if p.stem != "kedf"]
    assert [hit for path in others for hit in _divisions_by_nine(path)] == []


def test_only_energies_declares_the_functional_fields() -> None:
    # a record of a density's functionals holds a kedf.Energies, as
    # asymptotics.SequencePoint does, rather than copies of its fields
    names = {"t_tf", "t_w", "t2", "t4"}
    owners = []
    for path in sorted(Path(kedf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
            if names & fields:
                owners.append(f"{path.stem}.{node.name}")
    assert owners == ["kedf.Energies"]


# --- the functional table ---------------------------------------------------


def test_functional_rows_follow_the_energies_fields() -> None:
    assert [row.name for row in kedf._FUNCTIONALS] == ["T_TF", "T_W", "T_4"]
    assert Energies._fields == ("t_tf", "t_w", "t4")


def test_tail_powers_match_each_integrands_decay() -> None:
    # rho = (8/pi) e^{-4 r}; each integrand is rho^c times a polynomial of
    # degree <= 2 in r, whose log-slope offsets c by about 2/(4 r) = 0.015 at
    # the outer nodes of the 35-bohr span; the powers are 2/3 or more apart
    rho = HydrogenicDensity(1)
    grid = grid_for(rho)
    assert grid.r_max == 35.0
    r = np.sort(grid.nodes)[-2:]
    values, deriv, deriv2 = rho.profile(r)
    _, w, q = kedf._ratios(r, values, deriv, deriv2)
    rho_slope = math.log(values[1] / values[0])
    for row in kedf._FUNCTIONALS:
        f = row.integrand(r, values, w, q)
        assert f.min() > 0.0
        assert math.log(f[1] / f[0]) / rho_slope == pytest.approx(row.power, abs=0.05), row.name


def test_energies_are_named_and_own_t2(bundled) -> None:
    field = atom_density(bundled["Ne"])
    grid = grid_for(field)
    profiled = kedf.profile_energies(grid, field.profile(grid.nodes), field.total_charge())
    for result in (energies(field), profiled):
        assert type(result) is Energies
        t_tf, t_w, t4 = result
        assert (t_tf, t_w, t4) == (result.t_tf, result.t_w, result.t4)
        assert result.t2 == t_w / 9.0


# --- shared density pass ----------------------------------------------------


class ProtocolOnly:
    """A density with only the two methods of ``kedf.Density``."""

    __slots__ = ("_field",)

    def __init__(self, field: STODensity) -> None:
        self._field = field

    def profile(self, r):
        return self._field.profile(r)

    def total_charge(self) -> float:
        return self._field.total_charge()


def test_functionals_need_only_the_density_protocol(bundled) -> None:
    field = atom_density(bundled["Ne"])
    rho = ProtocolOnly(field)
    g = make_grid(2000, 45.0)
    assert energies_on(rho, g) == energies_on(field, g)
    # the filled-shell density answers the same protocol and nothing of the
    # term-list format, whose expansion cancels catastrophically for it
    closed = HydrogenicDensity(20)
    for name in ("profile", "total_charge"):
        assert callable(getattr(closed, name))
    for name in ("terms", "tail_charge", "scaled", "merged", "derivative", "value"):
        assert not hasattr(closed, name)


def test_energies_evaluates_profile_once() -> None:
    field = orbital_density([[(1.0, 0, 1.0)], [(0.3, 1, 0.35)]], CountingField)
    grid = grid_for(field)
    energies_on(field, grid)
    assert field.profile_sizes == [grid.nodes.size] == [2079]


def _gauss_nodes(grid: RadialGrid) -> np.ndarray:
    """The leading nodes of ``grid``, those of its Gauss rule."""
    return grid.nodes[: grid.gauss_weights.size]


class DriftingField(STODensity):
    """Scales one profile component on nodes outside ``coarse_nodes``.

    Only the functionals that read that component move under the Kronrod check.
    """

    def __init__(self, *args, component: int, coarse_nodes: np.ndarray) -> None:
        super().__init__(*args)
        self.component = component
        self.coarse_nodes = coarse_nodes

    def profile(self, r):
        parts = list(super().profile(r))
        drift = np.where(np.isin(r, self.coarse_nodes), 1.0, 1.001)
        parts[self.component] = parts[self.component] * drift
        return tuple(parts)


@pytest.mark.parametrize("component,name", [(0, "T_TF"), (1, "T_W"), (2, "T_4")])
def test_energies_refinement_failure_names_functional(
    grid: RadialGrid, component: int, name: str
) -> None:
    field = orbital_density(
        [[(1.0, 0, 1.0)]], DriftingField, component=component, coarse_nodes=_gauss_nodes(grid)
    )
    with pytest.raises(
        ConvergenceError,
        match=f"^{name}: grid refinement moved the result from .+ to .+ "
        r"\(2000 points over 45\.0 bohr\)$",
    ):
        energies_on(field, grid)


@pytest.mark.parametrize("component,name", [(0, "T_TF"), (1, "T_W"), (2, "T_4")])
def test_energies_at_the_cap_fails_as_profile_energies_does(component: int, name: str) -> None:
    # the Gauss nodes of every size energies tries stay put and only the
    # Kronrod nodes drift, so 512 points miss the target and the 1008-point
    # grid raises the text profile_energies raises
    span = span_for(orbital_density([[(1.0, 0, 1.0)]]))
    gauss = np.concatenate([_gauss_nodes(make_grid(n, span)) for n in (512, 1008)])
    field = orbital_density(
        [[(1.0, 0, 1.0)]], DriftingField, component=component, coarse_nodes=gauss
    )
    with pytest.raises(ConvergenceError) as capped:
        energies_on(field, grid_for(field))
    with pytest.raises(
        ConvergenceError,
        match=f"^{name}: grid refinement moved the result from .+ to .+ "
        r"\(1008 points over 70\.0 bohr\)$",
    ) as sized:
        energies(field)
    assert str(sized.value) == str(capped.value)


def _gate_cases(bundled):
    closed = HydrogenicDensity(10)
    xe = atom_density(bundled["Xe"])
    # 0.83 bohr, half of grid_for's span at ten shells: the Kronrod
    # estimates quoted in test_coarse_grids_fail_the_kronrod_gate are its
    span = 640.0 / 770.0
    return [
        (closed, 128, span),
        (closed, 256, span),
        (xe, 128, 45.0),
    ]


def test_kronrod_estimate_tracks_doubled_grid(bundled) -> None:
    # on grids coarse enough to show quadrature error, |G16 - K33| is the
    # error a doubled grid would report, functional by functional
    for rho, n_points, span in _gate_cases(bundled):
        grid = make_grid(n_points, span)
        measured = kedf._measure(grid, rho.profile(grid.nodes))
        doubled = make_grid(2 * n_points, span)
        finer = kedf._measure(doubled, rho.profile(doubled.nodes)).gauss
        for value, check, fine in zip(measured.gauss, measured.values, finer):
            estimate, reference = abs(check - value), abs(fine - value)
            assert reference > 1e-14 * abs(value)  # well above roundoff
            assert reference / 2 <= estimate <= 2 * reference


def test_coarse_grids_fail_the_kronrod_gate(bundled) -> None:
    ladder_128, ladder_256, xe_128 = _gate_cases(bundled)
    # estimates of 7.6e-7 (T_TF, checked first) and 1.4e-7 (T_4)
    for (rho, n_points, span), name in ((ladder_128, "T_TF"), (xe_128, "T_4")):
        with pytest.raises(ConvergenceError, match=f"^{name}: grid refinement moved"):
            energies_on(rho, make_grid(n_points, span))
    # the largest estimate here is 8.3e-9, on T_4: it passes
    rho, n_points, span = ladder_256
    assert all(math.isfinite(t) for t in energies_on(rho, make_grid(n_points, span)))


# --- grid sizing -------------------------------------------------------------


class RecordedDensity:
    """Passes a density through and keeps the size of every profile call."""

    def __init__(self, rho) -> None:
        self.rho = rho
        self.slowest_primitive = rho.slowest_primitive
        self.sizes: list[int] = []

    def profile(self, r):
        self.sizes.append(r.size)
        return self.rho.profile(r)

    def total_charge(self) -> float:
        return self.rho.total_charge()


def test_table1_evaluates_each_atom_once_on_1056_nodes(monkeypatch, capsys) -> None:
    # every bundled atom meets the target on its first grid, 512 points
    # and their Kronrod extension; the cap grid would send 2079
    sizes = []
    kernel = _kernels.orbital_profile

    def counting(*args):
        sizes.append(args[-1].size)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "orbital_profile", counting)
    assert cli.main(["table1", "--format", "jsonl"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17
    assert sizes == [1056] * 17


def test_sized_energies_match_the_cap_grid(bundled) -> None:
    for symbol, record in bundled.items():
        field = atom_density(record)
        capped = energies_on(field, grid_for(field))
        assert energies(field) == pytest.approx(capped, rel=1e-15, abs=0.0), symbol


def test_energies_takes_the_cap_grid_when_512_points_miss_the_target() -> None:
    # 20 shells pass every gate at 512 points, with Kronrod estimates of
    # 3.1e-14 (T_TF), 8.8e-12 (T_W) and 2.1e-11 (T_4), but miss the 1e-14
    # target there; energies then returns the 1008-point values (estimates
    # up to 6.1e-16) as profile_energies gives them
    rho = RecordedDensity(HydrogenicDensity(20))
    assert all(math.isfinite(t) for t in energies_on(rho.rho, make_grid(512, span_for(rho))))
    values = energies(rho)
    assert rho.sizes == [1056, 2079]
    assert values == energies_on(rho.rho, make_grid(1008, span_for(rho)))


def test_energies_falls_back_to_the_cap_grid_bit_for_bit() -> None:
    # 40 shells fail even the 1e-8 gate at 512 points (1.2e-7); the
    # 1008-point cap is taken whatever its estimate (5.8e-13): energies
    # returns the grid_for values
    rho = RecordedDensity(HydrogenicDensity(40))
    with pytest.raises(ConvergenceError, match=r"grid refinement moved .+ \(512 points"):
        energies_on(rho.rho, make_grid(512, span_for(rho)))
    rho.sizes.clear()
    values = energies(rho)
    assert rho.sizes == [1056, 2079]
    assert values == energies_on(rho.rho, grid_for(rho))


class DippedDensity:
    """scale (e^{-2r}/pi - 1e-3 e^{-((r - 3)/0.1)^2}): negative around r = 3."""

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        e = np.exp(-2.0 * r) / math.pi
        u = (r - 3.0) / 0.1
        dip = 1e-3 * np.exp(-u * u)
        rho = e - dip
        deriv = -2.0 * e + 20.0 * u * dip
        deriv2 = 4.0 * e - (400.0 * u * u - 200.0) * dip
        return self.scale * rho, self.scale * deriv, self.scale * deriv2

    def total_charge(self) -> float:
        # that of e^{-2r}/pi alone; the density check fails before it is read
        return self.scale


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-20])
def test_negative_density_check_is_scale_free(grid: RadialGrid, scale: float) -> None:
    rho = DippedDensity(scale)
    assert rho.profile(grid.nodes)[0].min() < 0.0
    with pytest.raises(ValueError, match="negative"):
        energies_on(rho, grid)


# --- energy breakdown of a table1 row (correction.table1_row) ----------------


def test_breakdown_arithmetic(bundled) -> None:
    he = dataclasses.replace(bundled["He"], reference_hf_kinetic=100.0)
    # T_W = 9 T_2 exactly, so T_2 is 5.0
    b = table1_row(he, 12.0, Energies(t_tf=90.0, t_w=45.0, t4=1.0))
    assert b["corrected"] == 102.0
    assert b["err_tf_pct"] == -10.0
    assert b["err_tf_t2_pct"] == -5.0
    assert b["err_tf_t2_t4_pct"] == -4.0
    assert b["err_corrected_pct"] == pytest.approx(2.0, rel=1e-15)


def test_breakdown_signs_track_reference(bundled) -> None:
    he = dataclasses.replace(bundled["He"], reference_hf_kinetic=100.0)
    b = table1_row(he, 25.0, Energies(t_tf=80.0, t_w=18.0, t4=0.5))
    assert b["err_tf_pct"] < 0 < b["err_corrected_pct"]
    assert b["err_tf_pct"] < b["err_tf_t2_pct"] < b["err_tf_t2_t4_pct"]


def test_breakdown_validation(bundled) -> None:
    # a row's reference is its record's, and the record refuses one that is
    # not positive, so no breakdown divides by it
    for bad in (0.0, -5.0):
        with pytest.raises(ValueError):
            dataclasses.replace(bundled["He"], reference_hf_kinetic=bad)
