"""Quadrature engine and kinetic-energy functionals against closed forms."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from tfshell import kedf
from tfshell.atomic_data import atom_density
from tfshell.fields import RadialField
from tfshell.hydrogenic import HydrogenicDensity, ShellConfiguration
from tfshell.kedf import (
    FOURTH_ORDER_CONSTANT,
    TF_CONSTANT,
    ConvergenceError,
    EnergyBreakdown,
    GridError,
    RadialGrid,
    energies,
    fourth_order_energy,
    make_grid,
    tf_energy,
    weizsacker_energy,
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
    return make_grid("expmap", 2000, (0.0, 45.0))


def test_constants() -> None:
    assert TF_CONSTANT == pytest.approx(0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0), rel=1e-15)
    assert FOURTH_ORDER_CONSTANT == pytest.approx(
        (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0, rel=1e-15
    )


# span scales with 1/beta: the slowest integrand decay is beta/3, and the
# closed forms assume the tail is fully captured
@pytest.mark.parametrize("c,beta,span", [(16.0 / math.pi, 4.0, 45.0), (0.37, 0.8, 150.0), (5.1, 2.6, 45.0)])
def test_single_exponential_closed_forms(c: float, beta: float, span: float) -> None:
    grid = make_grid("expmap", 2000, (0.0, span))
    field = RadialField([(c, 0, beta)])
    assert tf_energy(field, grid) == pytest.approx(tf_closed(c, beta), rel=1e-10)
    t_w, t2 = weizsacker_energy(field, grid)
    assert t_w == pytest.approx(tw_closed(c, beta), rel=1e-10)
    assert t2 == t_w / 9.0
    assert fourth_order_energy(field, grid) == pytest.approx(t4_closed(c, beta), rel=1e-10)


def test_t4_closed_form_simplification() -> None:
    assert t4_closed(2.0, 1.5) == pytest.approx(
        30.0 * math.pi * FOURTH_ORDER_CONSTANT * 2.0 ** (1.0 / 3.0) * 1.5, rel=1e-14
    )


def test_one_shell_density_weizsacker_is_exact(grid: RadialGrid) -> None:
    # a pure 1s density is a single orbital; its gradient term recovers the
    # full kinetic energy n_max * Z^2 = 4
    density = HydrogenicDensity(ShellConfiguration.closed_shell(1))
    t_w, _ = weizsacker_energy(density, grid)
    assert t_w == pytest.approx(4.0, rel=1e-10)
    assert tf_energy(density, grid) == pytest.approx(tf_closed(16.0 / math.pi, 4.0), rel=1e-10)


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
    grid = make_grid("expmap", 2000, (0.0, 60.0))
    field = RadialField([(c, 0, beta)])
    assert fourth_order_energy(field, grid) == pytest.approx(reference, rel=2e-9)


def test_t4_regular_form_matches_standard_form_two_shells() -> None:
    # the adaptive quadrature is the limiting party here (the grid value is
    # refinement-stable to far better)
    density = HydrogenicDensity(ShellConfiguration.closed_shell(2))
    span = density.suggested_r_max()
    fine = make_grid("expmap", 2000, (0.0, span))
    reference = _standard_form_t4(density.profile, (1e-9, span))
    assert fourth_order_energy(density, fine) == pytest.approx(reference, rel=1e-7)


@pytest.mark.parametrize("lam", [0.5, 1.3, 2.7])
def test_dilation_scales_every_functional_quadratically(lam: float) -> None:
    field = RadialField([(2.0, 0, 1.5), (0.7, 2, 0.9)])
    base = make_grid("expmap", 2000, (0.0, 60.0))
    scaled_grid = make_grid("expmap", 2000, (0.0, 60.0 / lam))
    scaled = field.scaled(lam)
    assert tf_energy(scaled, scaled_grid) == pytest.approx(
        lam**2 * tf_energy(field, base), rel=1e-8
    )
    assert weizsacker_energy(scaled, scaled_grid)[0] == pytest.approx(
        lam**2 * weizsacker_energy(field, base)[0], rel=1e-8
    )
    assert fourth_order_energy(scaled, scaled_grid) == pytest.approx(
        lam**2 * fourth_order_energy(field, base), rel=1e-8
    )


# --- grid construction and validation --------------------------------------


def test_grid_minimum_resolution() -> None:
    with pytest.raises(GridError, match="self-test"):
        make_grid("expmap", 48, (0.0, 45.0))
    grid = make_grid("expmap", 64, (0.0, 45.0))
    assert grid.n_points == 64


def test_short_span_self_test_fails_on_every_call() -> None:
    # the surrogate's self-test value is memoized, its gate is not
    for _ in range(2):
        with pytest.raises(GridError, match="self-test"):
            make_grid("expmap", 48, (0.0, 5.0))


def test_gauss_legendre_literals_match_leggauss() -> None:
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(kedf._GL_NODES, nodes)
    assert np.array_equal(kedf._GL_WEIGHTS, weights)
    # bit for bit, signed zeros included
    assert kedf._GL_NODES.tobytes() == nodes.tobytes()
    assert kedf._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_grids_do_not_import_numpy_polynomial() -> None:
    code = (
        "import sys\n"
        "import tfshell.cli\n"
        "from tfshell.kedf import make_grid\n"
        "make_grid()\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "chebyshev"},
        {"n_points": 15},
        {"n_points": 64.5},
        {"r_span": (-1.0, 10.0)},
        {"r_span": (5.0, 5.0)},
        {"r_span": (0.0, math.inf)},
        {"alpha": 0.0},
        {"alpha": 60.0},
    ],
)
def test_grid_rejects_bad_parameters(kwargs) -> None:
    base = {"kind": "expmap", "n_points": 2000, "r_span": (0.0, 45.0)}
    alpha = kwargs.pop("alpha", None)
    base.update(kwargs)
    with pytest.raises(GridError):
        if alpha is None:
            make_grid(base["kind"], base["n_points"], base["r_span"])
        else:
            make_grid(base["kind"], base["n_points"], base["r_span"], alpha=alpha)


def test_grid_geometry(grid: RadialGrid) -> None:
    assert len(grid.nodes) % 16 == 0
    assert len(grid.nodes) >= grid.n_points
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > 0.0
    assert grid.nodes[-1] < 45.0
    assert np.all(grid.weights > 0)
    # scheme self-test, replicated
    probe = grid.integrate(grid.nodes**2 * np.exp(-grid.nodes))
    assert abs(probe - 2.0) <= 1e-9


def test_grid_refined(grid: RadialGrid) -> None:
    finer = grid.refined(2)
    assert finer.n_points == 2 * grid.n_points
    assert (finer.r_min, finer.r_max, finer.scheme, finer.alpha) == (
        grid.r_min,
        grid.r_max,
        grid.scheme,
        grid.alpha,
    )
    # built once per grid and factor
    assert grid.refined(2) is finer
    assert grid.refined(3).n_points == 3 * grid.n_points


def test_integrate_is_weighted_dot(grid: RadialGrid) -> None:
    values = np.sin(grid.nodes)
    assert grid.integrate(values) == float(np.dot(grid.weights, values))


# --- failure modes ----------------------------------------------------------


class CountingField(RadialField):
    """Counts value() calls to observe the refinement pass."""

    def __init__(self, terms) -> None:
        super().__init__(terms)
        self.value_calls = 0

    def value(self, r):
        self.value_calls += 1
        return super().value(r)


def test_verify_flag_controls_refinement(grid: RadialGrid) -> None:
    field = CountingField([(1.0, 0, 2.0)])
    tf_energy(field, grid, verify=False)
    assert field.value_calls == 1
    field.value_calls = 0
    tf_energy(field, grid, verify=True)
    assert field.value_calls == 2


def test_negative_density_rejected(grid: RadialGrid) -> None:
    field = RadialField([(-1.0, 0, 1.0)])
    with pytest.raises(ValueError, match="negative"):
        tf_energy(field, grid)
    with pytest.raises(ValueError, match="negative"):
        weizsacker_energy(field, grid)
    with pytest.raises(ValueError, match="negative"):
        energies(field, grid)


def test_vanishing_density_mass_below_cutoff(grid: RadialGrid) -> None:
    # all mass sits within a few orders of the vacuum cutoff, so the masked
    # region carries a non-negligible share of the charge
    field = RadialField([(1e-270, 0, 1.0)])
    with pytest.raises(ConvergenceError, match="cutoff"):
        weizsacker_energy(field, grid)
    with pytest.raises(ConvergenceError, match="cutoff"):
        fourth_order_energy(field, grid)
    with pytest.raises(ConvergenceError, match="cutoff"):
        energies(field, grid)


# --- shared density pass ----------------------------------------------------


def _shared_pass_cases(bundled):
    closed = HydrogenicDensity(ShellConfiguration.closed_shell(10))
    return [
        (atom_density(bundled["Ne"]), make_grid("expmap", 2000, (0.0, 45.0))),
        (closed, make_grid("expmap", 3008, (0.0, closed.suggested_r_max()))),
    ]


@pytest.mark.parametrize("verify", [True, False])
def test_energies_equal_single_functionals_bitwise(bundled, verify: bool) -> None:
    for rho, g in _shared_pass_cases(bundled):
        t_tf, t_w, t4 = energies(rho, g, verify=verify)
        assert t_tf == tf_energy(rho, g, verify=verify)
        assert (t_w, t_w / 9.0) == weizsacker_energy(rho, g, verify=verify)
        assert t4 == fourth_order_energy(rho, g, verify=verify)


class ProfileCountingField(RadialField):
    """Records the size of every profile() call."""

    def __init__(self, terms) -> None:
        super().__init__(terms)
        self.profile_sizes: list[int] = []

    def profile(self, r):
        self.profile_sizes.append(np.size(r))
        return super().profile(r)


@pytest.mark.parametrize("verify", [True, False])
def test_energies_evaluates_profile_once(grid: RadialGrid, verify: bool) -> None:
    field = ProfileCountingField([(1.0, 0, 2.0), (0.3, 1, 0.7)])
    energies(field, grid, verify=verify)
    expected = grid.nodes.size + (grid.refined(2).nodes.size if verify else 0)
    assert field.profile_sizes == [expected]


class DriftingField(RadialField):
    """Scales one profile component on nodes outside ``coarse_nodes``.

    Only the functionals that read that component move under refinement.
    """

    def __init__(self, terms, component: int, coarse_nodes: np.ndarray) -> None:
        super().__init__(terms)
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
    field = DriftingField([(1.0, 0, 2.0)], component, grid.nodes)
    with pytest.raises(ConvergenceError, match=f"^{name}: grid refinement moved"):
        energies(field, grid)
    # the unverified pass never sees the refined grid
    energies(field, grid, verify=False)


# --- breakdown container ----------------------------------------------------


def test_breakdown_arithmetic() -> None:
    b = EnergyBreakdown.from_components(t_tf=90.0, t2=5.0, t4=1.0, delta_t=12.0, reference=100.0)
    assert b.corrected == 102.0
    assert b.err_tf == -0.1
    assert b.err_second == -0.05
    assert b.err_fourth == -0.04
    assert b.err_corrected == pytest.approx(0.02, rel=1e-15)


def test_breakdown_signs_track_reference() -> None:
    b = EnergyBreakdown.from_components(t_tf=80.0, t2=2.0, t4=0.5, delta_t=25.0, reference=100.0)
    assert b.err_tf < 0 < b.err_corrected
    assert b.err_tf < b.err_second < b.err_fourth


def test_breakdown_validation() -> None:
    with pytest.raises(ValueError):
        EnergyBreakdown.from_components(1.0, 0.1, 0.01, 0.2, 0.0)
    with pytest.raises(ValueError):
        EnergyBreakdown.from_components(1.0, 0.1, 0.01, 0.2, -5.0)
    b = EnergyBreakdown.from_components(1.0, 0.1, 0.01, 0.2, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.t_tf = 3.0
