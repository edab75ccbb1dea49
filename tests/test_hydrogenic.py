"""Closed-shell model: shell counting, orbitals, and the assembled density."""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from densities import value
from tfshell import _kernels
from tfshell.hydrogenic import (
    MAGIC_NUMBERS,
    MAX_SHELLS,
    HydrogenicDensity,
    electron_count,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
    shell_count_for,
)
from tfshell.kedf import make_grid, span_for
from wavefunctions import radial_wavefunction


def test_electron_count_closed_form() -> None:
    for n in range(1, MAX_SHELLS + 1):
        assert electron_count(n) == sum(2 * k * k for k in range(1, n + 1))


def test_magic_numbers() -> None:
    assert MAGIC_NUMBERS == (2, 10, 28, 60, 110)
    assert MAGIC_NUMBERS == tuple(electron_count(n) for n in range(1, 6))


def test_shell_count_for_inverts_the_sequence() -> None:
    for n in range(1, 13):
        assert shell_count_for(electron_count(n)) == n
    for z in (1, 3, 9, 11, 27, 29, 59, 61, 109, 111):
        assert shell_count_for(z) is None


@pytest.mark.parametrize("bad", [0, -2, 2.5, "3", True])
def test_electron_count_rejects_bad_input(bad) -> None:
    with pytest.raises(ValueError):
        electron_count(bad)


def test_configuration_validation() -> None:
    with pytest.raises(ValueError):
        HydrogenicDensity(0)
    with pytest.raises(ValueError):
        HydrogenicDensity(1.5)
    density = HydrogenicDensity(3)
    assert density.z == 28.0
    assert density.total_charge() == 28


def test_model_kinetic_energy_exact() -> None:
    for n in range(1, 6):
        z = float(electron_count(n))
        assert model_kinetic_energy(n) == n * z**2


def test_continuous_energy_matches_at_closed_shells() -> None:
    for n in range(1, 13):
        z = float(electron_count(n))
        exact = n * z * z
        assert abs(model_kinetic_energy_continuous(z) - exact) <= 1e-9 * exact


def test_continuous_energy_domain() -> None:
    with pytest.raises(ValueError):
        model_kinetic_energy_continuous(0.01)
    assert model_kinetic_energy_continuous(0.04) > 0.0


# Span 260 holds every orbital of the z=1 ladder up to n=6 including the
# exponential tail; 3008 points matches the resolution used for the
# closed-form moment checks elsewhere.
@pytest.fixture(scope="module")
def unit_charge_grid():
    return make_grid(3008, 260.0)


def test_radial_normalization(unit_charge_grid) -> None:
    for n in range(1, 7):
        for l in range(n):
            vals = radial_wavefunction(1.0, n, l, unit_charge_grid.nodes)
            norm = unit_charge_grid.integrate(vals * vals * unit_charge_grid.nodes**2)
            assert abs(norm - 1.0) <= 1e-8, (n, l, norm)


def test_radial_orthogonality(unit_charge_grid) -> None:
    r2 = unit_charge_grid.nodes**2
    for l in range(3):
        fns = {
            n: radial_wavefunction(1.0, n, l, unit_charge_grid.nodes)
            for n in range(l + 1, 7)
        }
        for n1 in fns:
            for n2 in fns:
                if n1 < n2:
                    overlap = unit_charge_grid.integrate(fns[n1] * fns[n2] * r2)
                    assert abs(overlap) <= 1e-8, (n1, n2, l, overlap)


@pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (3, 1), (4, 0), (5, 2), (6, 1)])
def test_radial_node_count(n: int, l: int) -> None:
    r = np.linspace(1e-4, 100.0, 20001)
    vals = radial_wavefunction(1.0, n, l, r)
    vals = vals[np.abs(vals) > 1e-250]
    flips = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
    assert flips == n - l - 1


def _sympy_orbital_kinetic(z: int, n: int, l: int, grid) -> float:
    """Radial kinetic integral of one orbital from an independent construction.

    Builds R_{n,l} symbolically, differentiates exactly, and evaluates
    (1/2) integral of (R')^2 r^2 + l(l+1) R^2 by quadrature.
    """
    r = sp.symbols("r", positive=True)
    g = sp.Integer(2) * z / n
    norm = sp.sqrt(g**3 * sp.factorial(n - l - 1) / (2 * n * sp.factorial(n + l)))
    big_r = norm * sp.exp(-g * r / 2) * (g * r) ** l * sp.assoc_laguerre(n - l - 1, 2 * l + 1, g * r)
    d_big_r = sp.diff(big_r, r)
    integrand = sp.lambdify(r, (d_big_r**2 * r**2 + l * (l + 1) * big_r**2) / 2, "numpy")
    return grid.integrate(integrand(grid.nodes))


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_kinetic_sum_matches_closed_form(n_max: int) -> None:
    z = electron_count(n_max)
    grid = make_grid(3008, (6.0 * n_max**2 + 40.0) / z)
    total = 0.0
    for n in range(1, n_max + 1):
        for l in range(n):
            total += 2 * (2 * l + 1) * _sympy_orbital_kinetic(z, n, l, grid)
    exact = n_max * z * z
    assert abs(total - exact) <= 1e-7 * exact


def _exact_shell_terms(z: Fraction, n_max: int) -> list[tuple[float, int, float]]:
    """Exponential-polynomial terms (coef, power, exponent) of the filled shells.

    Built in exact rational arithmetic: the coefficients are accumulated as
    Fractions, merged per shell since all orbitals of a shell share the
    decay 2Z/n, and converted to float (with the 1/(4 pi) factor) last.
    """
    terms = []
    four_pi = 4.0 * math.pi
    for n in range(1, n_max + 1):
        g = 2 * z / n
        poly: dict[int, Fraction] = {}
        for l in range(n):
            k = n - l - 1
            # Laguerre coefficients of L_k^{2l+1}: a_i = (-1)^i C(k+a, k-i)/i!
            a = [
                Fraction((-1) ** i * math.comb(k + 2 * l + 1, k - i), math.factorial(i))
                for i in range(k + 1)
            ]
            # normalization^2 times occupation 2(2l+1)
            norm_sq = (
                g**3
                * Fraction(math.factorial(k), 2 * n * math.factorial(n + l))
                * 2
                * (2 * l + 1)
            )
            for j in range(2 * k + 1):
                b_j = sum(a[i] * a[j - i] for i in range(max(0, j - k), min(k, j) + 1))
                power = 2 * l + j
                poly[power] = poly.get(power, Fraction(0)) + norm_sq * b_j * g**power
        for power in sorted(poly):
            terms.append((float(poly[power]) / four_pi, power, float(g)))
    return terms


def _eval_terms(terms, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = np.zeros_like(r)
    drho = np.zeros_like(r)
    for coef, power, beta in terms:
        e = coef * np.exp(-beta * r)
        rho += e * r**power
        drho += e * (power * r ** (power - 1) if power else 0.0) - beta * e * r**power
    return rho, drho


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_terms_agree_with_kernel_evaluation(n_max: int) -> None:
    # the exact term list cancels catastrophically for deep ladders but is
    # dependable at small shell counts; check the kernel against it there
    density = HydrogenicDensity(n_max)
    r = np.geomspace(1e-3, 20.0 / n_max, 60)
    rho_t, drho_t = _eval_terms(_exact_shell_terms(Fraction(density.z), n_max), r)
    peak = float(np.max(np.abs(rho_t)))
    np.testing.assert_allclose(value(density, r), rho_t, rtol=1e-9, atol=1e-13 * peak)
    dpeak = float(np.max(np.abs(drho_t)))
    np.testing.assert_allclose(density.profile(r)[1], drho_t, rtol=1e-8, atol=1e-12 * dpeak)


def _three_shells_at_9_21(r: float) -> tuple[float, float, float]:
    """(rho, rho', rho'') at ``r`` of three shells filled around a charge of 9.21, not 14."""
    return tuple(float(row[0]) for row in _kernels.shell_profile(9.21, 3, np.array([r])))


@pytest.mark.parametrize(
    "cfg",
    [
        *((d.z, d.profile) for d in map(HydrogenicDensity, (1, 2, 4))),
        (9.21, _three_shells_at_9_21),
    ],
)
def test_nuclear_cusp(cfg: tuple) -> None:
    z, profile = cfg
    rho0 = profile(0.0)[0]
    drho0 = profile(0.0)[1]
    assert rho0 > 0.0
    assert -drho0 / (2.0 * rho0) == pytest.approx(z, rel=1e-12)


def test_total_charge_and_quadrature() -> None:
    density = HydrogenicDensity(4)
    assert density.total_charge() == 60.0
    grid = make_grid(3008, span_for(density))
    integral = 4.0 * math.pi * grid.integrate(value(density, grid.nodes) * grid.nodes**2)
    assert integral == pytest.approx(60.0, rel=1e-9)


def test_density_validation() -> None:
    assert MAX_SHELLS == 40
    with pytest.raises(ValueError):
        HydrogenicDensity(MAX_SHELLS + 1)
    density = HydrogenicDensity(2)
    with pytest.raises(ValueError):
        value(density, -0.5)
    with pytest.raises(ValueError):
        value(density, np.array([0.1, -0.1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_rejects_non_finite_radii(bad: float) -> None:
    # NaN used to give a density of 0.0
    density = HydrogenicDensity(2)
    for method in (density.profile, functools.partial(value, density)):
        with pytest.raises(ValueError, match="finite"):
            method(bad)
        with pytest.raises(ValueError, match="finite"):
            method(np.array([0.1, bad]))


def test_wavefunction_scalar_equals_array_element() -> None:
    # numpy's scalar and vectorised exp can round differently; a scalar
    # radius must get the same value as inside an array, bit for bit
    r = make_grid(2000, 45.0).nodes[::50]
    for z in (1.0, 3.0, 10.0):
        for n in range(1, 7):
            for l in range(n):
                row = radial_wavefunction(z, n, l, r)
                scalars = [radial_wavefunction(z, n, l, float(x)) for x in r]
                assert all(isinstance(v, float) for v in scalars)
                assert scalars == row.tolist(), (z, n, l)
    assert radial_wavefunction(1.0, 2, 1, np.float64(r[7])) == radial_wavefunction(1.0, 2, 1, r)[7]
    assert radial_wavefunction(1.0, 2, 1, np.array(r[7])) == radial_wavefunction(1.0, 2, 1, r)[7]


def test_wavefunction_validation() -> None:
    with pytest.raises(ValueError):
        radial_wavefunction(0.0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(1.0, 0, 0, 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(1.0, MAX_SHELLS + 1, 0, 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(1.0, 2, 2, 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(1.0, 2, -1, 1.0)
    with pytest.raises(ValueError):
        radial_wavefunction(1.0, 2, 1, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_wavefunction_rejects_non_finite_radii(bad: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        radial_wavefunction(1.0, 2, 1, bad)
    with pytest.raises(ValueError, match="finite"):
        radial_wavefunction(1.0, 3, 0, np.array([0.5, bad]))


def test_model_density_and_repr() -> None:
    density = HydrogenicDensity(3)
    assert (density.z, density.n_max) == (28.0, 3)
    assert "n_max=3" in repr(density)


def test_profile_consistency() -> None:
    density = HydrogenicDensity(3)
    r = np.geomspace(0.01, 8.0, 25)
    rho, drho, d2rho = density.profile(r)
    np.testing.assert_array_equal(rho, value(density, r))
    np.testing.assert_array_equal(drho, density.profile(r)[1])
    np.testing.assert_array_equal(d2rho, density.profile(r)[2])
    scalar = density.profile(1.0)
    assert all(isinstance(x, float) for x in scalar)
    assert scalar[0] == value(density, 1.0)


def test_derivatives_match_finite_differences() -> None:
    density = HydrogenicDensity(3)
    for r in (0.3, 1.1, 2.7):
        h = 1e-6 * max(r, 1.0)
        fd = (value(density, r + h) - value(density, r - h)) / (2.0 * h)
        assert density.profile(r)[1] == pytest.approx(fd, rel=1e-6)
        h = 1e-4 * max(r, 1.0)
        fd2 = (value(density, r + h) - 2.0 * value(density, r) + value(density, r - h)) / h**2
        assert density.profile(r)[2] == pytest.approx(fd2, rel=1e-5)


def test_density_is_zero_far_outside() -> None:
    # far out e^{-Z r / n} is 0 in float64 while the Laguerre recurrence
    # overflows; the product used to be nan
    assert value(HydrogenicDensity(40), 1e6) == 0.0
    assert value(HydrogenicDensity(5), 1e300) == 0.0
    r = np.geomspace(1.0, 1e300, 600)
    for n_max in (1, 5, 40):
        density = HydrogenicDensity(n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = density.profile(r)
        assert all(np.isfinite(row).all() for row in rows)
        # the nodes short of the cut keep the kernel's own values
        near = r * density.z / n_max < 745.0
        kernel = _kernels.shell_profile(density.z, n_max, r[near])
        for row, ref in zip(rows, kernel):
            assert np.array_equal(row[near], ref)
            assert not row[~near].any()
