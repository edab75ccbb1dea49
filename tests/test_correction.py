"""Shell-correction deficits: exact nodes, the cubic, and its two modes."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from densities import value
from tfshell.correction import (
    INTERPOLATION_MAX_Z,
    PUBLISHED_COEFFICIENTS,
    cubic_coefficients,
    delta_t,
    delta_t_exact,
    delta_t_interpolated,
)
from tfshell.atomic_data import load_bundled
from tfshell.cli import _atom_record
from tfshell.hydrogenic import HydrogenicDensity
from tfshell.kedf import TF_CONSTANT, span_for

# deficits at the first five closed shells, frozen from independent runs of
# the quadrature pipeline at doubled resolution
FROZEN_DELTAS = {
    1: 0.3283122413051305,
    2: 11.144902444802682,
    3: 97.40614682728892,
    4: 472.1407814505819,
    5: 1638.5766953117,
}


@pytest.mark.parametrize("n_max", sorted(FROZEN_DELTAS))
def test_node_deltas_frozen(n_max: int) -> None:
    assert delta_t_exact(n_max) == pytest.approx(FROZEN_DELTAS[n_max], rel=1e-9)


def test_node1_against_closed_form() -> None:
    # one filled shell: T = 4 and T_TF has a closed form for the pure
    # exponential density c e^{-beta r}, c = 16/pi, beta = 4
    c, beta = 16.0 / math.pi, 4.0
    t_tf = 4.0 * math.pi * TF_CONSTANT * c ** (5.0 / 3.0) * 2.0 / (5.0 * beta / 3.0) ** 3
    assert delta_t_exact(1) == pytest.approx(4.0 - t_tf, rel=1e-10)


@pytest.mark.parametrize("n_max", [2, 3])
def test_node_deltas_against_adaptive_quadrature(n_max: int) -> None:
    density = HydrogenicDensity(n_max)
    z = density.z

    def integrand(r: float) -> float:
        return 4.0 * math.pi * r * r * TF_CONSTANT * value(density, r) ** (5.0 / 3.0)

    t_tf, _ = quad(integrand, 0.0, span_for(density), limit=300, epsabs=1e-12, epsrel=1e-12)
    assert delta_t_exact(n_max) == pytest.approx(n_max * z * z - t_tf, rel=1e-8)


def _cubic(coefficients, z: float) -> float:
    c0, c1, c2, c3 = coefficients
    return c0 + z * (c1 + z * (c2 + z * c3))


def test_refit_rounds_to_published_coefficients() -> None:
    coefficients = cubic_coefficients("refit")
    assert tuple(round(c, 5) for c in coefficients) == PUBLISHED_COEFFICIENTS


def test_published_cubic_at_54() -> None:
    assert cubic_coefficients("published") == PUBLISHED_COEFFICIENTS
    assert delta_t_interpolated(54, "published") == 378.91949999999997


def test_refit_table_nodes() -> None:
    # interpolation property: the refit cubic passes through the exact
    # deficits at the first four filled-shell counts
    for n_max, z in enumerate((2, 10, 28, 60), start=1):
        assert delta_t_interpolated(z, "refit") == pytest.approx(delta_t_exact(n_max), rel=1e-9)
        assert delta_t_interpolated(z, "refit") == _cubic(cubic_coefficients("refit"), float(z))


def test_published_table_is_self_consistent() -> None:
    # the interpolant evaluates the literature cubic itself
    for z in (1, 2, 10, 28, 54, 60, 110):
        assert delta_t_interpolated(z, "published") == _cubic(PUBLISHED_COEFFICIENTS, float(z))


@pytest.mark.parametrize("mode", ["refit", "published"])
def test_deficit_positive_and_rising(mode: str) -> None:
    values = np.array([delta_t_interpolated(z, mode) for z in range(1, INTERPOLATION_MAX_Z + 1)])
    assert np.all(values > 0.0)
    # strictly increasing across the interpolation window
    window = values[1:60]
    assert np.all(np.diff(window) > 0.0)


def _corrected(t_tf: float, z: int, mode: str = "refit") -> float:
    """The corrected energy T_TF + delta_T as the atom table forms it."""
    return _atom_record(load_bundled()["He"], t_tf, 0.0, 0.0, delta_t(z, mode))["corrected"]


def test_corrected_energy_uses_exact_nodes() -> None:
    assert _corrected(100.0, 10) == 100.0 + delta_t_exact(2)
    # shell-filling numbers take the exact node in either mode
    assert _corrected(0.0, 10, "published") == delta_t_exact(2)
    assert _corrected(0.0, 110, "refit") == delta_t_exact(5)


def test_delta_t_takes_node_or_cubic() -> None:
    assert delta_t(60, "refit") == delta_t_exact(4)
    assert delta_t(110, "published") == delta_t_exact(5)
    assert delta_t(54, "published") == delta_t_interpolated(54, "published")
    assert delta_t(17, "refit") == delta_t_interpolated(17, "refit")
    with pytest.raises(ValueError):
        delta_t(7.5, "refit")


def test_corrected_energy_interpolates_between_nodes() -> None:
    assert _corrected(0.0, 54, "refit") == delta_t_interpolated(54, "refit")
    assert _corrected(0.0, 54, "published") == 378.91949999999997
    assert _corrected(-5.0, 17) == pytest.approx(
        delta_t_interpolated(17, "refit") - 5.0, rel=1e-15
    )


def test_validation_errors() -> None:
    with pytest.raises(ValueError):
        delta_t_exact(0)
    with pytest.raises(ValueError):
        delta_t_exact(2.5)
    with pytest.raises(ValueError):
        delta_t_exact(True)
    with pytest.raises(ValueError):
        delta_t_interpolated(0, "refit")
    with pytest.raises(ValueError):
        delta_t_interpolated(INTERPOLATION_MAX_Z + 1, "refit")
    with pytest.raises(ValueError):
        delta_t_interpolated(7.5, "refit")
    with pytest.raises(ValueError, match="unknown interpolation mode 'cubic'"):
        delta_t_interpolated(5, "cubic")
    with pytest.raises(ValueError, match="unknown interpolation mode 'cubic'"):
        cubic_coefficients("cubic")
    with pytest.raises(ValueError):
        delta_t(0, "refit")
    # the texts the command line prints
    with pytest.raises(ValueError, match=r"^Z=111 is not a filled-shell count and lies beyond"):
        delta_t(111, "published")
    with pytest.raises(ValueError, match=r"^Z=47642 fills 41 shells; .* for 1\.\.40 shells$"):
        delta_t(47642, "refit")
