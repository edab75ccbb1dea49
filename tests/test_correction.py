"""Shell-correction deficits: exact nodes, the cubic, and its two modes."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from densities import value
from source_constants import constant_hits
from tfshell import correction
from tfshell.asymptotics import model_energy_sequence
from tfshell.correction import (
    INTERPOLATION_MAX_Z,
    INTERPOLATION_MODES,
    delta_t,
    delta_t_exact,
    table1_row,
)
from tfshell.atomic_data import load_bundled
from tfshell.hydrogenic import MAGIC_NUMBERS, HydrogenicDensity
from tfshell.kedf import TF_CONSTANT, Energies, span_for

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
    coefficients = INTERPOLATION_MODES["refit"]
    assert tuple(round(c, 5) for c in coefficients) == INTERPOLATION_MODES["published"]


def test_published_cubic_at_54() -> None:
    assert delta_t(54, "published") == (378.91949999999997, None)


def test_refit_table_nodes() -> None:
    # interpolation property: the refit cubic passes through the exact
    # deficits at the first four filled-shell counts
    for n_max, z in enumerate((2, 10, 28, 60), start=1):
        cubic = _cubic(INTERPOLATION_MODES["refit"], float(z))
        assert cubic == pytest.approx(FROZEN_DELTAS[n_max], rel=1e-9)


def test_refit_literals_match_a_fresh_refit() -> None:
    # the oracle of the refit constants: solve the Vandermonde system on
    # the four exact node deficits as the ladder gives them now.  A 1e-15
    # relative change of the deficits moves the solution by about 3e-13
    nodes = model_energy_sequence((1, 2, 3, 4))
    zs = np.array([point.z for point in nodes])
    deltas = [point.t_exact - point.t.t_tf for point in nodes]
    refit = np.linalg.solve(np.vander(zs, 4, increasing=True), deltas)
    literals = INTERPOLATION_MODES["refit"]
    assert all(type(c) is float for c in literals)
    assert literals == pytest.approx(tuple(refit), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("mode", ["refit", "published"])
def test_delta_t_is_node_or_cubic_everywhere(mode: str) -> None:
    # the exact deficit at each filled-shell count with its shell count,
    # the cubic itself with no node elsewhere
    for z in range(1, INTERPOLATION_MAX_Z + 1):
        if z in MAGIC_NUMBERS:
            n_max = MAGIC_NUMBERS.index(z) + 1
            assert delta_t(z, mode) == (delta_t_exact(n_max), n_max)
        else:
            assert delta_t(z, mode) == (_cubic(INTERPOLATION_MODES[mode], float(z)), None)


@pytest.mark.parametrize("mode", ["refit", "published"])
def test_deficit_positive_and_rising(mode: str) -> None:
    coefficients = INTERPOLATION_MODES[mode]
    values = np.array([_cubic(coefficients, float(z)) for z in range(1, INTERPOLATION_MAX_Z + 1)])
    assert np.all(values > 0.0)
    # strictly increasing across the interpolation window
    window = values[1:60]
    assert np.all(np.diff(window) > 0.0)


def _corrected(t_tf: float, z: int, mode: str = "refit") -> float:
    """The corrected energy T_TF + delta_T as the atom table forms it."""
    delta, _ = delta_t(z, mode)
    return table1_row(load_bundled()["He"], delta, Energies(t_tf, 0.0, 0.0))["corrected"]


def test_corrected_energy_uses_exact_nodes() -> None:
    assert _corrected(100.0, 10) == 100.0 + delta_t_exact(2)
    # shell-filling numbers take the exact node in either mode
    assert _corrected(0.0, 10, "published") == delta_t_exact(2)
    assert _corrected(0.0, 110, "refit") == delta_t_exact(5)


def test_delta_t_takes_node_or_cubic() -> None:
    assert delta_t(60, "refit") == (delta_t_exact(4), 4)
    assert delta_t(110, "published") == (delta_t_exact(5), 5)
    assert delta_t(54, "published") == (_cubic(INTERPOLATION_MODES["published"], 54.0), None)
    assert delta_t(17, "refit") == (_cubic(INTERPOLATION_MODES["refit"], 17.0), None)
    with pytest.raises(ValueError):
        delta_t(7.5, "refit")


def test_corrected_energy_interpolates_between_nodes() -> None:
    assert _corrected(0.0, 54, "refit") == _cubic(INTERPOLATION_MODES["refit"], 54.0)
    assert _corrected(0.0, 54, "published") == 378.91949999999997
    assert _corrected(-5.0, 17) == pytest.approx(
        _cubic(INTERPOLATION_MODES["refit"], 17.0) - 5.0, rel=1e-15
    )


def test_validation_errors() -> None:
    with pytest.raises(ValueError):
        delta_t_exact(0)
    with pytest.raises(ValueError):
        delta_t_exact(2.5)
    with pytest.raises(ValueError):
        delta_t_exact(True)
    with pytest.raises(ValueError):
        delta_t(0, "refit")
    with pytest.raises(ValueError):
        delta_t(INTERPOLATION_MAX_Z + 1, "refit")
    with pytest.raises(ValueError):
        delta_t(7.5, "refit")
    with pytest.raises(
        ValueError, match=r"^unknown interpolation mode 'cubic'; use 'published' or 'refit'$"
    ):
        delta_t(5, "cubic")
    # the texts the command line prints
    with pytest.raises(ValueError, match=r"^Z=111 is not a filled-shell count and lies beyond"):
        delta_t(111, "published")
    with pytest.raises(ValueError, match=r"^Z=47642 fills 41 shells; .* for 1\.\.40 shells$"):
        delta_t(47642, "refit")


def test_bool_is_no_atomic_number() -> None:
    # as hydrogenic.electron_count refuses a bool for a shell count
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"^atomic number must be an integer, got {flag}$"):
            delta_t(flag, "published")


@pytest.mark.parametrize("z", [2, 10, 11, 110])
def test_unknown_mode_fails_at_every_z(z: int, shell_passes) -> None:
    # a filled-shell Z takes the exact node, yet the mode is still judged,
    # before any ladder pass
    with pytest.raises(ValueError, match="^unknown interpolation mode 'cubic'"):
        delta_t(z, "cubic")
    assert shell_passes == []


def test_filled_shell_z_makes_one_pass_to_its_own_node(shell_passes) -> None:
    # an exact node is read off its own ladder point and nothing more
    delta_t(10, "refit")
    assert [n_max for _, n_max in shell_passes] == [2]


@pytest.mark.parametrize("mode", ["refit", "published"])
def test_cubic_z_makes_no_ladder_pass(mode: str, shell_passes) -> None:
    # both modes are constants, so a Z between the nodes costs no quadrature
    delta_t(54, mode)
    assert shell_passes == []


@pytest.mark.parametrize("z", [0, -3])
def test_z_under_the_range_lies_below_it(z: int) -> None:
    with pytest.raises(
        ValueError,
        match=rf"^Z={z} is not a filled-shell count and lies below the interpolation "
        r"range \(1\.\.110\)$",
    ):
        delta_t(z, "refit")


# an error column's key of the table1 row, or the opening words of a model
# row's delta_kind
_RECORD_WORDING = re.compile(r"err_\w+_pct|exact at |interpolated, not exact")


def test_only_correction_words_the_table1_and_model_rows() -> None:
    # Table 1's error convention and the deficit's wording have one owner;
    # the command line renders the keys and texts the records carry
    package = Path(correction.__file__).parent

    def match(text: str) -> bool:
        return _RECORD_WORDING.search(text) is not None

    assert constant_hits(package / "correction.py", match) != []
    others = [p for p in sorted(package.glob("*.py")) if p.stem != "correction"]
    assert [hit for path in others for hit in constant_hits(path, match)] == []
