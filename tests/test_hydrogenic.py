"""Closed-shell model: shell counting, orbitals, and the assembled density."""

import ast
import functools
import math
import sys
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from densities import value
from half_line import hydrogenic_terms
from pair_reference import term_profile
from tfshell import _kernels
from tfshell.hydrogenic import (
    MAGIC_NUMBERS,
    MAX_SHELLS,
    HydrogenicDensity,
    _int_text,
    _is_int,
    _read_int,
    _thirds,
    electron_count,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
    shell_count_for,
)
from tfshell.kedf import make_grid, span_for
from wavefunctions import radial_wavefunction, symbolic_orbital_kinetic


def test_electron_count_closed_form() -> None:
    for n in range(1, MAX_SHELLS + 1):
        assert electron_count(n) == sum(2 * k * k for k in range(1, n + 1))


def test_magic_numbers() -> None:
    assert MAGIC_NUMBERS == (2, 10, 28, 60, 110)
    assert MAGIC_NUMBERS == tuple(electron_count(n) for n in range(1, 6))


def test_shell_count_for_inverts_the_sequence() -> None:
    # every charge up to 30,000: 44 shells hold 58,740 electrons
    counts = {electron_count(n): n for n in range(1, 45)}
    for z in range(-5, 30_000):
        assert shell_count_for(z) == counts.get(z)


def test_shell_count_for_inverts_counts_past_the_index_range() -> None:
    # from 10**19 shells on, the shell count is past sys.maxsize
    for k in range(41):
        n = 10**k
        assert shell_count_for(electron_count(n)) == n
        assert shell_count_for(electron_count(n) + 1) is None


def test_shell_count_for_a_12900_digit_charge_is_quick() -> None:
    # one integer cube root: a search that bisects over Z takes seconds here
    n = 10**4299
    started = time.perf_counter()
    assert shell_count_for(electron_count(n)) == n
    assert shell_count_for(electron_count(n) + 1) is None
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("n_max", [3, 3_000_000])
def test_electron_count_of_a_numpy_integer_is_a_python_int(n_max: int) -> None:
    # a numpy shell count is counted in Python ints: no int64 result, and
    # no wrap past 2**63 (3e6 shells hold about 1.8e19 electrons)
    count = electron_count(np.int64(n_max))
    assert type(count) is int
    assert count == electron_count(n_max) == sum(2 * k * k for k in range(1, n_max + 1))


@pytest.mark.parametrize("bad", [0, -2, 2.5, "3", True])
def test_electron_count_rejects_bad_input(bad) -> None:
    with pytest.raises(ValueError):
        electron_count(bad)


@pytest.mark.parametrize(
    "value, text",
    [
        (10**100 - 1, "9" * 100),
        (-(10**100) + 1, "-" + "9" * 100),
        (10**100, "a 101-digit number"),
        (10**999 - 1, "a 999-digit number"),
        (10**999, "a 1000-digit number"),
        (-(10**5999), "a 6000-digit negative number"),
        (np.int64(7), repr(np.int64(7))),
        (2.5, "2.5"),
        ("3", "'3'"),
        ("x" * 100, repr("x" * 100)),
        ("x" * 101, "a 101-character token"),
        ("9" * 5000, "a 5000-character token"),
    ],
    ids=["100-digits", "negative-100-digits", "101-digits", "999-digits", "1000-digits",
         "negative-6000-digits", "numpy-int", "float", "str", "100-characters", "101-characters",
         "5000-characters"],
)
def test_int_text_names_a_long_integer_by_its_digit_count(value, text) -> None:
    # up to 100 digits a message prints repr(); past them, a digit count that
    # is exact on both sides of a power of ten, without calling str(); a str
    # of more than 100 characters is named by its length
    assert _int_text(value) == text


@pytest.mark.parametrize(
    "token, value",
    [
        ("54", 54),
        ("+054", 54),
        ("-054", -54),
        ("-0", 0),
        ("0" * 5000 + "7", 7),
        ("", None),
        ("+", None),
        ("+-5", None),
        ("5_4", None),
        (" 54", None),
        ("54.0", None),
        ("\u0665\u0664", None),
        ("\uff15\uff14", None),
        ("\u00b2", None),
    ],
)
def test_read_int_takes_ascii_digits_after_a_sign(token, value) -> None:
    assert _read_int(token) == value


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7")
def test_read_int_counts_the_digits_past_the_limit() -> None:
    # leading zeros do not count; one significant digit past the limit raises
    limit = sys.get_int_max_str_digits()
    assert _read_int("0" * 10 + "9" * limit) == 10**limit - 1
    with pytest.raises(ValueError, match=rf"^{limit + 1} significant digits, more than the {limit} read$"):
        _read_int("-" + "0" * 10 + "9" * (limit + 1))


@pytest.mark.parametrize(
    "value, expected",
    [(7, True), (-(10**400), True), (np.int64(7), True), (np.uint8(7), True), (True, False),
     (np.bool_(True), False), (7.0, False), ("7", False), (None, False)],
)
def test_is_int_takes_ints_and_numpy_integers_but_no_bool(value, expected) -> None:
    assert _is_int(value) is expected


def test_one_function_owns_each_input_rule() -> None:
    # the digit rule, the int-not-bool check and the integer-in-a-message rule
    # each live in one function of hydrogenic; atomic_data._is_finite_real
    # keeps its own bool test for real values
    owners = set()
    for path in sorted(Path(_kernels.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Constant) and "-character token" in str(node.value):
                    owners.add(f"{path.stem}.{func.name}")
                if not isinstance(node, ast.Call):
                    continue
                text = ast.unparse(node)
                if (text.endswith(".isdigit()") or "get_int_max_str_digits" in text
                        or (text.startswith("isinstance(") and text.endswith(", bool)"))):
                    owners.add(f"{path.stem}.{func.name}")
    assert owners == {
        "hydrogenic._read_int", "hydrogenic._is_int", "hydrogenic._int_text", "atomic_data._is_finite_real"
    }


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


@pytest.mark.parametrize("x", [float(electron_count(n)) for n in range(1, MAX_SHELLS + 1)]
                         + [1.5, 3.0, 12.0, 18.0, 3.0 * math.pi**2, 3.7e-5])
def test_thirds_round_as_mpmath(x: float) -> None:
    # every ladder charge (2..44280), every radicand of the package's
    # constants and a small x, bit for bit against a 40-digit power rounded
    # once; the float exponent k / 3 is 1 ulp off at 3^{-1/3}, 3^{-2/3} and
    # (3 pi^2)^{+-2/3}
    with mpmath.workdps(40):
        for k in range(-4, 9):
            assert _thirds(x, k) == float(mpmath.mpf(x) ** (mpmath.mpf(k) / 3)), k


def test_continuous_energy_domain() -> None:
    with pytest.raises(ValueError):
        model_kinetic_energy_continuous(0.01)
    assert model_kinetic_energy_continuous(0.04) > 0.0
    # a negative charge used to give a complex number, and NaN and inf came
    # back; so did inf where the energy overflows, from Z = 1.2134e132, and
    # where 2916 Z^2 - 3 does, above Z = 2.48e152
    assert model_kinetic_energy_continuous(1.2134e132) < math.inf
    for z in (-1.0, -0.04, math.nan, math.inf, -math.inf, 1.3e132, 2.49e152, 1e200, 1.7e308):
        with pytest.raises(ValueError, match=r"outside the domain of the closed form \(finite Z > 0"):
            model_kinetic_energy_continuous(z)


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


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_kinetic_sum_matches_closed_form(n_max: int) -> None:
    z = electron_count(n_max)
    grid = make_grid(3008, (6.0 * n_max**2 + 40.0) / z)
    total = 0.0
    for n in range(1, n_max + 1):
        for l in range(n):
            total += 2 * (2 * l + 1) * symbolic_orbital_kinetic(z, n, l, grid)
    exact = n_max * z * z
    assert abs(total - exact) <= 1e-7 * exact


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_terms_agree_with_kernel_evaluation(n_max: int) -> None:
    # the exact term list cancels catastrophically for deep ladders but is
    # dependable at small shell counts; check the kernel against it there
    density = HydrogenicDensity(n_max)
    r = np.geomspace(1e-3, 20.0 / n_max, 60)
    terms = [(float(c), int(p), float(b)) for c, p, b in hydrogenic_terms(n_max)]
    rho_t, drho_t, _ = term_profile(terms, r)
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
    assert [x.shape for x in scalar] == [()] * 3
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
            assert not np.signbit(row[~near]).any()
