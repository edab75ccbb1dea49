"""Large-Z series, extrapolation machinery, and the scaled-density limit."""

import math
import os
import threading
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from tfshell import _kernels, asymptotics
from tfshell.asymptotics import (
    TARGETS,
    TURNING_POINT,
    ExtrapolationError,
    ScaledDensity,
    ZExpansion,
    figure_density_rows,
    figure_error_rows,
    model_energy_sequence,
    model_expansion,
    oscillation_amplitude,
    richardson_extrapolate,
    scaled_model_density,
    shell_oscillation_maxima,
    tf_limit_density,
    _ladder_point,
    _split_by_cost,
)
from tfshell.hydrogenic import (
    ShellConfiguration,
    electron_count,
    model_density,
    model_kinetic_energy_continuous,
)
from tfshell.kedf import ConvergenceError, make_grid

SURD_LEADING = (3.0 / 2.0) ** (1.0 / 3.0)

# printed six-figure values of the non-zero series coefficients
PRINTED_COEFFICIENTS = {
    Fraction(7, 3): 1.144714,
    Fraction(2, 1): -0.5,
    Fraction(5, 3): 0.0727984,
    Fraction(1, 3): -9.81408e-5,
    Fraction(-1, 3): 6.241287e-6,
}
VANISHING_POWERS = (Fraction(4, 3), Fraction(1, 1), Fraction(2, 3), Fraction(0, 1))


# --- the closed-form expansion ---------------------------------------------


def test_printed_coefficient_values() -> None:
    exp = model_expansion(5)
    for power, printed in PRINTED_COEFFICIENTS.items():
        assert exp.coefficient(power) == pytest.approx(printed, abs=1e-6)


def test_vanishing_powers_are_explicit_zeros() -> None:
    exp = model_expansion(5)
    for power in VANISHING_POWERS:
        assert exp.coefficient(power) == 0.0


def test_power_list_descends_in_thirds() -> None:
    exp = model_expansion(5)
    expected = tuple(Fraction(7, 3) - Fraction(k, 3) for k in range(9))
    assert exp.powers == expected
    assert exp.order == 5


@pytest.mark.parametrize("order,n_terms", [(1, 1), (2, 2), (3, 3), (4, 7), (5, 9)])
def test_truncation_orders(order: int, n_terms: int) -> None:
    exp = model_expansion(order)
    assert len(exp.terms) == n_terms
    assert sum(1 for _, c in exp.terms if c != 0.0) == order


def test_expansion_validation() -> None:
    for bad in (0, 6, 2.5):
        with pytest.raises(ValueError):
            model_expansion(bad)
    with pytest.raises(KeyError):
        model_expansion(5).coefficient(3)
    with pytest.raises(ValueError):
        ZExpansion(terms=((Fraction(1), 1.0), (Fraction(2), 2.0)), order=2)


def test_evaluate_sums_terms() -> None:
    exp = model_expansion(3)
    z = 28.0
    manual = sum(c * z ** float(p) for p, c in exp.terms)
    assert exp.evaluate(z) == pytest.approx(manual, rel=1e-15)


def test_series_reversion_recovers_every_coefficient() -> None:
    """Independent derivation of the full coefficient set.

    Inverting Z = n(n+1)(2n+1)/3 as a series n(w) in w = Z^{1/3} and
    substituting into T = n Z^2 = n w^6 must reproduce each surd exactly,
    including the identically vanishing powers.
    """
    w = sp.symbols("w", positive=True)
    bs = list(sp.symbols("b0:9"))
    n = sum(b * w ** (1 - k) for k, b in enumerate(bs))
    residual = sp.expand(2 * n**3 + 3 * n**2 + n - 3 * w**3)
    sol: dict = {}
    for k, b in enumerate(bs):
        coeff_eq = residual.coeff(w, 3 - k).subs(sol)
        if k == 0:
            roots = sp.solve(sp.Eq(coeff_eq, 0), b)
            root = [r for r in roots if r.is_real and r.is_positive][0]
        else:
            root = sp.solve(sp.Eq(coeff_eq, 0), b)[0]
        sol[b] = sp.simplify(root)

    exact = {
        Fraction(7, 3): sp.root(sp.Rational(3, 2), 3),
        Fraction(2, 1): sp.Rational(-1, 2),
        Fraction(5, 3): 1 / (6 * sp.root(12, 3)),
        Fraction(4, 3): sp.Integer(0),
        Fraction(1, 1): sp.Integer(0),
        Fraction(2, 3): sp.Integer(0),
        Fraction(1, 3): -1 / (3888 * sp.root(18, 3)),
        Fraction(0, 1): sp.Integer(0),
        Fraction(-1, 3): 1 / (69984 * sp.root(12, 3)),
    }
    # T = n w^6, so the coefficient of Z^{(7-k)/3} is b_k itself
    for k, b in enumerate(bs):
        assert sp.simplify(sol[b] - exact[Fraction(7 - k, 3)]) == 0

    exp = model_expansion(5)
    for p, c in exp.terms:
        if exact[p] == 0:
            assert c == 0.0
        else:
            assert c == pytest.approx(float(exact[p]), rel=1e-15)


# --- Richardson extrapolation ----------------------------------------------


def _ladder_zs(lo: int = 2, hi: int = 12) -> list[float]:
    return [float(electron_count(n)) for n in range(lo, hi + 1)]


def test_extrapolation_single_power_identity() -> None:
    seq = [(z, 3.75 * z ** (7.0 / 3.0)) for z in _ladder_zs()]
    (a,) = richardson_extrapolate(seq, [Fraction(7, 3)])
    # the deep tableau amplifies ulp jitter in x*y/y by a few orders; the
    # recovery is identity-grade but not exact
    assert a == pytest.approx(3.75, rel=1e-11)


def test_extrapolation_two_power_synthetic() -> None:
    seq = [(z, 2.5 * z ** (7.0 / 3.0) - 0.7 * z * z) for z in _ladder_zs()]
    a, b = richardson_extrapolate(seq, [Fraction(7, 3), Fraction(2)])
    assert a == pytest.approx(2.5, rel=1e-8)
    assert b == pytest.approx(-0.7, rel=1e-8)


def test_extrapolation_exact_for_polynomial_in_u() -> None:
    # the tableau eliminates powers of u = Z^{-1/3} exactly once the depth
    # covers the degree
    seq = []
    for z in _ladder_zs():
        u = z ** (-1.0 / 3.0)
        seq.append((z, 4.0 - 2.0 * u + 0.5 * u * u - 0.1 * u**3))
    (limit,) = richardson_extrapolate(seq, [Fraction(0)])
    assert limit == pytest.approx(4.0, rel=1e-12)


def test_extrapolation_validation() -> None:
    good = [(z, z * z) for z in _ladder_zs()]
    with pytest.raises(ValueError, match="at least"):
        richardson_extrapolate(good[:3], [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError, match="increasing"):
        richardson_extrapolate([(10.0, 1.0), (2.0, 1.0), (20.0, 1.0), (30.0, 1.0)], [Fraction(0)])
    with pytest.raises(ValueError, match="increasing"):
        richardson_extrapolate([(-1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)], [Fraction(0)])
    with pytest.raises(ValueError, match="decreasing"):
        richardson_extrapolate(good, [Fraction(1), Fraction(2)])


def test_divergence_pole_inside_window() -> None:
    seq = [(z, 1.0 / (z ** (-1.0 / 3.0) - 0.12)) for z in _ladder_zs()]
    with pytest.raises(ExtrapolationError, match="diverges"):
        richardson_extrapolate(seq, [Fraction(0)])


def test_divergence_alternating_blowup() -> None:
    seq = [(z, (-1.0) ** i * 10.0**i) for i, z in enumerate(_ladder_zs())]
    with pytest.raises(ExtrapolationError, match="diverges"):
        richardson_extrapolate(seq, [Fraction(0)])


def test_divergence_noisy_constant() -> None:
    seq = [(z, 1.0 + 0.5 * (-1.0) ** i) for i, z in enumerate(_ladder_zs())]
    with pytest.raises(ExtrapolationError, match="diverges"):
        richardson_extrapolate(seq, [Fraction(0)])


def test_divergence_overflow_is_nonfinite() -> None:
    seq = [(z, (-1.0) ** i * 1e308) for i, z in enumerate(_ladder_zs())]
    with pytest.raises(ExtrapolationError, match="non-finite"):
        richardson_extrapolate(seq, [Fraction(0)])


# --- fits along the closed-shell ladder ------------------------------------


def _near_target(series: str, power: str):
    target = TARGETS[(series, power)]
    return pytest.approx(target.value, abs=target.tolerance)


@pytest.fixture(scope="module")
def ladder():
    return model_energy_sequence(range(2, 26), grid_points=2000, verify=False)


def test_three_power_fit_of_tf_energy(ladder) -> None:
    seq = [(p.z, p.t_tf) for p in ladder]
    a, b, c = richardson_extrapolate(seq, [Fraction(7, 3), Fraction(2), Fraction(5, 3)])
    assert abs(a - SURD_LEADING) <= 1e-5
    # the fitted Z^2 coefficient; frozen from this pipeline, stable to the
    # grid and ladder choices at the 1e-3 level
    assert b == pytest.approx(-0.652859, abs=1e-3)
    assert c == _near_target("T_TF", "Z^{5/3}")


def test_two_power_fit_biases_subleading_term(ladder) -> None:
    # with the Z^{5/3} term unmodeled its weight aliases into the Z^2
    # coefficient, pushing it well below -1/2
    seq = [(p.z, p.t_tf) for p in ladder]
    a, b = richardson_extrapolate(seq, [Fraction(7, 3), Fraction(2)])
    assert abs(a - SURD_LEADING) / SURD_LEADING <= 1e-4
    assert 0.29 <= abs(b - (-0.5)) / 0.5 <= 0.32


def test_gradient_terms_are_subleading(ladder) -> None:
    seq = [(p.z, p.t2) for p in ladder]
    (lead,) = richardson_extrapolate(seq, [Fraction(7, 3)])
    target = TARGETS[("T2", "Z^{7/3}")]
    assert abs(lead - target.value) < target.tolerance


def test_gradient_correction_ratio_coefficients(ladder) -> None:
    t2_ratio = [(p.z, p.t2 / p.t_exact) for p in ladder]
    g1, g2 = richardson_extrapolate(t2_ratio, [Fraction(-1, 3), Fraction(-2, 3)])
    assert g1 == _near_target("T2", "Z^{-1/3}")
    assert g2 == pytest.approx(0.045, abs=0.009)

    t4_ratio = [(p.z, p.t4 / p.t_exact) for p in ladder]
    g1, g2 = richardson_extrapolate(t4_ratio, [Fraction(-1, 3), Fraction(-2, 3)])
    assert g1 == _near_target("T4", "Z^{-1/3}")
    assert g2 == pytest.approx(0.0078, abs=0.00156)


def test_resummation_of_z2_coefficients(ladder) -> None:
    # literature arithmetic: the three printed Z^2-level numbers sum to
    # within 0.3% of the -1/2 expected from the exact series
    printed = sum(
        TARGETS[key].value for key in (("T_TF", "Z^2"), ("T2", "Z^{-1/3}"), ("T4", "Z^{-1/3}"))
    )
    assert printed == pytest.approx(-0.5, abs=0.0015)

    # the same sum rebuilt from this pipeline's fits lands close to, but
    # measurably off, -1/2; the residual is real, not noise
    seq = [(p.z, p.t_tf) for p in ladder]
    a, b, _ = richardson_extrapolate(seq, [Fraction(7, 3), Fraction(2), Fraction(5, 3)])
    t2_ratio = [(p.z, p.t2 / p.t_exact) for p in ladder]
    g1_t2, _ = richardson_extrapolate(t2_ratio, [Fraction(-1, 3), Fraction(-2, 3)])
    t4_ratio = [(p.z, p.t4 / p.t_exact) for p in ladder]
    g1_t4, _ = richardson_extrapolate(t4_ratio, [Fraction(-1, 3), Fraction(-2, 3)])
    total = b + a * (g1_t2 + g1_t4)
    assert total == pytest.approx(-0.5104, abs=1.5e-3)
    assert 0.005 < abs(total + 0.5) < 0.02


def test_vanishing_powers_float_fits(ladder) -> None:
    # double-precision cascades limit how small the aliased coefficients
    # can fit; these bounds are honest for this grid and ladder
    seq = [(p.z, p.t_exact) for p in ladder]
    four = richardson_extrapolate(
        seq, [Fraction(7, 3), Fraction(2), Fraction(5, 3), Fraction(4, 3)]
    )
    assert abs(four[3]) <= 5e-5
    five = richardson_extrapolate(
        seq, [Fraction(7, 3), Fraction(2), Fraction(5, 3), Fraction(4, 3), Fraction(1)]
    )
    assert abs(five[4]) <= 6e-4


def _mp_extrapolate(u: list, s: list, depth: int):
    column = s[:]
    for k in range(1, depth + 1):
        column = [
            (u[i] * column[i + 1] - u[i + k] * column[i]) / (u[i] - u[i + k])
            for i in range(len(column) - 1)
        ]
    return column[-1]


def test_vanishing_powers_high_precision() -> None:
    """50-digit replica of the power-cascade fit on exact ladder energies.

    Free of double-precision roundoff, every aliased coefficient drops
    below 1e-6 (measured: below 1e-13), confirming the float-fit residues
    above are arithmetic artifacts and not real series content.
    """
    with mpmath.workdps(50):
        seq = []
        for n in range(2, 41):
            z = n * (n + 1) * (2 * n + 1) // 3
            seq.append((mpmath.mpf(z), mpmath.mpf(n * z * z)))
        us = [z ** (mpmath.mpf(-1) / 3) for z, _ in seq]
        powers = [mpmath.mpf(p) / 3 for p in (7, 6, 5, 4, 3, 2, 1, 0)]
        residual = [v for _, v in seq]
        coefs = []
        for p in powers:
            scaled = [r / z**p for r, (z, _) in zip(residual, seq)]
            a = _mp_extrapolate(us, scaled, depth=8)
            coefs.append(a)
            residual = [r - a * z**p for r, (z, _) in zip(residual, seq)]

        surd = mpmath.root(mpmath.mpf(3) / 2, 3)
        assert abs(coefs[0] - surd) < 1e-8
        assert abs(coefs[1] + mpmath.mpf(1) / 2) < 1e-8
        assert abs(coefs[2] - 1 / (6 * mpmath.root(12, 3))) < 1e-8
        # the cascade even recovers the tiny genuine Z^{1/3} coefficient
        assert abs(coefs[6] + 1 / (3888 * mpmath.root(18, 3))) < 1e-12
        # powers 4/3, 1, 2/3, 0 are identically zero in the exact series
        for k in (3, 4, 5, 7):
            assert abs(coefs[k]) < 1e-6


def test_expansion_accuracy_decays_fast() -> None:
    """Truncation gap of the order-5 series along Z = 10^k.

    The next non-zero term sits at Z^{-5/3}, so the scaled gap
    |T - series| / Z^{7/3} falls by about 1e-4 per decade, comfortably
    inside a C Z^{-8/3} envelope.  Double precision floors this measurement
    beyond Z = 100, hence the high-precision arithmetic.
    """
    with mpmath.workdps(60):
        c73 = mpmath.root(mpmath.mpf(3) / 2, 3)
        c2 = -mpmath.mpf(1) / 2
        c53 = 1 / (6 * mpmath.root(12, 3))
        c13 = -1 / (3888 * mpmath.root(18, 3))
        cm13 = 1 / (69984 * mpmath.root(12, 3))

        def t_model(z):
            d = mpmath.cbrt(54 * z + mpmath.sqrt(2916 * z * z - 3))
            return (mpmath.root(3, 3) ** -1 / d + mpmath.root(9, 3) ** -1 * d - 1) / 2 * z * z

        def series(z):
            w = mpmath.cbrt(z)
            return c73 * w**7 + c2 * w**6 + c53 * w**5 + c13 * w + cm13 / w

        scaled_gaps = []
        for z in (10, 100, 1000, 10000):
            z = mpmath.mpf(z)
            gap = abs(t_model(z) - series(z))
            scaled_gaps.append(gap / z ** (mpmath.mpf(7) / 3))

        # envelope: scaled gap <= C Z^{-8/3} with a small constant
        for z, g in zip((10, 100, 1000, 10000), scaled_gaps):
            assert g <= 1e-4 * mpmath.mpf(z) ** (mpmath.mpf(-8) / 3)
        # true per-decade decay is Z^{-4}
        for a, b in zip(scaled_gaps, scaled_gaps[1:]):
            ratio = b / a
            assert 5e-5 < ratio < 2e-4


# --- scaled density and its semiclassical limit -----------------------------


def test_tf_limit_point_values() -> None:
    assert tf_limit_density(1.0) == pytest.approx(0.04646, abs=5e-6)
    assert tf_limit_density(TURNING_POINT) == 0.0
    assert tf_limit_density(TURNING_POINT + 0.5) == 0.0
    arr = tf_limit_density(np.array([0.5, 1.0, 3.0]))
    assert arr.shape == (3,)
    assert arr[2] == 0.0
    assert arr[0] == pytest.approx(tf_limit_density(0.5), rel=1e-15)


def test_tf_limit_normalized() -> None:
    value, _ = quad(
        lambda r: 4.0 * math.pi * r * r * tf_limit_density(r), 0.0, TURNING_POINT, limit=200
    )
    assert value == pytest.approx(1.0, abs=1e-6)


def test_tf_limit_rejects_origin() -> None:
    with pytest.raises(ValueError):
        tf_limit_density(0.0)
    with pytest.raises(ValueError):
        tf_limit_density(-1.0)
    with pytest.raises(ValueError):
        tf_limit_density(np.array([1.0, 0.0]))


def test_scaled_density_is_rescaled_model() -> None:
    cfg = ShellConfiguration.closed_shell(3)
    z = cfg.nuclear_charge
    rho = model_density(cfg)
    r_hat = np.linspace(0.1, 2.5, 40)
    expected = rho.value(r_hat * z ** (-1.0 / 3.0)) / z**2
    np.testing.assert_allclose(ScaledDensity(cfg).evaluate(r_hat), expected, rtol=1e-14)


def test_scaled_density_unit_norm() -> None:
    cfg = ShellConfiguration.closed_shell(3)
    z = cfg.nuclear_charge
    r_max_hat = model_density(cfg).suggested_r_max() * z ** (1.0 / 3.0)
    grid = make_grid("expmap", 2000, (0.0, r_max_hat))
    vals = ScaledDensity(cfg).evaluate(grid.nodes)
    norm = 4.0 * math.pi * grid.integrate(grid.nodes**2 * vals)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_deviation_is_difference() -> None:
    cfg = ShellConfiguration.closed_shell(2)
    sd = ScaledDensity(cfg)
    r_hat = np.linspace(0.2, 2.0, 17)
    np.testing.assert_allclose(
        sd.deviation(r_hat), sd.evaluate(r_hat) - tf_limit_density(r_hat), rtol=1e-14
    )
    assert sd.turning_point == TURNING_POINT


def test_scaled_sampling_default_grid() -> None:
    r_hat, rho_hat = scaled_model_density(ShellConfiguration.closed_shell(2), n_points=300)
    assert r_hat.shape == rho_hat.shape == (300,)
    assert r_hat[0] > 0.0
    assert r_hat[-1] == pytest.approx(TURNING_POINT, rel=1e-15)
    custom = np.array([0.5, 1.0])
    r2, v2 = scaled_model_density(ShellConfiguration.closed_shell(2), r_hat=custom)
    np.testing.assert_array_equal(r2, custom)
    assert v2.shape == (2,)


# --- shell oscillations -----------------------------------------------------


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_oscillation_count_matches_shell_count(n_max: int) -> None:
    maxima = shell_oscillation_maxima(ShellConfiguration.closed_shell(n_max))
    assert len(maxima) == n_max


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_margin_zero_adds_the_tail_bump(n_max: int) -> None:
    maxima = shell_oscillation_maxima(
        ShellConfiguration.closed_shell(n_max), boundary_margin=0.0
    )
    assert len(maxima) == n_max + 1


FROZEN_AMPLITUDES = {
    1: 6.656969e-2,
    2: 9.704462e-3,
    3: 3.450710e-3,
    5: 1.006042e-3,
}


@pytest.mark.parametrize("n_max", sorted(FROZEN_AMPLITUDES))
def test_oscillation_amplitudes_frozen(n_max: int) -> None:
    amp = oscillation_amplitude(ShellConfiguration.closed_shell(n_max))
    assert amp == pytest.approx(FROZEN_AMPLITUDES[n_max], rel=1e-3)


def test_oscillation_geometry() -> None:
    maxima = shell_oscillation_maxima(ShellConfiguration.closed_shell(4))
    radii = [r for r, _ in maxima]
    assert radii == sorted(radii)
    assert all(0.0 < r < 0.95 * TURNING_POINT for r in radii)
    heights = [h for _, h in maxima]
    assert all(h > 0.0 for h in heights)
    # inner oscillations tower over the outer ones
    assert heights[0] > heights[-1]


def test_oscillation_amplitude_shrinks_with_system_size() -> None:
    amps = [oscillation_amplitude(ShellConfiguration.closed_shell(n)) for n in (1, 2, 3, 5)]
    assert all(a > b for a, b in zip(amps, amps[1:]))


def test_oscillation_validation() -> None:
    with pytest.raises(ValueError):
        shell_oscillation_maxima(ShellConfiguration.closed_shell(2), n_points=50)


# --- sequences and figure data ---------------------------------------------


def test_sequence_points_are_cached_and_exact() -> None:
    first = model_energy_sequence([3], grid_points=2000, verify=False)[0]
    second = model_energy_sequence([3], grid_points=2000, verify=False)[0]
    assert first is second
    assert first.z == 28.0
    assert first.t_exact == 3 * 28.0**2
    assert first.n_max == 3


@pytest.mark.parametrize("verify,grids", [(True, 2), (False, 1)])
def test_ladder_point_evaluates_density_once_per_grid(monkeypatch, verify, grids) -> None:
    calls = []
    kernel = _kernels.shell_profile

    def counting(z, n_max, r):
        calls.append(r.size)
        return kernel(z, n_max, r)

    monkeypatch.setattr(_kernels, "shell_profile", counting)
    # bypass the ladder cache so the point is computed here
    _ladder_point.__wrapped__(3, 2000, verify)
    # one kernel call covers the base grid and, with verify, its refinement
    assert calls == [sum(2000 * 2**i for i in range(grids))]


# --- the ladder across processes ------------------------------------------
#
# Each test runs its ladder at a grid size no other test uses, so its points
# start uncached; verify=False keeps the small grids cheap.


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _counting_fork(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _bits(point) -> tuple[str, ...]:
    return tuple(float.hex(v) for v in (point.t_tf, point.t2, point.t4))


def _assert_serial_points(points, grid_points: int) -> None:
    for point in points:
        reference = _ladder_point.__wrapped__(point.n_max, grid_points, False)
        assert point == reference
        assert _bits(point) == _bits(reference)
        assert all(type(v) is float for v in (point.t_tf, point.t2, point.t4))


def test_split_by_cost_is_longest_first_greedy() -> None:
    keys = [(n, 0, False) for n in range(2, 8)]
    # costs n^3 + 8 n^2: 40, 99, 192, 325, 504, 735
    own, worker = _split_by_cost(keys, 2)
    assert [k[0] for k in own] == [7, 4, 2]
    assert [k[0] for k in worker] == [6, 5, 3]
    assert _split_by_cost(keys, 1) == [sorted(keys, reverse=True)]


def test_parallel_ladder_equals_serial_points(monkeypatch) -> None:
    _cpus(monkeypatch, 2)
    forks = _counting_fork(monkeypatch)
    cached = model_energy_sequence([3, 5], grid_points=1040, verify=False)
    before = _ladder_point.cache_info()
    points = model_energy_sequence(range(2, 9), grid_points=1040, verify=False)
    after = _ladder_point.cache_info()
    assert len(forks) == 2  # one per ladder with uncached points
    assert [p.n_max for p in points] == list(range(2, 9))
    assert points[1] is cached[0] and points[3] is cached[1]
    # each requested point is counted once: two hits, five computed
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 5)
    _assert_serial_points(points, 1040)
    assert not asymptotics._ahead


def _forced_failure(monkeypatch, failing: set[int], log) -> None:
    energies = asymptotics.energies

    def failing_energies(rho, grid, *, verify):
        n_max = rho.configuration.n_max
        if n_max in failing:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {n_max}\n")
            raise ConvergenceError(f"T_TF: forced failure at n_max = {n_max}")
        return energies(rho, grid, verify=verify)

    monkeypatch.setattr(asymptotics, "energies", failing_energies)


@pytest.mark.parametrize("failing,first", [({5}, 5), ({3, 4}, 3), ({4, 6}, 4)])
def test_worker_failure_raises_the_serial_error(monkeypatch, tmp_path, failing, first) -> None:
    # shells 2..7 split as [7, 4, 2] here and [6, 5, 3] in the worker
    grid_points = {5: 1104, 3: 1120, 4: 1136}[first]
    log = tmp_path / "failures"
    _forced_failure(monkeypatch, failing, log)
    _cpus(monkeypatch, 1)
    with pytest.raises(ConvergenceError) as serial:
        model_energy_sequence(range(2, 8), grid_points=grid_points, verify=False)
    _cpus(monkeypatch, 2)
    forks = _counting_fork(monkeypatch)
    with pytest.raises(ConvergenceError) as parallel:
        model_energy_sequence(range(2, 8), grid_points=grid_points + 8, verify=False)
    assert len(forks) == 1
    assert str(parallel.value) == str(serial.value) == f"T_TF: forced failure at n_max = {first}"
    # each failing point failed where its share ran, then again in order
    by_process = [line.split() for line in log.read_text().splitlines()]
    worker_failures = {int(n) for pid, n in by_process if int(pid) == forks[0]}
    assert worker_failures == failing & {3, 5, 6}
    assert not asymptotics._ahead


def test_no_fork_when_serial_suffices(monkeypatch) -> None:
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 1)
    points = model_energy_sequence([2, 3, 4], grid_points=1152, verify=False)
    _cpus(monkeypatch, 2)
    # fully cached
    assert model_energy_sequence([4, 3, 2], grid_points=1152, verify=False) == points[::-1]
    # one uncached point
    model_energy_sequence([2, 3, 4, 5], grid_points=1152, verify=False)
    # no affinity query (not Linux)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    model_energy_sequence([2, 3], grid_points=1168, verify=False)
    _cpus(monkeypatch, 2)
    # another Python thread is alive
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        model_energy_sequence([2, 3], grid_points=1184, verify=False)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_dead_worker_points_are_computed_by_the_parent(monkeypatch) -> None:
    parent = os.getpid()
    energies = asymptotics.energies

    def dying_in_worker(rho, grid, *, verify):
        if os.getpid() != parent:
            os._exit(3)  # no records written, non-zero exit
        return energies(rho, grid, verify=verify)

    monkeypatch.setattr(asymptotics, "energies", dying_in_worker)
    _cpus(monkeypatch, 2)
    forks = _counting_fork(monkeypatch)
    before = _ladder_point.cache_info()
    points = model_energy_sequence(range(2, 8), grid_points=1200, verify=False)
    after = _ladder_point.cache_info()
    assert len(forks) == 1
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 6)
    _assert_serial_points(points, 1200)


def test_interrupt_kills_and_reaps_the_worker(monkeypatch) -> None:
    parent = os.getpid()

    def interrupted(rho, grid, *, verify):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the worker is killed long before this ends

    monkeypatch.setattr(asymptotics, "energies", interrupted)
    _cpus(monkeypatch, 2)
    forks = _counting_fork(monkeypatch)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        model_energy_sequence(range(2, 6), grid_points=1216, verify=False)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    assert not asymptotics._ahead


def test_figure_density_rows_structure() -> None:
    rows = figure_density_rows(n_points=50)
    assert len(rows) == 4 * 50
    assert set(rows[0]) == {"r_hat", "rho_hat_model", "rho_hat_tf", "n_max"}
    assert sorted({row["n_max"] for row in rows}) == [1, 2, 3, 5]
    for row in rows[:50]:
        assert row["rho_hat_tf"] == pytest.approx(
            tf_limit_density(row["r_hat"]), rel=1e-14, abs=1e-300
        )


def test_figure_error_rows_signs(ladder) -> None:
    rows = figure_error_rows(range(1, 9), grid_points=2000, verify=False)
    assert [row["n_max"] for row in rows] == list(range(1, 9))
    for row in rows:
        assert row["rel_err_T0"] > 0.0
        # each added gradient term is positive, so cumulative errors descend
        assert row["rel_err_T0"] > row["rel_err_T2"] > row["rel_err_T4"]
    # small systems overshoot under the corrections: the T2 column turns
    # positive at three shells, the T4 column only at eight
    assert [row["rel_err_T2"] > 0.0 for row in rows] == [False, False] + [True] * 6
    assert [row["rel_err_T4"] > 0.0 for row in rows] == [False] * 7 + [True]
