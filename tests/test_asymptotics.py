"""Large-Z series, extrapolation machinery, and the scaled-density limit."""

import importlib.util
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from densities import energies_on, value
from oscillations import oscillation_amplitude, shell_oscillation_maxima
from source_constants import constant_hits
from tfshell import _kernels, asymptotics
from tfshell.asymptotics import (
    FITS,
    LADDER_SHELLS,
    MODEL_SERIES,
    TURNING_POINT,
    figure_density_rows,
    figure_error_rows,
    fit_rows,
    model_energy_sequence,
    model_series,
    richardson_extrapolate,
    scaled_model_density,
    tf_limit_density,
)
from tfshell.correction import delta_t
from tfshell.hydrogenic import (
    MAX_SHELLS,
    HydrogenicDensity,
    electron_count,
    model_kinetic_energy_continuous,
)
from tfshell.kedf import ConvergenceError, grid_for, make_grid, span_for

SURD_LEADING = (3.0 / 2.0) ** (1.0 / 3.0)

# printed six-figure values of the non-zero series coefficients, keyed by
# the k of Z^{k/3}
PRINTED_COEFFICIENTS = {
    7: 1.144714,
    6: -0.5,
    5: 0.0727984,
    1: -9.81408e-5,
    -1: 6.241287e-6,
}
VANISHING_POWERS = (4, 3, 2, 0)


# --- the closed-form expansion ---------------------------------------------


def test_printed_coefficient_values() -> None:
    coefficients = dict(MODEL_SERIES)
    for power, printed in PRINTED_COEFFICIENTS.items():
        assert coefficients[power] == pytest.approx(printed, abs=1e-6)


def test_vanishing_powers_are_explicit_zeros() -> None:
    # the identically vanishing powers carry no term in the series
    for power in VANISHING_POWERS:
        assert power not in dict(MODEL_SERIES)


def test_power_list_descends_in_thirds() -> None:
    # kept and vanishing powers together are every third from 7/3 to -1/3
    powers = [k for k, _ in MODEL_SERIES] + list(VANISHING_POWERS)
    expected = [7 - k for k in range(9)]
    assert sorted(powers, reverse=True) == expected


@pytest.mark.parametrize("order,n_terms", [(1, 1), (2, 2), (3, 3), (4, 7), (5, 9)])
def test_truncation_orders(order: int, n_terms: int) -> None:
    # the first `order` non-zero terms span n_terms powers in steps of 1/3,
    # the vanishing ones between them included
    kept = MODEL_SERIES[:order]
    assert kept[0][0] - kept[-1][0] + 1 == n_terms
    between = [p for p in VANISHING_POWERS if kept[-1][0] < p < kept[0][0]]
    assert len(kept) + len(between) == n_terms


def test_expansion_validation() -> None:
    # five non-zero terms in strictly decreasing powers
    powers = [p for p, _ in MODEL_SERIES]
    assert len(powers) == 5
    assert all(b < a for a, b in zip(powers, powers[1:]))
    assert all(c != 0.0 for _, c in MODEL_SERIES)


def test_evaluate_sums_terms() -> None:
    z = 28.0
    manual = sum(c * z ** (k / 3) for k, c in MODEL_SERIES)
    assert model_series(MODEL_SERIES, z) == pytest.approx(manual, rel=1e-15)


def test_model_series_matches_an_mpmath_sum() -> None:
    # the surds and powers each rounded once: within 2.07e-16 of the 40-digit
    # sum at every ladder charge, where float exponents k / 3 read up to 1.65e-15
    with mpmath.workdps(40):
        exact = [
            (7, mpmath.cbrt(mpmath.mpf(3) / 2)),
            (6, -mpmath.mpf(1) / 2),
            (5, 1 / (6 * mpmath.cbrt(12))),
            (1, -1 / (3888 * mpmath.cbrt(18))),
            (-1, 1 / (69984 * mpmath.cbrt(12))),
        ]
        for n in range(1, MAX_SHELLS + 1):
            z = electron_count(n)
            reference = sum(c * mpmath.cbrt(z) ** k for k, c in exact)
            assert abs(model_series(MODEL_SERIES, z) / reference - 1) <= 2.5e-16, n


@pytest.mark.parametrize("z", [0, 0.0, -8.0, math.inf, -math.inf, math.nan, 1e300, 1e-300, 5e-324])
def test_model_series_rejects_z_outside_its_domain(z) -> None:
    # 0 divided by zero, -8.0 raised a complex power and inf summed to nan;
    # a Z^{7/3} past the float range or at 0 raised OverflowError or ZeroDivisionError
    refused = "z must be finite and > 0, got " if not 0 < z < math.inf else re.escape(f"{z!r}^(7/3) is 0 or past")
    with pytest.raises(ValueError, match="^" + refused):
        model_series(MODEL_SERIES, z)


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

    # keyed by the k of Z^{k/3}
    exact = {
        7: sp.root(sp.Rational(3, 2), 3),
        6: sp.Rational(-1, 2),
        5: 1 / (6 * sp.root(12, 3)),
        4: sp.Integer(0),
        3: sp.Integer(0),
        2: sp.Integer(0),
        1: -1 / (3888 * sp.root(18, 3)),
        0: sp.Integer(0),
        -1: 1 / (69984 * sp.root(12, 3)),
    }
    # T = n w^6, so the coefficient of Z^{(7-k)/3} is b_k itself
    for k, b in enumerate(bs):
        assert sp.simplify(sol[b] - exact[7 - k]) == 0

    # the five kept powers are exactly the non-vanishing ones
    kept = dict(MODEL_SERIES)
    assert set(kept) == {p for p, value in exact.items() if value != 0}
    for p, c in kept.items():
        assert c == pytest.approx(float(exact[p]), rel=1e-15)


# --- Richardson extrapolation ----------------------------------------------


def _ladder_zs(lo: int = 2, hi: int = 12) -> list[float]:
    return [float(electron_count(n)) for n in range(lo, hi + 1)]


def test_extrapolation_single_power_identity() -> None:
    seq = [(z, 3.75 * z ** (7.0 / 3.0)) for z in _ladder_zs()]
    (a,) = richardson_extrapolate(seq, [7])
    # the deep tableau amplifies ulp jitter in x*y/y by a few orders; the
    # recovery is identity-grade but not exact
    assert a == pytest.approx(3.75, rel=1e-11)


def test_extrapolation_two_power_synthetic() -> None:
    seq = [(z, 2.5 * z ** (7.0 / 3.0) - 0.7 * z * z) for z in _ladder_zs()]
    a, b = richardson_extrapolate(seq, [7, 6])
    assert a == pytest.approx(2.5, rel=1e-8)
    assert b == pytest.approx(-0.7, rel=1e-8)


def test_extrapolation_exact_for_polynomial_in_u() -> None:
    # the tableau eliminates powers of u = Z^{-1/3} exactly once the depth
    # covers the degree
    seq = []
    for z in _ladder_zs():
        u = z ** (-1.0 / 3.0)
        seq.append((z, 4.0 - 2.0 * u + 0.5 * u * u - 0.1 * u**3))
    (limit,) = richardson_extrapolate(seq, [0])
    assert limit == pytest.approx(4.0, rel=1e-12)


def test_extrapolation_validation() -> None:
    good = [(z, z * z) for z in _ladder_zs()]
    with pytest.raises(ValueError, match="need at least 4 points for 2 powers, got 3"):
        richardson_extrapolate(good[:3], [6, 3])
    with pytest.raises(ValueError, match="increasing"):
        richardson_extrapolate([(10.0, 1.0), (2.0, 1.0), (20.0, 1.0), (30.0, 1.0)], [0])
    with pytest.raises(ValueError, match="increasing"):
        richardson_extrapolate([(-1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)], [0])
    with pytest.raises(ValueError, match="decreasing"):
        richardson_extrapolate(good, [3, 6])
    # a constant series on Z = 2..408; Neville reads only the last six points,
    # so each of these was fitted (to 3.75 or 3.749999999999876) before the
    # finite checks
    constant = [(z, 3.75) for z in _ladder_zs(1, 8)]
    with pytest.raises(ValueError, match="finite"):
        richardson_extrapolate(constant[:-1] + [(math.inf, 3.75)], [0])
    with pytest.raises(ValueError, match="finite"):
        richardson_extrapolate([(math.nan, 3.75)] + constant[1:], [0])
    with pytest.raises(ValueError, match="finite"):
        richardson_extrapolate([(constant[0][0], math.nan)] + constant[1:], [0])
    # a power is the integer k of Z^{k/3}: as floats, a power of inf fitted
    # 0.0 and -inf divided by zero, and 7 / 3 rounds; a whole float and a
    # bool are no integer k either
    for powers in ([math.inf], [-math.inf], [math.nan], [3, math.nan], [7 / 3], [2.0], [True], [6, True]):
        with pytest.raises(ValueError, match=r"^powers must be integers k of Z\^\{k/3\}"):
            richardson_extrapolate(constant, powers)
    # a Z^{7/3} past the float range or at 0 raised OverflowError or ZeroDivisionError
    for scale in (1e300, 1e-300):
        with pytest.raises(ValueError, match=re.escape(f"{scale!r}^(7/3) is 0 or past the float range")):
            richardson_extrapolate([(i * scale, 1.0) for i in range(1, 5)], [7])


def test_divergence_pole_inside_window() -> None:
    # at an offset of 1e6 every correction is small beside a sum of two
    # estimates, so only their differences show the divergence
    for offset in (0.0, 1e6):
        seq = [(z, offset + 1.0 / (z ** (-1.0 / 3.0) - 0.12)) for z in _ladder_zs()]
        with pytest.raises(ConvergenceError, match="^extrapolation tableau diverges: correction sizes grew from "):
            richardson_extrapolate(seq, [0])


def test_divergence_alternating_blowup() -> None:
    seq = [(z, (-1.0) ** i * 10.0**i) for i, z in enumerate(_ladder_zs())]
    with pytest.raises(ConvergenceError, match="^extrapolation tableau diverges: correction sizes grew from "):
        richardson_extrapolate(seq, [0])


def test_divergence_noisy_constant() -> None:
    # at an offset of 1e6 every correction is small beside a sum of two
    # estimates, so only their differences show the divergence
    for offset in (0.0, 1e6):
        seq = [(z, offset + 1.0 + 0.5 * (-1.0) ** i) for i, z in enumerate(_ladder_zs())]
        with pytest.raises(ConvergenceError, match="^extrapolation tableau diverges: correction sizes grew from "):
            richardson_extrapolate(seq, [0])


def test_divergence_one_jump_past_a_settled_start() -> None:
    # six points whose tableau estimates step by 1e-6, 0.9, 0.8, 0.5, 0.6: the
    # steps never grow three in a row, so only the last step's jump past
    # 1e3 times the first calls the tableau divergent
    zs = _ladder_zs(2, 7)
    u = [z ** (-1.0 / 3.0) for z in zs]
    estimates = [1.0, 1.000001, 1.900001, 2.700001, 3.200001, 3.800001]
    # estimate k is the value at u = 0 of the polynomial through the last
    # k + 1 points, so each estimate fixes one more point, from the last back
    s = [0.0] * len(zs)
    for k, estimate in enumerate(estimates):
        window = range(len(zs) - 1 - k, len(zs))
        weight = {j: math.prod(u[m] / (u[m] - u[j]) for m in window if m != j) for j in window}
        first = window[0]
        s[first] = (estimate - sum(weight[j] * s[j] for j in window[1:])) / weight[first]
    with pytest.raises(ConvergenceError, match="^extrapolation tableau diverges: correction sizes grew from "):
        richardson_extrapolate(list(zip(zs, s)), [0])


def test_divergence_overflow_is_nonfinite() -> None:
    seq = [(z, (-1.0) ** i * 1e308) for i, z in enumerate(_ladder_zs())]
    with pytest.raises(ConvergenceError, match="^extrapolation tableau produced a non-finite value$"):
        richardson_extrapolate(seq, [0])


# --- fits along the closed-shell ladder ------------------------------------


def _label_thirds(label: str) -> int:
    """The k of a printed power label ``Z^2`` (k = 6) or ``Z^{7/3}`` (k = 7)."""
    exponent = label.removeprefix("Z^").strip("{}")
    return int(exponent.removesuffix("/3")) if exponent.endswith("/3") else 3 * int(exponent)


def _paper_target(series: str, power: str | int) -> tuple[float, float]:
    """(target, tolerance) of one fitted power of ``FITS``, named by its printed label or by its k."""
    if isinstance(power, str):
        power = _label_thirds(power)
    (found,) = [
        (target, tolerance)
        for fit in FITS
        if fit.series == series
        for k, target, tolerance in fit.terms
        if k == power
    ]
    return found


def _near_target(series: str, power: str):
    target, tolerance = _paper_target(series, power)
    return pytest.approx(target, abs=tolerance)


@pytest.fixture(scope="module")
def ladder():
    return model_energy_sequence(range(2, 26))


def test_three_power_fit_of_tf_energy(ladder) -> None:
    seq = [(p.z, p.t.t_tf) for p in ladder]
    a, b, c = richardson_extrapolate(seq, [7, 6, 5])
    assert abs(a - SURD_LEADING) <= 1e-5
    # the fitted Z^2 coefficient; frozen from this pipeline, stable to the
    # grid and ladder choices at the 1e-3 level
    assert b == pytest.approx(-0.652859, abs=1e-3)
    assert c == _near_target("T_TF", "Z^{5/3}")


def test_two_power_fit_biases_subleading_term(ladder) -> None:
    # with the Z^{5/3} term unmodeled its weight aliases into the Z^2
    # coefficient, pushing it well below -1/2
    seq = [(p.z, p.t.t_tf) for p in ladder]
    a, b = richardson_extrapolate(seq, [7, 6])
    assert abs(a - SURD_LEADING) / SURD_LEADING <= 1e-4
    assert 0.29 <= abs(b - (-0.5)) / 0.5 <= 0.32


def test_gradient_terms_are_subleading(ladder) -> None:
    seq = [(p.z, p.t.t2) for p in ladder]
    (lead,) = richardson_extrapolate(seq, [7])
    target, tolerance = _paper_target("T2", "Z^{7/3}")
    assert abs(lead - target) < tolerance


def test_gradient_correction_ratio_coefficients(ladder) -> None:
    t2_ratio = [(p.z, p.t.t2 / p.t_exact) for p in ladder]
    g1, g2 = richardson_extrapolate(t2_ratio, [-1, -2])
    assert g1 == _near_target("T2", "Z^{-1/3}")
    assert g2 == pytest.approx(0.045, abs=0.009)

    t4_ratio = [(p.z, p.t.t4 / p.t_exact) for p in ladder]
    g1, g2 = richardson_extrapolate(t4_ratio, [-1, -2])
    assert g1 == _near_target("T4", "Z^{-1/3}")
    assert g2 == pytest.approx(0.0078, abs=0.00156)


def test_resummation_of_z2_coefficients(ladder) -> None:
    # literature arithmetic: the three printed Z^2-level numbers sum to
    # within 0.3% of the -1/2 expected from the exact series
    printed = sum(
        _paper_target(*key)[0] for key in (("T_TF", "Z^2"), ("T2", "Z^{-1/3}"), ("T4", "Z^{-1/3}"))
    )
    assert printed == pytest.approx(-0.5, abs=0.0015)

    # the same sum rebuilt from this pipeline's fits lands close to, but
    # measurably off, -1/2; the residual is real, not noise
    seq = [(p.z, p.t.t_tf) for p in ladder]
    a, b, _ = richardson_extrapolate(seq, [7, 6, 5])
    t2_ratio = [(p.z, p.t.t2 / p.t_exact) for p in ladder]
    g1_t2, _ = richardson_extrapolate(t2_ratio, [-1, -2])
    t4_ratio = [(p.z, p.t.t4 / p.t_exact) for p in ladder]
    g1_t4, _ = richardson_extrapolate(t4_ratio, [-1, -2])
    total = b + a * (g1_t2 + g1_t4)
    assert total == pytest.approx(-0.5104, abs=1.5e-3)
    assert 0.005 < abs(total + 0.5) < 0.02


def test_cli_ladder_gives_the_fits_of_the_full_ladder(ladder) -> None:
    # Neville at depth 5 reads only the last six points, so the command's
    # short ladder fits to the same bits as n_max 2..25
    short = [p for p in ladder if p.n_max in LADDER_SHELLS]
    assert [p.n_max for p in short] == list(LADDER_SHELLS)
    assert short[-1] is ladder[-1]

    def bits(rows):
        return [{**row, "fitted": float.hex(row["fitted"])} for row in rows]

    assert bits(fit_rows(short)) == bits(fit_rows(ladder))


def test_fit_labels_name_their_powers(ladder) -> None:
    # each printed label is its power, and each fit's powers decrease
    for fit in FITS:
        powers = [k for k, *_ in fit.terms]
        assert powers == sorted(powers, reverse=True)
    rows = fit_rows(ladder)
    assert [row["power"] for row in rows] == [
        "Z^{7/3}", "Z^2", "Z^{5/3}", "Z^{7/3}", "Z^{-1/3}", "Z^{-1/3}"
    ]
    assert [_label_thirds(row["power"]) for row in rows] == [k for fit in FITS for k, *_ in fit.terms]
    assert [row["quantity"] for row in rows] == ["coefficient"] * 4 + ["fraction of exact energy"] * 2


def test_only_asymptotics_knows_the_fits(ladder) -> None:
    # FITS is the one table of ladder fits, and it holds powers, not labels:
    # fit_rows words every label, so no module writes one as a string
    labels = {row["power"] for row in fit_rows(ladder)}
    assert labels == {"Z^{7/3}", "Z^2", "Z^{5/3}", "Z^{-1/3}"}
    package = Path(asymptotics.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert "asymptotics.py" in [path.name for path in modules]
    assert [hit for path in modules for hit in constant_hits(path, labels.__contains__)] == []


def test_vanishing_powers_float_fits(ladder) -> None:
    # double-precision cascades limit how small the aliased coefficients
    # can fit; these bounds are honest for this grid and ladder
    seq = [(p.z, p.t_exact) for p in ladder]
    four = richardson_extrapolate(seq, [7, 6, 5, 4])
    assert abs(four[3]) <= 5e-5
    five = richardson_extrapolate(seq, [7, 6, 5, 4, 3])
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


@pytest.mark.parametrize("r_hat", [1e-310, 5e-324])
def test_tf_limit_is_infinite_where_the_reciprocal_overflows(r_hat: float) -> None:
    # a subnormal r_hat is a finite r_hat > 0, so it gets a value and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tf_limit_density(r_hat) == math.inf
        assert tf_limit_density(np.array([r_hat, 1.0]))[0] == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tf_limit_rejects_non_finite_radii(bad: float) -> None:
    # NaN used to give 0.0
    with pytest.raises(ValueError, match="finite"):
        tf_limit_density(bad)
    with pytest.raises(ValueError, match="finite"):
        tf_limit_density(np.array([1.0, bad]))


def test_scaled_density_is_rescaled_model() -> None:
    rho = HydrogenicDensity(3)
    z = rho.z
    r_hat = np.linspace(0.1, 2.5, 40)
    expected = value(rho, r_hat * z ** (-1.0 / 3.0)) / z**2
    np.testing.assert_allclose(scaled_model_density(3, r_hat=r_hat), expected, rtol=1e-14)


def test_scaled_density_unit_norm() -> None:
    rho = HydrogenicDensity(3)
    r_max_hat = span_for(rho) * rho.z ** (1.0 / 3.0)
    grid = make_grid(2000, r_max_hat)
    vals = scaled_model_density(3, r_hat=grid.nodes)
    norm = 4.0 * math.pi * grid.integrate(grid.nodes**2 * vals)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_scaled_sampling_default_grid() -> None:
    rows = figure_density_rows()
    for n_max in (1, 2, 3, 5):
        r_hat = [row["r_hat"] for row in rows if row["n_max"] == n_max]
        assert len(r_hat) == 500
        assert r_hat[0] > 0.0
        assert r_hat[-1] == pytest.approx(TURNING_POINT, rel=1e-15)
    custom = np.array([0.5, 1.0])
    v2 = scaled_model_density(2, r_hat=custom)
    assert v2.shape == (2,)


# --- shell oscillations -----------------------------------------------------


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_oscillation_count_matches_shell_count(n_max: int) -> None:
    maxima = shell_oscillation_maxima(n_max)
    assert len(maxima) == n_max


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_margin_zero_adds_the_tail_bump(n_max: int) -> None:
    maxima = shell_oscillation_maxima(n_max, boundary_margin=0.0)
    assert len(maxima) == n_max + 1


FROZEN_AMPLITUDES = {
    1: 6.656969e-2,
    2: 9.704462e-3,
    3: 3.450710e-3,
    5: 1.006042e-3,
}


@pytest.mark.parametrize("n_max", sorted(FROZEN_AMPLITUDES))
def test_oscillation_amplitudes_frozen(n_max: int) -> None:
    amp = oscillation_amplitude(n_max)
    assert amp == pytest.approx(FROZEN_AMPLITUDES[n_max], rel=1e-3)


def test_oscillation_geometry() -> None:
    maxima = shell_oscillation_maxima(4)
    radii = [r for r, _ in maxima]
    assert radii == sorted(radii)
    assert all(0.0 < r < 0.95 * TURNING_POINT for r in radii)
    heights = [h for _, h in maxima]
    assert all(h > 0.0 for h in heights)
    # inner oscillations tower over the outer ones
    assert heights[0] > heights[-1]


def test_oscillation_amplitude_shrinks_with_system_size() -> None:
    amps = [oscillation_amplitude(n) for n in (1, 2, 3, 5)]
    assert all(a > b for a, b in zip(amps, amps[1:]))


def test_oscillation_validation() -> None:
    with pytest.raises(ValueError):
        shell_oscillation_maxima(2, n_points=50)


# --- sequences and figure data ---------------------------------------------


def test_sequence_points_are_cached_and_exact() -> None:
    first = model_energy_sequence([3])[0]
    second = model_energy_sequence([3])[0]
    assert first == second
    assert first.z == 28.0
    assert first.t_exact == 3 * 28.0**2
    assert first.n_max == 3


def test_ladder_point_evaluates_density_once_per_grid(monkeypatch) -> None:
    passes = []
    kernel = _kernels.shell_prefixes

    def counting(z, n_max, r):
        passes.append((z, n_max, r.size))
        return kernel(z, n_max, r)

    monkeypatch.setattr(_kernels, "shell_prefixes", counting)
    model_energy_sequence([3, 5, 4])
    # one kernel pass up to the largest count, at the top charge, covers
    # every point; it runs on the Gauss nodes and their Kronrod extension
    assert passes == [(float(electron_count(MAX_SHELLS)), 5, 1008 + 1071)]


def test_every_call_makes_its_own_pass(shell_passes) -> None:
    # nothing outlives a call: asking for the same points again runs the
    # kernel again, and returns equal points
    first = model_energy_sequence([3, 5])
    assert model_energy_sequence([3, 5]) == first
    assert shell_passes == [(float(electron_count(MAX_SHELLS)), 5)] * 2


def _counting_energies(monkeypatch, failing=frozenset()) -> list[int]:
    """Record the shell count of every point the ladder integrates, failing those in ``failing``."""
    computed = []
    gated = asymptotics.profile_energies
    shells = {electron_count(n): n for n in range(1, MAX_SHELLS + 1)}

    def counting(grid, rows, charge):
        n_max = shells[charge]
        computed.append(n_max)
        if n_max in failing:
            raise ConvergenceError(f"T_TF: forced failure at n_max = {n_max}")
        return gated(grid, rows, charge)

    monkeypatch.setattr(asymptotics, "profile_energies", counting)
    return computed


@pytest.mark.parametrize("failing,first", [({5}, 5), ({3, 4}, 3), ({4, 6}, 4)])
def test_ladder_failure_raises_for_the_first_failing_point(monkeypatch, failing, first) -> None:
    computed = _counting_energies(monkeypatch, failing)
    with pytest.raises(ConvergenceError, match=f"^T_TF: forced failure at n_max = {first}$"):
        model_energy_sequence([7, 2, 6, 3, 5, 4])
    # the points run in shell order, whatever the input order, and the pass
    # stops at the first failure
    assert computed == list(range(2, first + 1))


def test_ladder_validates_every_count_before_any_pass(monkeypatch, shell_passes) -> None:
    computed = _counting_energies(monkeypatch)
    # HydrogenicDensity alone words the shell cap; the ladder and the
    # correction raise its one text, before any kernel pass
    over = MAX_SHELLS + 1
    cap = re.escape(
        f"Z={electron_count(over)} fills {over} shells; "
        f"filled-shell counts are supported for 1..{MAX_SHELLS} shells"
    )
    for reach in (
        lambda: HydrogenicDensity(over),
        lambda: model_energy_sequence([3, over]),
        lambda: delta_t(electron_count(over), "refit"),
    ):
        with pytest.raises(ValueError, match=f"^{cap}$"):
            reach()
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="positive integer"):
            model_energy_sequence([3, bad])
    assert computed == []
    assert shell_passes == []


def test_ladder_point_has_the_same_bits_however_requested() -> None:
    # a point is a prefix of one pass on one grid: alone, in the full
    # ladder, in a pass that runs past it or after a higher pass, it keeps
    # its bits (the repr of a float round-trips them)
    def fresh(*requests) -> str:
        for request in requests:
            point = model_energy_sequence(request)[0]
        return repr(point)

    full = {p.n_max: repr(p) for p in model_energy_sequence(range(1, MAX_SHELLS + 1))}
    for n_max in (1, 2, 7, 20, 39, 40):
        alone = fresh([n_max])
        running_past = fresh([n_max, MAX_SHELLS])
        after_higher = fresh([MAX_SHELLS], [n_max])
        assert alone == running_past == after_higher == full[n_max]


def test_every_prefix_matches_its_own_grid() -> None:
    # the shared grid is sized for MAX_SHELLS shells; each point on it is
    # within 1e-14 of the same density integrated on its own grid_for grid
    for point in model_energy_sequence(range(1, MAX_SHELLS + 1)):
        rho = HydrogenicDensity(point.n_max)
        own = energies_on(rho, grid_for(rho))
        assert point.t == pytest.approx(own, rel=1e-14, abs=0.0), point.n_max


def _reference_ladder(n_points: int = 8000, order: int = 40) -> dict[int, tuple]:
    """(T_TF, T_W, T_4) of every ladder prefix on ``n_points`` Gauss-Legendre points.

    Composite ``order``-point panels from ``leggauss`` in t, on the span and
    exponential map of the shared ladder grid, with the textbook integrands
    written out here; each prefix is scaled to its neutral charge.
    """
    top = HydrogenicDensity(MAX_SHELLS)
    span, alpha = span_for(top), 12.0
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, n_points // order + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    e = np.exp(alpha * (mid[:, None] + half[:, None] * x).ravel())
    r = span * (e - 1.0) / math.expm1(alpha)
    weights = 4.0 * math.pi * (half[:, None] * w).ravel() * span * alpha * e / math.expm1(alpha)
    c_tf = 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0)
    c_4 = (3.0 * math.pi**2) ** (-2.0 / 3.0) / 540.0
    ladder = {}
    for n_max, rho, d1, d2 in _kernels.shell_prefixes(top.z, MAX_SHELLS, r):
        rho = np.maximum(rho, 0.0)
        live = rho > 0.0
        y = np.divide(d1, rho, out=np.zeros_like(rho), where=live)
        lap = np.divide(d2 + 2.0 * d1 / r, rho, out=np.zeros_like(rho), where=live)
        tau_tf = c_tf * rho * np.cbrt(rho) ** 2
        tau_w = rho * y * y / 8.0
        tau_4 = c_4 * np.cbrt(rho) * (lap * lap - 1.125 * lap * y * y + y**4 / 3.0)
        scale = (electron_count(n_max) / top.z) ** 2
        taus = (tau_tf, tau_w, tau_4)
        ladder[n_max] = tuple(scale * float(np.dot(weights, r * r * tau)) for tau in taus)
    return ladder


def _perfbench_checks():
    """``perfbench/checks.py``: the closed-form and the mpmath 1 - T_TF/T of the ladder."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_ladder_matches_an_8000_point_reference() -> None:
    # the Kronrod sums on the shared 1008-point grid against 8000 points
    # (1.8e-15 measured under seven BLAS and SIMD settings, in T_4), and the
    # one-shell point against its closed forms: T_W = T = 4 with one orbital,
    # and T_TF within 1.2e-16 of the float closed form, itself 2.7e-16 below
    # its 30-digit value; a float exponent 5.0 / 3.0 in kedf would read
    # 2.3e-15 here
    reference = _reference_ladder()
    for point in model_energy_sequence(range(1, MAX_SHELLS + 1)):
        assert point.t == pytest.approx(reference[point.n_max], rel=3e-15, abs=0.0), point.n_max
    (one,) = model_energy_sequence([1])
    assert one.t.t_w == pytest.approx(4.0, rel=1e-15, abs=0.0)
    one_shell = 4.0 * (1.0 - _perfbench_checks().ONE_SHELL_REL_ERR_T0)
    assert one.t.t_tf == pytest.approx(one_shell, rel=1e-15, abs=0.0)


def test_ladder_tf_matches_an_mpmath_orbital_sum() -> None:
    # T_TF at 2 and 3 shells against a 20-digit sum of mpmath.laguerre
    # orbitals on tanh-sinh quadrature, which shares no density, grid or
    # power with the program: within 6.1e-16 measured under seven BLAS and
    # SIMD settings, where a float exponent 5.0 / 3.0 in kedf reads 1.5e-15
    # and 1.6e-15 high
    checks = _perfbench_checks()
    for point in model_energy_sequence([2, 3]):
        tf = point.t_exact * (1.0 - checks.tf_relative_error(point.n_max))
        assert point.t.t_tf == pytest.approx(tf, rel=1e-15, abs=0.0), point.n_max


def test_figure_density_rows_structure() -> None:
    rows = figure_density_rows()
    assert len(rows) == 4 * 500
    assert set(rows[0]) == {"r_hat", "rho_hat_model", "rho_hat_tf", "n_max"}
    assert sorted({row["n_max"] for row in rows}) == [1, 2, 3, 5]
    for row in rows[:500]:
        assert row["rho_hat_tf"] == pytest.approx(
            tf_limit_density(row["r_hat"]), rel=1e-14, abs=1e-300
        )


def test_figure_error_rows_signs() -> None:
    rows = figure_error_rows()[:8]
    assert [row["n_max"] for row in rows] == list(range(1, 9))
    for row in rows:
        assert row["rel_err_T0"] > 0.0
        # each added gradient term is positive, so cumulative errors descend
        assert row["rel_err_T0"] > row["rel_err_T2"] > row["rel_err_T4"]
    # small systems overshoot under the corrections: the T2 column turns
    # positive at three shells, the T4 column only at eight
    assert [row["rel_err_T2"] > 0.0 for row in rows] == [False, False] + [True] * 6
    assert [row["rel_err_T4"] > 0.0 for row in rows] == [False] * 7 + [True]
