"""RadialField: evaluation, exact derivatives, Gamma moments, dilations."""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tfshell.atomic_data import atom_density, load_bundled
from tfshell.fields import RadialField

# a moderately rich field: mixed powers sharing and not sharing exponents
RICH_TERMS = [(2.3, 0, 1.7), (-0.4, 2, 1.7), (1.1, 1, 0.9), (0.05, 4, 3.2)]


def naive_value(terms, r: float) -> float:
    return sum(c * r**p * math.exp(-b * r) for c, p, b in terms)


def test_value_matches_direct_sum():
    field = RadialField(RICH_TERMS)
    rng = np.random.default_rng(7)
    for r in rng.uniform(0.0, 20.0, size=60):
        expected = naive_value(RICH_TERMS, float(r))
        assert field.value(float(r)) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_derivatives_match_symbolic():
    r = sp.Symbol("r", nonnegative=True)
    expr = sum(c * r**p * sp.exp(-b * r) for c, p, b in RICH_TERMS)
    d1 = sp.lambdify(r, sp.diff(expr, r), "numpy")
    d2 = sp.lambdify(r, sp.diff(expr, r, 2), "numpy")
    field = RadialField(RICH_TERMS)
    radii = np.concatenate([[0.0], np.geomspace(1e-4, 25.0, 40)])
    got1 = field.derivative(radii)
    got2 = field.second_derivative(radii)
    ref1 = d1(radii)
    ref2 = d2(radii)
    scale1 = float(np.max(np.abs(ref1)))
    scale2 = float(np.max(np.abs(ref2)))
    assert np.all(np.abs(got1 - ref1) <= 1e-13 * scale1)
    assert np.all(np.abs(got2 - ref2) <= 1e-13 * scale2)


def test_profile_bundles_the_three_evaluations():
    field = RadialField(RICH_TERMS)
    radii = np.linspace(0.0, 5.0, 11)
    v, d, dd = field.profile(radii)
    assert np.array_equal(v, field.value(radii))
    assert np.array_equal(d, field.derivative(radii))
    assert np.array_equal(dd, field.second_derivative(radii))


def test_profile_is_one_kernel_call(monkeypatch):
    from tfshell import _kernels

    calls = []
    kernel = _kernels.exp_poly_eval

    def counting(exponents, coefs, r):
        calls.append(coefs.shape)
        return kernel(exponents, coefs, r)

    monkeypatch.setattr(_kernels, "exp_poly_eval", counting)
    field = RadialField(RICH_TERMS)
    field.profile(np.linspace(0.0, 5.0, 11))
    field.profile(2.5)
    assert [shape[0] for shape in calls] == [3, 3]


def test_total_charge_against_quadrature():
    field = RadialField(RICH_TERMS)
    numeric, err = quad(lambda r: 4.0 * math.pi * r * r * field.value(r), 0.0, 80.0, limit=200)
    assert err < 1e-6 * abs(numeric)
    assert field.total_charge() == pytest.approx(numeric, rel=1e-9)


def test_tail_charge_properties():
    field = RadialField(RICH_TERMS)
    total = field.total_charge()
    assert field.tail_charge(0.0) == pytest.approx(total, rel=1e-13)
    cuts = [0.5, 1.0, 2.0, 5.0, 10.0]
    tails = [field.tail_charge(c) for c in cuts]
    assert all(a > b for a, b in zip(tails, tails[1:]))  # positive field: decreasing
    head, _ = quad(lambda r: 4.0 * math.pi * r * r * field.value(r), 0.0, 2.0, limit=200)
    assert head + field.tail_charge(2.0) == pytest.approx(total, rel=1e-9)
    with pytest.raises(ValueError):
        field.tail_charge(-1.0)


def test_suggested_r_max_bounds_the_tail():
    field = RadialField(RICH_TERMS)
    for fraction in (1e-8, 1e-12):
        r_max = field.suggested_r_max(fraction)
        assert abs(field.tail_charge(r_max)) <= 1.01 * fraction * abs(field.total_charge())


term_strategy = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.2, max_value=8.0, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(terms=st.lists(term_strategy, min_size=1, max_size=5),
       lam=st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
def test_dilation_identity_and_charge_invariance(terms, lam):
    field = RadialField(terms)
    scaled = field.scaled(lam)
    for r in (0.0, 0.17, 1.0, 4.2):
        expected = lam**3 * field.value(lam * r)
        assert scaled.value(r) == pytest.approx(expected, rel=1e-12, abs=1e-250)
    charge_scale = sum(
        abs(c) * math.exp(math.lgamma(p + 3.0) - (p + 3.0) * math.log(b)) for c, p, b in terms
    ) * 4.0 * math.pi
    assert abs(scaled.total_charge() - field.total_charge()) <= 1e-12 * charge_scale


def test_merged_is_equivalent_and_canonical():
    messy = RadialField([(1.0, 2, 3.0), (0.5, 0, 1.0), (2.0, 2, 3.0), (0.25, 0, 1.0)])
    merged = messy.merged()
    assert merged.terms == ((0.75, 0, 1.0), (3.0, 2, 3.0))  # one term per (power, exponent), sorted
    radii = np.linspace(0.0, 10.0, 21)
    assert np.allclose(merged.value(radii), messy.value(radii), rtol=1e-13, atol=0.0)


def test_merged_keeps_cancelled_pairs_as_zero_terms():
    # exact cancellation collapses to a single zero coefficient, not a dropped term
    messy = RadialField([(0.5, 1, 2.0), (-0.5, 1, 2.0)])
    merged = messy.merged()
    assert merged.terms == ((0.0, 1, 2.0),)
    assert merged.value(1.3) == 0.0


def test_addition_is_pointwise():
    a = RadialField([(1.0, 0, 1.0)])
    b = RadialField([(0.5, 2, 2.0)])
    s = a + b
    for r in (0.0, 0.9, 3.3):
        assert s.value(r) == pytest.approx(a.value(r) + b.value(r), rel=1e-14)
    assert a.__add__(3) is NotImplemented


def scalar_derivative_rows(field: RadialField) -> tuple[np.ndarray, np.ndarray]:
    """Rows of d/dr and d2/dr2, one element at a time in the formula's order."""
    exps, coefs = field._groups
    first = np.zeros_like(coefs)
    second = np.zeros_like(coefs)
    n_deg = coefs.shape[1]
    for g in range(exps.size):
        b = exps[g]
        for d in range(n_deg):
            v = -b * coefs[g, d]
            if d + 1 < n_deg:
                v += (d + 1) * coefs[g, d + 1]
            first[g, d] = v
            v = b * b * coefs[g, d]
            if d + 1 < n_deg:
                v -= 2.0 * b * (d + 1) * coefs[g, d + 1]
            if d + 2 < n_deg:
                v += (d + 2) * (d + 1) * coefs[g, d + 2]
            second[g, d] = v
    return first, second


BUNDLED = load_bundled()


@pytest.mark.parametrize("name", [*BUNDLED, "zero", "rich"])
def test_derivative_rows_match_scalar_reference(name):
    if name == "zero":
        field = RadialField([])
    elif name == "rich":
        field = RadialField(RICH_TERMS)
    else:
        field = atom_density(BUNDLED[name])
    first, second = scalar_derivative_rows(field)
    assert field._deriv_coefs.shape == first.shape
    assert field._deriv_coefs.tobytes() == first.tobytes()
    assert field._deriv2_coefs.shape == second.shape
    assert field._deriv2_coefs.tobytes() == second.tobytes()


def test_merged_from_equals_merged_field():
    raw = [(1.0, 2, 3.0), (0.5, 0, 1.0), (2.0, 2.0, 3.0), (0.25, 0, 1)]
    raw += [(-0.5, 1, 2.0), (0.5, 1, 2.0)]
    assert RadialField.merged_from(raw).terms == RadialField(raw).merged().terms
    for bad in ([(1.0, -1, 1.0)], [(1.0, 0, 0.0)], [(math.inf, 0, 1.0)], [(1.0, 0.5, 1.0)]):
        with pytest.raises(ValueError):
            RadialField.merged_from(bad)


def test_atom_density_validates_once(monkeypatch):
    built = []
    init = RadialField.__init__

    def counting(self, terms):
        terms = list(terms)
        built.append(len(terms))
        init(self, terms)

    monkeypatch.setattr(RadialField, "__init__", counting)
    field = atom_density(BUNDLED["Ne"])
    # one field is built, from the merged terms
    assert built == [len(field.terms)]


def test_zero_field():
    zero = RadialField([])
    assert zero.value(1.0) == 0.0
    assert zero.total_charge() == 0.0
    assert zero.suggested_r_max() == 1.0
    arr = zero.derivative(np.array([0.0, 1.0]))
    assert np.array_equal(arr, np.zeros(2))


def test_term_validation():
    with pytest.raises(ValueError):
        RadialField([(1.0, -1, 1.0)])  # negative power
    with pytest.raises(ValueError):
        RadialField([(1.0, 0.5, 1.0)])  # fractional power
    with pytest.raises(ValueError):
        RadialField([(1.0, 0, 0.0)])  # exponent must be positive
    with pytest.raises(ValueError):
        RadialField([(math.inf, 0, 1.0)])
    with pytest.raises(ValueError):
        RadialField([(1.0, 0, 1.0)]).value(-0.1)
    with pytest.raises(ValueError):
        RadialField([(1.0, 0, 1.0)]).scaled(0.0)


def test_integer_like_inputs_are_normalized():
    field = RadialField([(1, 2, 3)])
    assert field.terms == ((1.0, 2, 3.0),)
    assert isinstance(field.terms[0][1], int)
