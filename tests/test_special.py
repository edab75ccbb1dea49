"""The kernels' Laguerre recurrence against independent polynomial construction.

``wavefunctions.laguerre_array`` evaluates L_k^a with one track of the
shell kernel's recurrence, ``_kernels._laguerre_tops``, forward in the
degree; the shell kernel runs the same loop for two orders at once, and
the test-side ``radial_wavefunction`` builds single orbitals from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefunctions import laguerre_array

CASES = [(0, 0), (1, 2), (2, 1), (3, 3), (5, 0), (8, 5), (12, 2), (25, 7), (40, 1), (79, 3)]


def exact_coefficients(degree: int, order: int) -> list[Fraction]:
    """Descending coefficients of L_degree^order from sympy, as exact rationals."""
    x = sp.Symbol("x")
    poly = sp.Poly(sp.assoc_laguerre(degree, order, x), x)
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]


def exact_value(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("degree,order", CASES)
def test_recurrence_matches_exact_polynomial(degree, order):
    coeffs = exact_coefficients(degree, order)
    xs = [Fraction(k, 8) for k in range(0, 481, 13)]  # 0 .. 60
    exact = [exact_value(coeffs, x) for x in xs]
    scale = max(1.0, max(abs(float(e)) for e in exact))
    got = laguerre_array(degree, float(order), np.array([float(x) for x in xs]))
    for g, e in zip(got, exact):
        assert abs(g - float(e)) <= 1e-10 * scale


def test_value_at_zero_is_binomial():
    for degree, order in CASES:
        expected = math.comb(degree + order, degree)
        value = float(laguerre_array(degree, float(order), np.array([0.0]))[0])
        assert value == pytest.approx(expected, rel=1e-12)


def test_degree_one_is_affine():
    xs = np.array([0.0, 0.5, 17.25])
    # exact: single recurrence seed
    assert np.array_equal(laguerre_array(1, 4.0, xs), 5.0 - xs)


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=40),
    order=st.integers(min_value=0, max_value=10),
    x=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_contiguous_order_identity(degree, order, x):
    # L_k^a = L_k^{a+1} - L_{k-1}^{a+1}, independent of the degree recurrence
    arg = np.array([x])
    lhs = float(laguerre_array(degree, float(order), arg)[0])
    up = float(laguerre_array(degree, order + 1.0, arg)[0])
    down = float(laguerre_array(degree - 1, order + 1.0, arg)[0])
    scale = max(1.0, abs(lhs), abs(up), abs(down))
    assert abs(lhs - (up - down)) <= 1e-10 * scale


def test_scalar_and_array_paths_agree():
    # a 0-d argument gives a 0-d value, equal to the array path's
    xs = np.array([0.0, 0.3, 2.0, 11.5])
    arr = laguerre_array(7, 2.0, xs)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        scalar = laguerre_array(7, 2.0, np.asarray(float(x)))
        assert scalar.shape == ()
        assert float(scalar) == v
