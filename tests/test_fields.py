"""STODensity as a radial field: evaluation, exact derivatives, charge, dilations."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from densities import value
from orbitals import orbital_density
from tfshell import _kernels
from tfshell.atomic_data import STODensity, atom_density, load_bundled, parse_sto_text

# a moderately rich density: two orbitals, one with a node, mixed powers
# sharing and not sharing exponents
RICH_ORBITALS = [
    [(1.5, 0, 0.85), (-0.6, 1, 0.85), (0.3, 2, 1.6)],
    [(0.9, 1, 0.45), (0.2, 3, 1.6)],
]


def naive_value(orbitals, r: float) -> float:
    return sum(sum(c * r**p * math.exp(-z * r) for c, p, z in orb) ** 2 for orb in orbitals)


def test_value_matches_direct_sum():
    field = orbital_density(RICH_ORBITALS)
    rng = np.random.default_rng(7)
    for r in rng.uniform(0.0, 20.0, size=60):
        expected = naive_value(RICH_ORBITALS, float(r))
        assert value(field, float(r)) == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_derivatives_match_symbolic():
    r = sp.Symbol("r", nonnegative=True)
    expr = sum(
        sum(c * r**p * sp.exp(-z * r) for c, p, z in orb) ** 2 for orb in RICH_ORBITALS
    )
    d1 = sp.lambdify(r, sp.diff(expr, r), "numpy")
    d2 = sp.lambdify(r, sp.diff(expr, r, 2), "numpy")
    field = orbital_density(RICH_ORBITALS)
    radii = np.concatenate([[0.0], np.geomspace(1e-4, 25.0, 40)])
    _, got1, got2 = field.profile(radii)
    ref1 = d1(radii)
    ref2 = d2(radii)
    scale1 = float(np.max(np.abs(ref1)))
    scale2 = float(np.max(np.abs(ref2)))
    assert np.all(np.abs(got1 - ref1) <= 1e-13 * scale1)
    assert np.all(np.abs(got2 - ref2) <= 1e-13 * scale2)


def test_profile_bundles_the_three_evaluations():
    field = orbital_density(RICH_ORBITALS)
    radii = np.linspace(0.0, 5.0, 11)
    v, d, dd = field.profile(radii)
    assert np.array_equal(v, value(field, radii))
    assert np.array_equal(d, field.profile(radii)[1])
    assert np.array_equal(dd, field.profile(radii)[2])


def test_profile_is_one_kernel_call(monkeypatch):
    calls = []
    kernel = _kernels.orbital_profile

    def counting(exponents, powers, coefs, r):
        calls.append(np.shape(r))
        return kernel(exponents, powers, coefs, r)

    monkeypatch.setattr(_kernels, "orbital_profile", counting)
    field = orbital_density(RICH_ORBITALS)
    field.profile(np.linspace(0.0, 5.0, 11))
    field.profile(2.5)
    assert calls == [(11,), ()]


def test_total_charge_against_quadrature():
    field = orbital_density(RICH_ORBITALS)
    numeric, err = quad(lambda r: 4.0 * math.pi * r * r * value(field, r), 0.0, 80.0, limit=200)
    assert err < 1e-6 * abs(numeric)
    assert field.total_charge() == pytest.approx(numeric, rel=1e-9)


# an orbital's primitive c r^p e^{-zeta r} squares to exponents 2 zeta in
# 0.2..8, the range of the density terms of a term-list field
primitive_strategy = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
)


@settings(max_examples=50, deadline=None)
@given(orbitals=st.lists(st.lists(primitive_strategy, min_size=1, max_size=3), min_size=1, max_size=3),
       lam=st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
def test_dilation_identity_and_charge_invariance(orbitals, lam):
    field = orbital_density(orbitals)
    # lam^3 rho(lam r): exponents times lam, coefficients times lam^{p + 3/2}
    scaled = orbital_density(
        [[(c * lam ** (p + 1.5), p, z * lam) for c, p, z in orb] for orb in orbitals]
    )
    for r in (0.0, 0.17, 1.0, 4.2):
        expected = lam**3 * value(field, lam * r)
        assert value(scaled, r) == pytest.approx(expected, rel=1e-12, abs=1e-250)
    charge_scale = 4.0 * math.pi * sum(
        abs(c_a * c_b) * math.exp(math.lgamma(p_a + p_b + 3.0) - (p_a + p_b + 3.0) * math.log(z_a + z_b))
        for orb in orbitals
        for c_a, p_a, z_a in orb
        for c_b, p_b, z_b in orb
    )
    assert abs(scaled.total_charge() - field.total_charge()) <= 1e-12 * charge_scale


def test_merged_is_equivalent_and_canonical():
    # atom_density gives a primitive shared by several orbitals one column,
    # in order of first appearance; the same orbitals with a column per
    # orbital and primitive give the same density
    record = BUNDLED["Ne"]
    merged = atom_density(record)
    keys = list(dict.fromkeys((p.n - 1, p.zeta) for orb in record.orbitals for p in orb.primitives))
    assert list(zip(merged.powers.tolist(), merged.exponents.tolist())) == keys
    prims = [(k, p) for k, orb in enumerate(record.orbitals) for p in orb.primitives]
    coefs = np.zeros((len(record.orbitals), len(prims)))
    for column, (k, p) in enumerate(prims):
        occupation = record.orbitals[k].occupation
        coefs[k, column] = p.coefficient * p.normalization * math.sqrt(occupation / (4.0 * math.pi))
    unmerged = STODensity(
        np.array([p.zeta for _, p in prims]),
        np.array([p.n - 1 for _, p in prims]),
        coefs,
        merged.total_charge(),
    )
    assert merged.coefs.shape[1] < unmerged.coefs.shape[1]
    radii = np.linspace(0.0, 10.0, 21)
    assert np.allclose(value(merged, radii), value(unmerged, radii), rtol=1e-13, atol=0.0)


def test_merged_keeps_cancelled_pairs_as_zero_terms():
    # a repeated primitive whose coefficients cancel keeps its column, at zero
    (bare,) = parse_sto_text("ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n")
    (padded,) = parse_sto_text(
        "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\nPRM 2 1.0 0.5\nPRM 2 1.0 -0.5\n"
    )
    rho, ref = atom_density(padded), atom_density(bare)
    assert rho.coefs.shape == (1, 2)
    assert rho.coefs[0, 1] == 0.0
    r = np.geomspace(1e-4, 30.0, 50)
    assert np.array_equal(np.array(rho.profile(r)), np.array(ref.profile(r)))


def test_addition_is_pointwise():
    # a density of two orbitals is the sum of the two one-orbital densities
    a = orbital_density([[(1.0, 0, 0.5)]])
    b = orbital_density([[(0.5, 1, 1.0)]])
    s = orbital_density([[(1.0, 0, 0.5)], [(0.5, 1, 1.0)]])
    for r in (0.0, 0.9, 3.3):
        assert value(s, r) == pytest.approx(value(a, r) + value(b, r), rel=1e-14)
    assert s.total_charge() == pytest.approx(a.total_charge() + b.total_charge(), rel=1e-14)
    # no term-list arithmetic on the density itself
    assert not hasattr(s, "__add__")


def scalar_profile(field: STODensity, r: float) -> tuple[float, float, float]:
    """(rho, rho', rho'') of sum_k phi_k^2 at one radius, orbital by orbital in plain floats."""
    sums = [0.0, 0.0, 0.0]
    for row in field.coefs:
        phi = [0.0, 0.0, 0.0]
        for c, p, z in zip(row, field.powers, field.exponents):
            e = c * math.exp(-z * r)
            q0 = r**p
            q1 = p * r ** (p - 1) if p >= 1 else 0.0
            q2 = p * (p - 1) * r ** (p - 2) if p >= 2 else 0.0
            phi[0] += e * q0
            phi[1] += e * (q1 - z * q0)
            phi[2] += e * (q2 - 2.0 * z * q1 + z * z * q0)
        sums[0] += phi[0] * phi[0]
        sums[1] += 2.0 * phi[0] * phi[1]
        sums[2] += 2.0 * (phi[1] * phi[1] + phi[0] * phi[2])
    return tuple(sums)


BUNDLED = load_bundled()


@pytest.mark.parametrize("name", [*BUNDLED, "zero", "rich"])
def test_derivative_rows_match_scalar_reference(name):
    if name == "zero":
        field = orbital_density([])
    elif name == "rich":
        field = orbital_density(RICH_ORBITALS)
    else:
        field = atom_density(BUNDLED[name])
    radii = np.concatenate([[0.0], np.geomspace(1e-4, 45.0, 40)])
    rows = field.profile(radii)
    ref = np.array([scalar_profile(field, float(r)) for r in radii]).T
    assert [row.shape for row in rows] == [radii.shape] * 3
    np.testing.assert_allclose(rows[0], ref[0], rtol=1e-13, atol=0.0)
    for got, want in zip(rows[1:], ref[1:]):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


def test_zero_field():
    zero = orbital_density([])
    assert value(zero, 1.0) == 0.0
    assert zero.total_charge() == 0.0
    arr = zero.profile(np.array([0.0, 1.0]))[1]
    assert np.array_equal(arr, np.zeros(2))


def test_term_validation():
    # a bad primitive of a hand-written orbital meets the constructor's checks
    # (test_atomic_data has one test per check)
    with pytest.raises(ValueError, match="powers"):
        orbital_density([[(1.0, -1, 1.0)]])  # negative power
    with pytest.raises(ValueError, match="powers"):
        orbital_density([[(1.0, 0.5, 1.0)]])  # fractional power
    with pytest.raises(ValueError, match="coefficients"):
        orbital_density([[(math.inf, 0, 1.0)]])
    with pytest.raises(ValueError, match="non-negative"):
        value(orbital_density([[(1.0, 0, 1.0)]]), -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("atom", ["He", "Ne", "Xe"])
def test_density_rejects_non_finite_radii(bundled, atom: str, bad: float) -> None:
    # NaN used to give NaN, and inf gave NaN for Ne and Xe (0 * inf)
    density = atom_density(bundled[atom])
    for method in (density.profile, functools.partial(value, density)):
        with pytest.raises(ValueError, match="finite"):
            method(bad)
        with pytest.raises(ValueError, match="finite"):
            method(np.array([0.5, bad]))


def test_integer_like_inputs_are_normalized():
    field = STODensity([3], [2.0], [[1]], 1.0)
    assert field.powers.dtype.kind == "i" and field.powers.tolist() == [2]
    for arr in (field.exponents, field.coefs):
        assert arr.dtype == np.float64
