"""The vectorized kernels against pointwise scalar references."""

import functools
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp

from orbitals import orbital_density
from pair_reference import pair_field, term_profile
from tfshell import _kernels
from tfshell.atomic_data import atom_density
from tfshell.hydrogenic import MAX_SHELLS, HydrogenicDensity, electron_count
from tfshell.kedf import grid_for, make_grid
from wavefunctions import laguerre_array


# ---------------------------------------------------------------------------
# pointwise references: one radius at a time, plain floats, the same formulas
# the kernels vectorize


def _exp_poly_reference(exponents: np.ndarray, coefs: np.ndarray, r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    n_deg = coefs.shape[1]
    for i, ri in enumerate(r):
        acc = 0.0
        for g in range(exponents.shape[0]):
            poly = coefs[g, n_deg - 1]
            for d in range(n_deg - 2, -1, -1):
                poly = poly * ri + coefs[g, d]
            acc += poly * math.exp(-exponents[g] * ri)
        out[i] = acc
    return out


def _laguerre_reference(k: int, alpha: float, x: float) -> float:
    if k < 0:
        return 0.0
    if k == 0:
        return 1.0
    prev = 1.0
    cur = alpha + 1.0 - x
    for j in range(1, k):
        prev, cur = cur, ((2.0 * j + alpha + 1.0 - x) * cur - (j + alpha) * prev) / (j + 1.0)
    return cur


def _shell_profile_reference(z: float, n_max: int, r: np.ndarray) -> tuple:
    rho = np.zeros_like(r)
    drho = np.zeros_like(r)
    d2rho = np.zeros_like(r)
    for n in range(1, n_max + 1):
        g = 2.0 * z / n
        for l in range(n):
            k = n - l - 1
            alpha = 2.0 * l + 1.0
            a_sq = g**3 / (2.0 * n) * math.exp(math.lgamma(k + 1.0) - math.lgamma(n + l + 1.0))
            w_occ = 2.0 * (2.0 * l + 1.0) * a_sq / (4.0 * math.pi)
            for i, ri in enumerate(r):
                x = g * ri
                p0 = _laguerre_reference(k, alpha, x)
                p1 = -_laguerre_reference(k - 1, alpha + 1.0, x)
                p2 = _laguerre_reference(k - 2, alpha + 2.0, x)
                xl = x**l
                xlm1 = x ** (l - 1) if l >= 1 else 0.0
                xlm2 = x ** (l - 2) if l >= 2 else 0.0
                q0 = xl * p0
                q1 = l * xlm1 * p0 + xl * p1
                q2 = l * (l - 1) * xlm2 * p0 + 2.0 * l * xlm1 * p1 + xl * p2
                e = math.exp(-0.5 * x)
                w0 = q0 * e
                w1 = (q1 - 0.5 * q0) * e
                w2 = (q2 - q1 + 0.25 * q0) * e
                rho[i] += w_occ * w0 * w0
                drho[i] += w_occ * 2.0 * w0 * w1 * g
                d2rho[i] += w_occ * 2.0 * (w1 * w1 + w0 * w2) * g * g
    return rho, drho, d2rho


# working digits of the orbital-sum oracle
ORBITAL_SUM_DPS = 32


def _shell_profile_oracle(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') summed orbital by orbital in 32-digit mpmath.

    Each L_k^a comes from ``mpmath.laguerre``; its derivatives use
    dL_k^a/dx = -L_{k-1}^{a+1}, each evaluated by mpmath on its own.
    """
    out = np.empty((3, r.size))
    with mpmath.workdps(ORBITAL_SUM_DPS):
        big_z = mpmath.mpf(z)
        for i, ri in enumerate(r):
            sums = [mpmath.mpf(0)] * 3
            for n in range(1, n_max + 1):
                g = 2 * big_z / n
                x = g * mpmath.mpf(float(ri))
                e = mpmath.exp(-x / 2)
                for l in range(n):
                    k, a = n - l - 1, 2 * l + 1
                    weight = (
                        g**3 / (2 * n) * mpmath.factorial(k) / mpmath.factorial(n + l)
                        * 2 * a / (4 * mpmath.pi)
                    )
                    p0 = mpmath.laguerre(k, a, x)
                    p1 = -mpmath.laguerre(k - 1, a + 1, x) if k >= 1 else 0
                    p2 = mpmath.laguerre(k - 2, a + 2, x) if k >= 2 else 0
                    q0 = x**l * p0
                    q1 = (l * x ** (l - 1) * p0 if l >= 1 else 0) + x**l * p1
                    q2 = (
                        (l * (l - 1) * x ** (l - 2) * p0 if l >= 2 else 0)
                        + (2 * l * x ** (l - 1) * p1 if l >= 1 else 0)
                        + x**l * p2
                    )
                    w0, w1, w2 = q0 * e, (q1 - q0 / 2) * e, (q2 - q1 + q0 / 4) * e
                    sums[0] += weight * w0 * w0
                    sums[1] += weight * 2 * w0 * w1 * g
                    sums[2] += weight * 2 * (w1 * w1 + w0 * w2) * g * g
            out[:, i] = [float(v) for v in sums]
    return tuple(out)


def _shell_closed_form_oracle(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') from each shell's closed form n A^2 + x B C in 40-digit mpmath.

    The kernel's formulas for S, S' and S'' (proved equal to the orbital sum
    by ``test_shell_closed_form_is_the_orbital_sum``), with every Laguerre
    value from ``mpmath.laguerre``: fast enough for 100 shells, where the
    orbital sum has 5050 orbitals.
    """
    out = np.empty((3, r.size))
    with mpmath.workdps(40):
        big_z = mpmath.mpf(z)
        for i, ri in enumerate(r):
            sums = [mpmath.mpf(0)] * 3
            for n in range(1, n_max + 1):
                g = 2 * big_z / n
                x = g * mpmath.mpf(float(ri))

                def lag(k: int, a: int):
                    return mpmath.laguerre(k, a, x) if k >= 0 else 0

                a, b, c = lag(n - 1, 0), lag(n - 1, 1), lag(n - 2, 1)
                d, e, f, gl = lag(n - 2, 2), lag(n - 3, 2), lag(n - 3, 3), lag(n - 4, 3)
                s0 = n * a * a + x * b * c
                s1 = -2 * n * a * c + b * c - x * (d * c + b * e)
                s2 = 2 * n * (c * c + a * e) - 2 * (d * c + b * e) + x * (f * c + 2 * d * e + b * gl)
                weight = g**3 / (4 * mpmath.pi * n) * mpmath.exp(-x)
                sums[0] += weight * s0
                sums[1] += weight * g * (s1 - s0)
                sums[2] += weight * g * g * (s2 - 2 * s1 + s0)
            out[:, i] = [float(v) for v in sums]
    return tuple(out)


def _exp_poly_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20260821)
    n_groups, degree = 9, 7
    exponents = np.sort(rng.uniform(0.3, 8.0, n_groups))
    coefs = rng.normal(scale=2.0, size=(n_groups, degree + 1))
    r = np.geomspace(1e-5, 35.0, 1500)
    return exponents, coefs, r


def test_pair_reference_matches_horner_sum() -> None:
    # the term-by-term evaluation of the pair-expansion reference against
    # the pointwise Horner sum
    exponents, coefs, r = _exp_poly_inputs()
    reference = _exp_poly_reference(exponents, coefs, r)
    terms = [(c, d, b) for b, row in zip(exponents, coefs) for d, c in enumerate(row)]
    vector = term_profile(terms, r)[0]
    scale = np.max(np.abs(vector))
    np.testing.assert_allclose(reference, vector, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("atom", ["Ne", "Xe", None])
def test_orbital_profile_stacked_rows_match_single_rows(bundled, atom) -> None:
    # the K orbital rows of one orbital_profile call against K one-orbital calls
    density = orbital_density([]) if atom is None else atom_density(bundled[atom])
    inputs = _orbital_inputs(density)
    exponents, powers, coefs = inputs
    r = make_grid(2000, 45.0).nodes
    rows = np.array(_kernels.orbital_profile(*inputs, r))
    assert rows.shape == (3, r.size)
    singles = np.zeros_like(rows)
    for k in range(coefs.shape[0]):
        singles += _kernels.orbital_profile(exponents, powers, coefs[k:k + 1], r)
    np.testing.assert_allclose(rows[0], singles[0], rtol=1e-13, atol=0.0)
    for got, ref in zip(rows[1:], singles[1:]):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))
    if atom is None:
        assert not rows.any()


def _exp_poly_oracle(terms, r: np.ndarray) -> np.ndarray:
    """(rho, rho', rho'') of a term list c r^p e^{-b r}, summed in 30-digit mpmath."""
    out = np.empty((3, r.size))
    with mpmath.workdps(30):
        for i, ri in enumerate(r):
            x = mpmath.mpf(float(ri))
            sums = [mpmath.mpf(0)] * 3
            for c, p, b in terms:
                b = mpmath.mpf(b)
                e = mpmath.mpf(c) * mpmath.exp(-b * x)
                # r^p and its first two r-derivatives
                q0 = x**p
                q1 = p * x ** (p - 1) if p >= 1 else 0
                q2 = p * (p - 1) * x ** (p - 2) if p >= 2 else 0
                sums[0] += e * q0
                sums[1] += e * (q1 - b * q0)
                sums[2] += e * (q2 - 2 * b * q1 + b * b * q0)
            out[:, i] = [float(v) for v in sums]
    return out


@pytest.mark.parametrize("atom", ["Ne", "Xe"])
def test_pair_reference_matches_mpmath_oracle(bundled, atom) -> None:
    # the pair-expansion reference that test_orbital_profile_matches_pair_expansion reads
    terms = pair_field(bundled[atom])
    # the cusp, the shell region and the tail out to the table1 cutoff
    r = np.array([1e-6, 1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 45.0])
    rho, drho, d2rho = term_profile(terms, r)
    ref_rho, ref_drho, ref_d2rho = _exp_poly_oracle(terms, r)
    live = ref_rho > 1e-250
    assert live.all()
    np.testing.assert_allclose(rho[live], ref_rho[live], rtol=1e-13, atol=0.0)
    for got, ref in ((drho, ref_drho), (d2rho, ref_d2rho)):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def _orbital_oracle(record, r: np.ndarray) -> np.ndarray:
    """(rho, rho', rho'') of (1/4pi) sum occ R^2, orbital by orbital in 30-digit mpmath.

    Each R and its two r-derivatives are summed from the record's
    primitives, with their normalizations recomputed in mpmath.
    """
    out = np.empty((3, r.size))
    with mpmath.workdps(30):
        for i, ri in enumerate(r):
            x = mpmath.mpf(float(ri))
            sums = [mpmath.mpf(0)] * 3
            for orb in record.orbitals:
                radial = [mpmath.mpf(0)] * 3
                for prim in orb.primitives:
                    zeta, p = mpmath.mpf(prim.zeta), prim.n - 1
                    norm = mpmath.sqrt((2 * zeta) ** (2 * prim.n + 1) / mpmath.factorial(2 * prim.n))
                    e = mpmath.mpf(prim.coefficient) * norm * mpmath.exp(-zeta * x)
                    q0 = x**p
                    q1 = p * x ** (p - 1) if p >= 1 else 0
                    q2 = p * (p - 1) * x ** (p - 2) if p >= 2 else 0
                    radial[0] += e * q0
                    radial[1] += e * (q1 - zeta * q0)
                    radial[2] += e * (q2 - 2 * zeta * q1 + zeta * zeta * q0)
                w = orb.occupation / (4 * mpmath.pi)
                r0, r1, r2 = radial
                sums[0] += w * r0 * r0
                sums[1] += w * 2 * r0 * r1
                sums[2] += w * 2 * (r1 * r1 + r0 * r2)
            out[:, i] = [float(v) for v in sums]
    return out


def _orbital_inputs(density) -> tuple:
    return density.exponents, density.powers, density.coefs


@pytest.mark.parametrize("atom", ["Ne", "Xe"])
def test_orbital_profile_matches_mpmath_oracle(bundled, atom) -> None:
    density = atom_density(bundled[atom])
    # the radii of the pair-expansion oracle test
    r = np.array([1e-6, 1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 45.0])
    rho, drho, d2rho = _kernels.orbital_profile(*_orbital_inputs(density), r)
    ref_rho, ref_drho, ref_d2rho = _orbital_oracle(bundled[atom], r)
    assert (ref_rho > 1e-250).all()
    np.testing.assert_allclose(rho, ref_rho, rtol=1e-13, atol=0.0)
    for got, ref in ((drho, ref_drho), (d2rho, ref_d2rho)):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("atom", ["He", "Ne", "Xe"])
def test_orbital_profile_is_independent_of_blocks(bundled, monkeypatch, atom) -> None:
    inputs = _orbital_inputs(atom_density(bundled[atom]))
    r = make_grid(2000, 45.0).nodes
    whole = np.array(_kernels.orbital_profile(*inputs, r))
    # uneven pieces, single nodes among them, concatenated
    cuts = [0, 1, 2, 7, 300, 1001, 4124, r.size]
    pieces = [np.array(_kernels.orbital_profile(*inputs, r[a:b])) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces, axis=1), whole)
    # a 2-D r gives the 1-D result reshaped
    square = _kernels.orbital_profile(*inputs, r.reshape(33, 125))
    assert np.array_equal(np.array(square), whole.reshape(3, 33, 125))
    # other block sizes move every block boundary
    for budget in (2**10, 2**14):
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", budget)
        assert np.array_equal(np.array(_kernels.orbital_profile(*inputs, r)), whole)


def test_orbital_profile_working_set_is_one_block(bundled) -> None:
    inputs = _orbital_inputs(atom_density(bundled["Xe"]))
    r = np.linspace(0.0, 45.0, 60_000)
    tracemalloc.start()
    try:
        rows = _kernels.orbital_profile(*inputs, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.shape for row in rows] == [r.shape] * 3
    # one block of basis rows (256 KiB) and the three (K, M) orbital rows
    assert peak - sum(row.nbytes for row in rows) < 2**20


@pytest.mark.parametrize("kernel", ["shell", "orbital"])
def test_profile_kernels_check_and_clamp_any_radius(bundled, kernel) -> None:
    # two filled shells at Z = 10, or the Slater-type orbitals of He
    profile = {
        "shell": functools.partial(_kernels.shell_profile, 10.0, 2),
        "orbital": functools.partial(_kernels.orbital_profile, *_orbital_inputs(atom_density(bundled["He"]))),
    }[kernel]
    for bad in (math.nan, math.inf, -math.inf, -1e-9):
        for r in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match="^radius must be finite and non-negative$"):
                profile(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = [profile(1e300), [row[1] for row in profile(np.array([0.5, 1e300]))]]
        scalar, single = profile(0.7), profile(np.array([0.7]))
    for rows in far:
        # +0.0, not -0.0
        assert [(float(v), math.copysign(1.0, v)) for v in rows] == [(0.0, 1.0)] * 3
    assert [row.shape for row in scalar] == [()] * 3
    assert [float(row) for row in scalar] == [float(row[0]) for row in single]


def test_only_the_kernels_hold_the_radius_rule() -> None:
    # the radius check and the underflow clamp have one owner, _kernels
    package = Path(_kernels.__file__).parent
    for text in ("radius must be finite and non-negative", "UNDERFLOW_X"):
        holders = [p.name for p in sorted(package.glob("*.py")) if text in p.read_text(encoding="utf-8")]
        assert holders == ["_kernels.py"], text


def test_orbital_profile_matches_pair_expansion(bundled) -> None:
    # the nodes of a table1 row: its Gauss and Kronrod nodes
    r = make_grid(2000, 45.0).nodes
    for symbol, record in bundled.items():
        rho, drho, d2rho = atom_density(record).profile(r)
        ref_rho, ref_drho, ref_d2rho = term_profile(pair_field(record), r)
        np.testing.assert_allclose(rho, ref_rho, rtol=1e-13, atol=0.0, err_msg=symbol)
        for got, ref in ((drho, ref_drho), (d2rho, ref_d2rho)):
            np.testing.assert_allclose(
                got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)), err_msg=symbol
            )


@pytest.mark.parametrize("z,n_max", [(2.0, 1), (28.0, 3), (110.0, 5)])
def test_shell_profile_backends_agree(z: float, n_max: int) -> None:
    r = np.geomspace(1e-5, 40.0 / z * n_max**2 + 1.0, 900)
    reference = _shell_profile_reference(z, n_max, r)
    vector = _kernels.shell_profile(z, n_max, r)
    for a, b in zip(reference, vector):
        scale = np.max(np.abs(b))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)


def test_laguerre_array_matches_reference() -> None:
    x = np.linspace(0.0, 25.0, 400)
    # radial_wavefunction reads degrees up to 39 (MAX_SHELLS - 1); 80 reaches beyond
    for k, alpha in [(0, 1.0), (1, 3.0), (4, 5.0), (9, 2.0), (40, 1.0), (80, 3.0)]:
        ours = laguerre_array(k, alpha, x)
        with mpmath.workdps(40):
            reference = np.array([float(mpmath.laguerre(k, alpha, mpmath.mpf(float(v)))) for v in x])
        scale = max(1.0, float(np.max(np.abs(reference))))
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=1e-12 * scale)


def test_shell_closed_form_is_the_orbital_sum() -> None:
    # the kernel's per-shell identity and its two derivatives, as exact
    # polynomials over the rationals; negative Laguerre degrees read as zero
    x = sp.Symbol("x")
    xp = sp.Poly(x, x, domain="QQ")

    def lag(k: int, a: int) -> sp.Poly:
        return sp.Poly(sp.assoc_laguerre(k, a, x) if k >= 0 else 0, x, domain="QQ")

    for n in range(1, 13):
        orbitals = sum(
            (
                xp ** (2 * l) * lag(n - l - 1, 2 * l + 1) ** 2
                * ((2 * l + 1) * sp.factorial(n - l - 1) / sp.factorial(n + l))
                for l in range(n)
            ),
            sp.Poly(0, x, domain="QQ"),
        )
        a, b, c = lag(n - 1, 0), lag(n - 1, 1), lag(n - 2, 1)
        d, e, f, g = lag(n - 2, 2), lag(n - 3, 2), lag(n - 3, 3), lag(n - 4, 3)
        closed = n * a**2 + xp * b * c
        first = -2 * n * a * c + b * c - xp * (d * c + b * e)
        second = 2 * n * (c**2 + a * e) - 2 * (d * c + b * e) + xp * (f * c + 2 * d * e + b * g)
        assert (orbitals - closed).is_zero, n
        assert (closed.diff(x) - first).is_zero, n
        assert (closed.diff((x, 2)) - second).is_zero, n


def oracle_radii(n_max: int) -> tuple[float, np.ndarray]:
    """(Z, r) of the neutral n_max-shell density at the oracle test's six radii.

    The cusp, the shell region and the tail out to the quadrature cutoff.
    """
    z = n_max * (n_max + 1) * (2 * n_max + 1) / 3.0
    r_max = (6.0 * n_max**2 + 40.0) / z
    return z, r_max * np.array([1e-7, 1e-4, 1e-2, 0.1, 0.5, 1.0])


# the orbital-sum oracle at n_max 40 and 60, tabulated: summing it takes
# seconds, so tests/shell_profile_oracle.py writes it once, by hand
ORACLE_TABLE = Path(__file__).with_name("shell_profile_oracle.txt")


def _tabulated_oracle(z: float, n_max: int, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') of ``_shell_profile_oracle`` as ``ORACLE_TABLE`` holds them."""
    lines = ORACLE_TABLE.read_text(encoding="utf-8").splitlines()
    rows = np.array(
        [[float(v) for v in line.split()[1:]] for line in lines if line.split()[0] == str(n_max)]
    )
    # the table was summed at these very radii
    np.testing.assert_array_equal(rows[:, 0], r)
    return tuple(rows[:, 1:].T)


@pytest.mark.parametrize("n_max", [25, 40, 60, 100])
def test_shell_profile_matches_mpmath_oracle(n_max: int) -> None:
    # 60 and 100 shells lie beyond MAX_SHELLS and check the kernel alone;
    # 100 shells is checked against the closed form, not the orbital sum,
    # and 40 and 60 against the orbital sum's table
    z, r = oracle_radii(n_max)
    rho, drho, d2rho = _kernels.shell_profile(z, n_max, r)
    oracle = {25: _shell_profile_oracle, 100: _shell_closed_form_oracle}.get(n_max, _tabulated_oracle)
    ref_rho, ref_drho, ref_d2rho = oracle(z, n_max, r)
    live = ref_rho > 1e-250
    assert live.all()
    np.testing.assert_allclose(rho[live], ref_rho[live], rtol=1e-13, atol=0.0)
    for got, ref in ((drho, ref_drho), (d2rho, ref_d2rho)):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("z", [9.21, float(electron_count(MAX_SHELLS))])
def test_every_shell_prefix_is_the_shell_profile(z: float) -> None:
    # on the ladder's shared grid, every prefix k of one pass is the k-shell
    # profile bit for bit, whichever pass it came from
    r = grid_for(HydrogenicDensity(MAX_SHELLS)).nodes
    seen = []
    for n, *rows in _kernels.shell_prefixes(z, MAX_SHELLS, r):
        seen.append(n)
        for got, want in zip(rows, _kernels.shell_profile(z, n, r)):
            assert np.array_equal(got, want), n
    assert seen == list(range(1, MAX_SHELLS + 1))
