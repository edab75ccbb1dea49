"""Acceptance gate: one test per release criterion, with timing caps.

Each test records a one-line verdict through ``record_criterion`` before
asserting, so the terminal summary lists every criterion's outcome even
when one fails mid-run.

Criterion 3 checks the Z^2 coefficient of the ladder's local-density
energy T_TF against an independent oracle, ``_core_scaling_z2_coefficient``,
built from scipy's Laguerre polynomials without any tfshell code. It
follows the core-scaling (Scott) argument of Schwinger, Phys. Rev. A 22,
1827 (1980), and Heilmann & Lieb, Phys. Rev. A 52, 3628 (1995). With unit
charge let rho_n be the density of n filled shells and m = n + 1/2, so
Z = (2/3) m^3 - m/6 and T_TF(Z) = c_F Z^2 int rho_n^{5/3} d^3x with
c_F = (3/10)(3 pi^2)^{2/3}. The Thomas-Fermi density with Fermi level
-1/(2 m^2) gives int rho^{5/3} = m / c_F exactly (virial theorem), and
int rho_n^{5/3} = m / c_F + C + o(1) with
C = int [rho_inf^{5/3} - rho_TF0^{5/3}] d^3x, where rho_inf is the density
of every bound hydrogenic state and rho_TF0 = (2/x)^{3/2} / (3 pi^2). Since
Z^2 m carries only Z^{7/3} and Z^{5/3} terms, the Z^2 coefficient is c_F C.
The oracle gives -0.65282 and -0.65280 at its two cutoff settings; the
ripple left in its partial integrals limits it to about 3e-4 (other panel
widths and cutoffs give -0.6527 to -0.6530). The Richardson fit of the
ladder gives -0.652872. The paper's printed -0.625856, which
``tfshell asymptotics`` still lists as the target of that row, is 0.027 away
from both: 27 times the 1e-3 tolerance, so it is not the Z^2 coefficient of
this quantity.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import sympy as sp
from scipy import integrate, special

import conftest
from densities import energies_on
from orbitals import orbital_density
from oscillations import oscillation_amplitude, shell_oscillation_maxima
from tfshell import _kernels
from tfshell.asymptotics import (
    MODEL_SERIES,
    TURNING_POINT,
    fit_rows,
    model_energy_sequence,
    tf_limit_density,
)
from tfshell.correction import TABLE1_ERROR_KEYS, delta_t, table1_row
from tfshell.hydrogenic import (
    MAGIC_NUMBERS,
    HydrogenicDensity,
    electron_count,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
)
from tfshell.atomic_data import atom_density
from tfshell.kedf import energies, grid_for, make_grid
from wavefunctions import laguerre_array, radial_wavefunction


def record_criterion(number: int, label: str, ok: bool, detail: str) -> None:
    conftest.ACCEPTANCE_RESULTS.append((f"criterion {number} ({label})", ok, detail))


def test_criterion_1_model_ladder_energies():
    start = time.perf_counter()
    exact_ok = all(model_kinetic_energy(n) == float(n * electron_count(n) ** 2) for n in range(1, 9))
    continuous_dev = max(
        abs(model_kinetic_energy_continuous(float(z)) / (n * z * z) - 1.0)
        for n, z in enumerate(MAGIC_NUMBERS, start=1)
    )
    elapsed = time.perf_counter() - start
    ok = exact_ok and continuous_dev <= 1e-9 and elapsed < 1.0
    record_criterion(
        1,
        "model ladder energies",
        ok,
        f"closed shells exact through n_max=8, continuous dev {continuous_dev:.1e}, {elapsed:.2f}s",
    )
    assert exact_ok
    assert continuous_dev <= 1e-9
    assert elapsed < 1.0


# Nonzero series coefficients as printed alongside their exact surds, keyed
# by the k of Z^{k/3}.
PRINTED_EXPANSION = (
    (7, 1.144714),
    (6, -0.5),
    (5, 0.072798),
    (1, -0.000098),
    (-1, 0.000006),
)


def test_criterion_2_expansion_coefficients():
    start = time.perf_counter()
    series = dict(MODEL_SERIES)
    worst = max(abs(series[p] - printed) for p, printed in PRINTED_EXPANSION)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    record_criterion(
        2,
        "expansion coefficients",
        ok,
        f"five printed values matched, worst |dev| {worst:.1e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_3_extrapolated_ladder_coefficients():
    start = time.perf_counter()
    # the four fits of `tfshell asymptotics`, on the whole ladder
    fits = fit_rows(model_energy_sequence(range(2, 26)))
    rows = {(row["series"], row["power"]): row for row in fits}
    tf_fit = [rows["T_TF", power]["fitted"] for power in ("Z^{7/3}", "Z^2", "Z^{5/3}")]
    elapsed = time.perf_counter() - start

    oracle_start = time.perf_counter()
    oracle_coarse = _core_scaling_z2_coefficient(80, 200.0)
    oracle = _core_scaling_z2_coefficient(100, 250.0)
    oracle_elapsed = time.perf_counter() - oracle_start

    def near(series: str, power: str) -> tuple[str, bool]:
        row = rows[series, power]
        name = f"{series} {power} within {row['tolerance']:g} of {row['target']!r}"
        return name, abs(row["fitted"] - row["target"]) <= row["tolerance"]

    t2_lead = rows["T2", "Z^{7/3}"]
    checks = [
        near("T_TF", "Z^{7/3}"),
        ("T_TF Z^2 within 1e-3 of the core-scaling oracle", abs(tf_fit[1] - oracle) <= 1e-3),
        (
            "oracle at (N, X) = (80, 200) within 3e-4 of (100, 250)",
            abs(oracle_coarse - oracle) <= 3e-4,
        ),
        near("T_TF", "Z^{5/3}"),
        (
            "T2 leading coefficient |a| < 1e-4",
            abs(t2_lead["fitted"] - t2_lead["target"]) < t2_lead["tolerance"],
        ),
        near("T2", "Z^{-1/3}"),
        near("T4", "Z^{-1/3}"),
        ("runtime under 300s", elapsed < 300.0),
        ("oracle runtime under 15s", oracle_elapsed < 15.0),
    ]
    failing = [name for name, passed in checks if not passed]
    record_criterion(
        3,
        "extrapolated ladder coefficients",
        not failing,
        f"Z^2 fitted {tf_fit[1]:.6f} vs core-scaling oracle {oracle:.6f} "
        f"(paper prints -0.625856, {abs(oracle + 0.625856):.3f} away)"
        + ("" if not failing else f"; failing: {', '.join(failing)}")
        + f", {elapsed:.1f}s + oracle {oracle_elapsed:.1f}s",
    )
    assert not failing, (
        f"fitted coefficients (Z^{{7/3}} {tf_fit[0]:.7f}, Z^2 {tf_fit[1]:.6f}, "
        f"Z^{{5/3}} {tf_fit[2]:.5f}; oracle Z^2 {oracle:.6f}, {oracle_coarse:.6f}); "
        f"failing checks: {failing}"
    )


# Printed error table for the closed-subshell atoms, kept as strings so
# each entry's own print precision is recoverable.
PRINTED_TABLE = {
    "He": ("-11", "0.59", "3.6", "0.95"),
    "Ne": ("-8.4", "-0.56", "0.95", "0.28"),
    "Ar": ("-7.0", "-0.49", "0.69", "0.36"),
    "Kr": ("-5.8", "-0.69", "0.18", "0.11"),
    "Xe": ("-5.2", "-0.68", "0.067", "0.073"),
}


def _printed_tolerance(entry: str) -> float:
    # 0.3 percentage points, widened to half an ulp of the printed value
    # for entries printed with no decimals
    decimals = len(entry.split(".")[1]) if "." in entry else 0
    return max(0.3, 0.5 * 10.0 ** (-decimals))


def _error_columns(record) -> tuple[float, float, float, float]:
    # the grid, the correction and the error columns of the table1 row
    delta, _ = delta_t(record.atomic_number, "refit")
    row = table1_row(record, delta, energies(atom_density(record)))
    return tuple(row[key] for key in TABLE1_ERROR_KEYS)


def test_criterion_4_atom_table_reproduction(bundled):
    start = time.perf_counter()
    violations = []
    worst = 0.0
    for symbol, printed in PRINTED_TABLE.items():
        errors = _error_columns(bundled[symbol])
        for column, (got, want) in enumerate(zip(errors, printed)):
            deviation = abs(got - float(want))
            worst = max(worst, deviation)
            if deviation > _printed_tolerance(want):
                violations.append(f"{symbol} column {column}: {got:.3f} vs printed {want}")
        if not errors[0] < 0.0:
            violations.append(f"{symbol}: local-density error must be negative")
        if not errors[3] > 0.0:
            violations.append(f"{symbol}: corrected error must be positive")
    # the two other spin-paired atoms in the bundle obey the same bounds
    for symbol in ("Be", "Mg"):
        errors = _error_columns(bundled[symbol])
        if not errors[0] < 0.0 < errors[3]:
            violations.append(f"{symbol}: bound-direction signs violated")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    record_criterion(
        4,
        "atom table reproduction",
        ok,
        f"worst |dev| {worst:.3f} pp over 5 atoms x 4 columns, {elapsed:.1f}s",
    )
    assert not violations, violations
    assert elapsed < 30.0


def test_criterion_5_improvement_factor(bundled):
    ratios = {}
    for symbol, record in bundled.items():
        errors = _error_columns(record)
        ratios[symbol] = abs(errors[0]) / abs(errors[3])
    mean_all = sum(ratios.values()) / len(ratios)
    mean_closed = sum(ratios[s] for s in PRINTED_TABLE) / len(PRINTED_TABLE)
    ok = (
        mean_all >= 9.0
        and mean_closed >= 9.0
        and abs(ratios["He"] - 11.0) <= 0.3 * 11.0
        and abs(ratios["Xe"] - 72.0) <= 0.3 * 72.0
    )
    record_criterion(
        5,
        "improvement factor",
        ok,
        f"mean {mean_all:.1f} over all {len(ratios)} atoms "
        f"({mean_closed:.1f} over closed subshells), He {ratios['He']:.1f}, Xe {ratios['Xe']:.1f}",
    )
    assert mean_all >= 9.0
    assert mean_closed >= 9.0
    assert ratios["He"] == pytest.approx(11.0, rel=0.30)
    assert ratios["Xe"] == pytest.approx(72.0, rel=0.30)


def test_criterion_6_shell_oscillations():
    start = time.perf_counter()
    counts = {n: len(shell_oscillation_maxima(n)) for n in (1, 2, 3, 5)}
    amp3 = oscillation_amplitude(3)
    amp5 = oscillation_amplitude(5)
    elapsed = time.perf_counter() - start
    ok = counts == {1: 1, 2: 2, 3: 3, 5: 5} and amp5 < amp3 and elapsed < 10.0
    record_criterion(
        6,
        "shell oscillation structure",
        ok,
        f"maxima {counts}, outer amplitude {amp3:.2e} -> {amp5:.2e}, {elapsed:.1f}s",
    )
    assert counts == {1: 1, 2: 2, 3: 3, 5: 5}
    assert amp5 < amp3
    assert elapsed < 10.0


def _core_scaling_z2_coefficient(n_shells: int, x_max: float) -> float:
    # independent route to c_F C (see the module docstring), unit charge:
    # shells 1..n_shells exactly from scipy's Laguerre polynomials with
    # log-form norms, the shells beyond in their semiclassical form
    # rho_TF0 - rho_TF,nu with nu = n_shells + 1/2, integrated in x = t^2
    # (smooth at the cusp, and the density's ripple has a period of about
    # 1 in t) by 6-node Gauss-Legendre panels 0.1 wide in t, then the
    # cutoff removed by a least-squares fit of the partial integrals at
    # the panel ends to C + B / sqrt(X') over X' in [x_max / 8, x_max]
    n_panels = math.ceil(math.sqrt(x_max) / 0.1)
    edges = np.linspace(0.0, math.sqrt(x_max), n_panels + 1)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    x = t * t

    rho = np.zeros_like(x)
    for n in range(1, n_shells + 1):
        l = np.arange(n)[:, None]
        arg = 2.0 * x / n
        log_norm = 0.5 * (
            3.0 * math.log(2.0 / n)
            - math.log(2.0 * n)
            + special.gammaln(n - l)
            - special.gammaln(n + l + 1)
        )
        radial = np.exp(log_norm + l * np.log(arg) - 0.5 * arg) * special.eval_genlaguerre(
            n - l - 1, 2 * l + 1, arg
        )
        # two electrons per orbital, over 4 pi
        rho += ((2 * l + 1) * radial**2).sum(axis=0) / (2.0 * math.pi)
    nu = n_shells + 0.5
    rho_tf0 = (2.0 / x) ** 1.5 / (3.0 * math.pi**2)
    rho += rho_tf0 - np.clip(2.0 / x - 1.0 / nu**2, 0.0, None) ** 1.5 / (3.0 * math.pi**2)

    integrand = 4.0 * math.pi * x**2 * (rho ** (5.0 / 3.0) - rho_tf0 ** (5.0 / 3.0)) * 2.0 * t
    partial = np.cumsum(((half * weights).ravel() * integrand).reshape(n_panels, -1).sum(axis=1))
    cutoffs = edges[1:] ** 2
    fitted = cutoffs >= x_max / 8.0
    design = np.column_stack([np.ones(fitted.sum()), cutoffs[fitted] ** -0.5])
    (c_inf, _), *_ = np.linalg.lstsq(design, partial[fitted], rcond=None)
    return 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0) * c_inf


def _symbolic_orbital_kinetic(z: float, n: int, l: int, grid) -> float:
    # independent route: differentiate the closed-form radial function
    # symbolically, then integrate (R'^2 r^2 + l(l+1) R^2) / 2 by quadrature
    r = sp.Symbol("r", positive=True)
    rho = 2 * z * r / n
    norm = sp.sqrt(
        (2 * z / sp.Integer(n)) ** 3
        * sp.factorial(n - l - 1)
        / (2 * n * sp.factorial(n + l))
    )
    radial = norm * rho**l * sp.exp(-rho / 2) * sp.assoc_laguerre(n - l - 1, 2 * l + 1, rho)
    radial_fn = sp.lambdify(r, radial, "numpy")
    deriv_fn = sp.lambdify(r, sp.diff(radial, r), "numpy")
    nodes = grid.nodes
    integrand = (
        deriv_fn(nodes) ** 2 * nodes**2 + l * (l + 1) * radial_fn(nodes) ** 2
    ) / 2.0
    return grid.integrate(integrand)


def test_criterion_7_property_suite():
    start = time.perf_counter()
    failures = []

    # polynomial kernel against the reference recurrence
    x = np.linspace(0.0, 30.0, 400)
    for k, alpha in ((0, 1.0), (1, 3.0), (4, 5.0), (9, 2.0)):
        ours = laguerre_array(k, alpha, x)
        reference = special.genlaguerre(k, alpha)(x)
        if not np.allclose(ours, reference, rtol=1e-10, atol=1e-12):
            failures.append(f"laguerre k={k} alpha={alpha}")

    # orthonormality of the radial functions at a non-integer charge
    z = 7.3
    grid = make_grid(2048, 40.0)
    pairs = [(n, l) for n in range(1, 5) for l in range(n)]
    worst_overlap = 0.0
    for i, (n1, l1) in enumerate(pairs):
        r1 = radial_wavefunction(z, n1, l1, grid.nodes)
        for n2, l2 in pairs[i:]:
            if l1 != l2:
                continue
            r2 = radial_wavefunction(z, n2, l2, grid.nodes)
            overlap = grid.integrate(r1 * r2 * grid.nodes**2)
            expected = 1.0 if n1 == n2 else 0.0
            worst_overlap = max(worst_overlap, abs(overlap - expected))
    if worst_overlap > 1e-8:
        failures.append(f"orthonormality dev {worst_overlap:.1e}")

    # density normalization for three shells filled around a charge of 9.21
    rho = _kernels.shell_profile(9.21, 3, grid.nodes)[0]
    charge = 4.0 * math.pi * grid.integrate(rho * grid.nodes**2)
    norm_dev = abs(charge / electron_count(3) - 1.0)
    if norm_dev > 1e-8:
        failures.append(f"density normalization dev {norm_dev:.1e}")

    # summed orbital kinetic energies against the closed form
    z_sum, n_max = 28.0, 3
    kin_grid = make_grid(2048, (6.0 * n_max**2 + 40.0) / z_sum)
    total = sum(
        2 * (2 * l + 1) * _symbolic_orbital_kinetic(z_sum, n, l, kin_grid)
        for n in range(1, n_max + 1)
        for l in range(n)
    )
    kinetic_dev = abs(total / (n_max * z_sum**2) - 1.0)
    if kinetic_dev > 1e-7:
        failures.append(f"kinetic sum dev {kinetic_dev:.1e}")

    # uniform-dilation scaling of all three functionals
    # 2 e^{-1.5 r} + 0.7 r^2 e^{-0.9 r} as two orbitals; its dilation
    # lam^3 rho(lam r) scales exponents by lam, coefficients by lam^{p + 3/2}
    orbitals = [[(math.sqrt(2.0), 0, 0.75)], [(math.sqrt(0.7), 1, 0.45)]]
    field = orbital_density(orbitals)
    lam = 1.7
    scaled = orbital_density(
        [[(c * lam ** (p + 1.5), p, zeta * lam) for c, p, zeta in orb] for orb in orbitals]
    )
    base_grid = grid_for(field)
    scaled_grid = grid_for(scaled)
    base_tf, base_tw, base_t4 = energies_on(field, base_grid)
    scaled_tf, scaled_tw, scaled_t4 = energies_on(scaled, scaled_grid)
    scalings = (
        ("tf", scaled_tf, base_tf),
        ("weizsacker", scaled_tw, base_tw),
        ("t4", scaled_t4, base_t4),
    )
    for name, scaled_value, base_value in scalings:
        dev = abs(scaled_value / (lam**2 * base_value) - 1.0)
        if dev > 1e-8:
            failures.append(f"{name} scaling dev {dev:.1e}")

    # one filled shell at z=2: gradient term is exact there
    one_shell = HydrogenicDensity(1)
    tw_grid = make_grid(2000, 45.0)
    _, tw_value, _ = energies_on(one_shell, tw_grid)
    if abs(tw_value - 4.0) > 1e-6:
        failures.append(f"one-shell gradient energy {tw_value!r}")

    # limiting scaled density integrates to one electron's worth
    tf_norm, _ = integrate.quad(
        lambda x: 4.0 * math.pi * x * x * float(tf_limit_density(x)), 0.0, TURNING_POINT
    )
    if abs(tf_norm - 1.0) > 1e-6:
        failures.append(f"limit profile norm {tf_norm!r}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record_criterion(
        7,
        "property suite",
        ok,
        "oracle battery clean" + ("" if not failures else f"; {failures}") + f", {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 60.0
