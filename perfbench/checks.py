"""Output checks for the three benchmarked CLI pipelines.

Every expected value here is stated or computed independently of tfshell:
closed forms, an mpmath quadrature built from ``mpmath.laguerre``, published
Table 1 entries, and properties the method must have.  None is a stored
copy of a previous run's output.  Each ``check_*`` function returns a list
of failure messages, empty when the pass is correct.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

# -- asymptotics -----------------------------------------------------------

# Leading Z^{7/3} coefficient of the Thomas-Fermi energy of the Bohr-atom
# ladder, equal to that of the exact energy: (3/2)^{1/3}.
TF_LEADING = 1.5 ** (1.0 / 3.0)
ASYMPTOTICS_ROWS = {
    # (series, power): (target, absolute tolerance)
    ("T_TF", "Z^{7/3}"): (TF_LEADING, 1e-5),
    ("T2", "Z^{7/3}"): (0.0, 1e-4),
    ("T2", "Z^{-1/3}"): (0.10942, 1e-3),
    ("T4", "Z^{-1/3}"): (0.015052, 1e-3),
}
SELF_TESTS = ("identity series", "synthetic two-term series")


def _jsonl(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check_asymptotics(stdout: str) -> list[str]:
    """Fitted coefficients against their targets; both self-tests pass.

    The Z^2 coefficient of T_TF is not checked: it misses its regression
    target for reasons not yet settled (a known red of the test suite).
    """
    try:
        records = _jsonl(stdout)
    except json.JSONDecodeError as exc:
        return [f"asymptotics: output is not json lines: {exc}"]
    fits = {(r.get("series"), r.get("power")): r.get("fitted") for r in records if "fitted" in r}
    failures = []
    for key, (target, tol) in ASYMPTOTICS_ROWS.items():
        fitted = fits.get(key)
        if not isinstance(fitted, float) or not abs(fitted - target) <= tol:
            failures.append(f"asymptotics: {key} fitted {fitted!r}, want {target} +- {tol}")
    tests = {r["self_test"]: r.get("passed") for r in records if "self_test" in r}
    for name in SELF_TESTS:
        if tests.get(name) is not True:
            failures.append(f"asymptotics: self-test {name!r} did not pass")
    return failures


# -- figures ---------------------------------------------------------------

C_F = 0.3 * (3.0 * math.pi**2) ** (2.0 / 3.0)
# Two electrons in the 1s orbital at Z = 2: T_TF / T_exact in closed form,
# and T_W = T_exact because one orbital carries all the density.
ONE_SHELL_REL_ERR_T0 = 1.0 - (27.0 / 250.0) * 2.0 * math.pi * (2.0 / math.pi) ** (5.0 / 3.0) * C_F
ONE_SHELL_REL_ERR_T2 = ONE_SHELL_REL_ERR_T0 - 1.0 / 9.0
QUADRATURE_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
FIG1A_SHELLS = range(1, 41)
FIG2A_SHELLS = range(2, 41, 2)
FIG1_SHELLS = (1, 2, 3, 5)


@functools.lru_cache(maxsize=None)
def tf_relative_error(n_max: int) -> float:
    """(T_exact - T_TF) / T_exact of the neutral filled-shell Bohr atom, by mpmath.

    The density is summed from hydrogenic orbitals written with
    ``mpmath.laguerre``; T_TF = 4 pi C_F integral r^2 rho^{5/3} dr is
    integrated with tanh-sinh quadrature split at each shell's scale, and
    T_exact = n_max Z^2.
    """
    import mpmath as mp

    with mp.workdps(20):
        z = mp.mpf(n_max * (n_max + 1) * (2 * n_max + 1) // 3)
        orbitals = []
        for n in range(1, n_max + 1):
            g = 2 * z / n
            for l in range(n):
                k = n - l - 1
                norm_sq = g**3 * mp.factorial(k) / (2 * n * mp.factorial(n + l))
                orbitals.append((g, l, k, 2 * (2 * l + 1) * norm_sq / (4 * mp.pi)))

        def rho(r):
            total = mp.mpf(0)
            for g, l, k, weight in orbitals:
                x = g * r
                total += weight * (x**l * mp.exp(-x / 2) * mp.laguerre(k, 2 * l + 1, x)) ** 2
            return total

        c_f = mp.mpf(3) / 10 * (3 * mp.pi**2) ** (mp.mpf(2) / 3)
        breaks = sorted({mp.mpf(n * n) * c / z for n in range(1, n_max + 1) for c in (0.5, 2, 6)})
        t_tf, error = mp.quad(
            lambda r: 4 * mp.pi * c_f * r**2 * rho(r) ** (mp.mpf(5) / 3),
            [0, *breaks, mp.inf],
            error=True,
        )
        if error > 1e-15 * t_tf:
            raise ArithmeticError(f"mpmath quadrature error estimate {error} too large")
        t_exact = n_max * z**2
        return float((t_exact - t_tf) / t_exact)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_figures(stdout: str, out_dir: Path) -> list[str]:
    failures = []
    try:
        fig1 = _read_csv(out_dir / "fig1.csv")
        fig1a = _read_csv(out_dir / "fig1a.csv")
        fig2a = _read_csv(out_dir / "fig2a.csv")
    except (OSError, csv.Error) as exc:
        return [f"figures: cannot read output: {exc}"]

    shells = [int(r["n_max"]) for r in fig1a]
    if shells != list(FIG1A_SHELLS):
        return [f"figures: fig1a.csv covers n_max {shells}"]
    by_shell = {int(r["n_max"]): r for r in fig1a}
    t0 = [float(r["rel_err_T0"]) for r in fig1a]
    if not all(v > 0 for v in t0):
        failures.append("figures: rel_err_T0 is not positive everywhere")
    if not all(b < a for a, b in zip(t0, t0[1:])):
        failures.append("figures: rel_err_T0 does not fall strictly with n_max")

    one = by_shell[1]
    for column, want in (("rel_err_T0", ONE_SHELL_REL_ERR_T0), ("rel_err_T2", ONE_SHELL_REL_ERR_T2)):
        got = float(one[column])
        if not abs(got - want) <= CLOSED_FORM_TOL:
            failures.append(f"figures: n_max=1 {column} {got!r}, closed form {want!r}")
    for n_max in (2, 3):
        got = float(by_shell[n_max]["rel_err_T0"])
        want = tf_relative_error(n_max)
        if not abs(got - want) <= QUADRATURE_TOL:
            failures.append(f"figures: n_max={n_max} rel_err_T0 {got!r}, mpmath {want!r}")

    if [int(r["n_max"]) for r in fig2a] != list(FIG2A_SHELLS):
        failures.append("figures: fig2a.csv does not cover the even n_max 2..40")
    elif any(r != by_shell[int(r["n_max"])] for r in fig2a):
        failures.append("figures: a fig2a.csv row differs from the fig1a.csv row for its n_max")

    if sorted({int(r["n_max"]) for r in fig1}) != list(FIG1_SHELLS):
        failures.append("figures: fig1.csv does not cover n_max 1, 2, 3, 5")
    z = 2.0
    for row in (r for r in fig1 if r["n_max"] == "1"):
        r_hat = float(row["r_hat"])
        want = 2.0 * z / math.pi * math.exp(-2.0 * z ** (2.0 / 3.0) * r_hat)
        got = float(row["rho_hat_model"])
        if not abs(got - want) <= CLOSED_FORM_TOL * want:
            failures.append(f"figures: fig1 rho_hat at r_hat={r_hat!r} is {got!r}, closed form {want!r}")
            break
    return failures


# -- table1 ----------------------------------------------------------------

ATOMS = ("He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg", "Si", "P", "Cl", "Ar", "Kr", "Xe")
# Clementi-Roetti Hartree-Fock kinetic energy of He (hartree).
HE_REFERENCE_KINETIC = 2.8617128
HE_WEIZSACKER_TOL = 1e-4
# The paper's printed Table 1 (percent errors of T_TF, +T2, +T2+T4, corrected).
PRINTED_TABLE = {
    "He": ("-11", "0.59", "3.6", "0.95"),
    "Ne": ("-8.4", "-0.56", "0.95", "0.28"),
    "Ar": ("-7.0", "-0.49", "0.69", "0.36"),
    "Kr": ("-5.8", "-0.69", "0.18", "0.11"),
    "Xe": ("-5.2", "-0.68", "0.067", "0.073"),
}
ERROR_COLUMNS = ("err_tf_pct", "err_tf_t2_pct", "err_tf_t2_t4_pct", "err_corrected_pct")


def printed_tolerance(entry: str) -> float:
    """0.3 percentage points, widened to half a unit of the last printed digit."""
    decimals = len(entry.split(".")[1]) if "." in entry else 0
    return max(0.3, 0.5 * 10.0 ** (-decimals))


def check_table1(stdout: str, atoms: tuple[str, ...]) -> list[str]:
    """Rows for ``atoms`` in that order; He's Weizsacker identity; Table 1."""
    try:
        rows = _jsonl(stdout)
    except json.JSONDecodeError as exc:
        return [f"table1: output is not json lines: {exc}"]
    order = tuple(r.get("atom") for r in rows)
    if order != atoms:
        return [f"table1: rows for {order}, requested {atoms}"]
    by_atom = {r["atom"]: r for r in rows}
    failures = []
    t_w = 9.0 * by_atom["He"]["t2"]
    gap = abs(t_w - HE_REFERENCE_KINETIC) / HE_REFERENCE_KINETIC
    if not gap <= HE_WEIZSACKER_TOL:
        failures.append(f"table1: He 9*t2 = {t_w!r} is {gap:.2e} from the reference kinetic energy")
    for atom, printed in PRINTED_TABLE.items():
        for column, want in zip(ERROR_COLUMNS, printed):
            got = by_atom[atom][column]
            if not abs(got - float(want)) <= printed_tolerance(want):
                failures.append(f"table1: {atom} {column} {got!r}, printed {want}")
    return failures
