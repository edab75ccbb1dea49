"""Command-line surface for the library.

Four subcommands cover the batch workflows:

``table1``
    Relative errors of the kinetic-energy approximations (local-density,
    gradient-corrected, shell-corrected) against the Hartree-Fock
    reference for bundled or user-supplied atoms.
``model``
    Exact energies and the shell correction for one filled-shell ladder
    or nuclear charge, with the large-Z series for comparison.
``figures``
    CSV emitters: scaled shell densities against the limiting profile
    (fig1.csv) and relative functional errors along the filled-shell
    ladder (fig1a.csv, fig2a.csv).
``asymptotics``
    Extrapolated large-Z coefficients of the ladder energies rendered
    against their regression targets.

Every quadrature grid spans ``kedf.span_for`` of its density, read off
the density's slowest primitive.  A ``table1`` atom is integrated by
``kedf.energies`` on the first of 512, 1008 and 2000 points whose
Gauss-Kronrod estimates meet 1e-14 (every bundled atom does at 512).  A
ladder point of ``model``, ``figures`` and ``asymptotics`` is read off one
shared shell pass (``asymptotics.model_energy_sequence``).  The
Gauss-Kronrod check on each value says whether the points resolve it, and
the tail gate whether the span holds it.

``correction.delta_t`` decides which Z the shell correction reaches;
``table1`` and ``model`` call it first and report its ValueError as a
data failure, so an atom it does not reach costs no quadrature.

Exit codes: 0 on success, 2 for data or configuration problems, 3 when a
numerical routine fails to converge.  Percentages in table and csv output
carry two significant figures; json-lines output keeps full precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import IO, Callable, Sequence

from .asymptotics import (
    LADDER_SHELLS,
    TARGETS,
    ExtrapolationError,
    SequencePoint,
    figure_density_rows,
    figure_error_rows,
    model_energy_sequence,
    model_series,
    richardson_extrapolate,
)
from .atomic_data import STOAtomRecord, STODataError, atom_density, load_bundled, load_files
from .correction import LAST_NODE_Z, delta_t
from .hydrogenic import (
    MAGIC_NUMBERS,
    MAX_SHELLS,
    electron_count,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
    shell_count_for,
)
from .kedf import ConvergenceError, GridError, energies

__all__ = ["main", "cmd_table1", "cmd_model", "cmd_figures", "cmd_asymptotics"]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_NUMERIC = 3

_FIG1A_SHELLS = tuple(range(1, MAX_SHELLS + 1))
_FIG2A_SHELLS = tuple(range(2, MAX_SHELLS + 1, 2))
# an --atoms token that names an atomic number; every other token is a symbol
_ATOMIC_NUMBER = re.compile(r"[+-]?[0-9]+")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def format_percent(value: float) -> str:
    """Two significant figures, plain decimal: -11, 0.59, 3.6, 0.067.

    The figures are counted after rounding, so 9.96 prints as 10.
    """
    if value == 0.0:
        return "0.0"
    if not math.isfinite(value):
        return repr(value)
    rounded = round(value, 1 - math.floor(math.log10(abs(value))))
    decimals = max(0, 1 - math.floor(math.log10(abs(rounded))))
    return f"{value:.{decimals}f}"


def _write_records(out: IO[str], records: Sequence[dict], fmt: str) -> None:
    """Write ``records`` as json lines, or as csv under a header of their keys.

    Csv cells render floats as their repr, bools as True/False and None as
    an empty cell.
    """
    if fmt == "jsonl":
        for record in records:
            print(json.dumps(record), file=out)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(records[0])
    for record in records:
        writer.writerow(repr(v) if isinstance(v, float) else v for v in record.values())


# -- table1 ----------------------------------------------------------------


def _select_records(
    atoms: Sequence[str] | None, records: dict[str, STOAtomRecord]
) -> tuple[list[STOAtomRecord], list[str]]:
    if atoms is None:
        return list(records.values()), []
    by_fold = {sym.lower(): rec for sym, rec in records.items()}
    by_z = {rec.atomic_number: rec for rec in records.values()}
    chosen: list[STOAtomRecord] = []
    missing: list[str] = []
    for token in atoms:
        if _ATOMIC_NUMBER.fullmatch(token):
            rec = by_z.get(int(token))
        else:
            rec = by_fold.get(token.lower())
        if rec is None:
            missing.append(token)
        else:
            chosen.append(rec)
    return chosen, missing


def _shell_correction(z: int, mode: str) -> float:
    """``delta_t(z, mode)``, with a warning once it has returned a cubic value past the last node."""
    delta = delta_t(z, mode)
    if shell_count_for(z) is None and z > LAST_NODE_Z:
        _warn(
            f"Z={z} lies beyond the last filled-shell node at {LAST_NODE_Z}; "
            "the interpolated correction is an extrapolation there"
        )
    return delta


_ERROR_KEYS = ("err_tf_pct", "err_tf_t2_pct", "err_tf_t2_t4_pct", "err_corrected_pct")


def _atom_record(record: STOAtomRecord, t_tf: float, t2: float, t4: float, delta: float) -> dict:
    """The json-lines record of one ``table1`` row: energies and percent errors.

    Errors follow (approximation - reference)/reference, so a functional
    that underestimates the Hartree-Fock kinetic energy reports a negative
    error.  The gradient columns grade the cumulative sums T_TF + T_2 and
    T_TF + T_2 + T_4; the corrected energy is T_TF + delta_T.
    """
    ref = record.reference_hf_kinetic
    corrected = t_tf + delta
    approximations = (t_tf, t_tf + t2, t_tf + t2 + t4, corrected)
    return {
        "z": record.atomic_number,
        "atom": record.element,
        "reference_hf_kinetic": ref,
        "t_tf": t_tf,
        "t2": t2,
        "t4": t4,
        "delta_t": delta,
        "corrected": corrected,
        **{key: 100.0 * ((approx - ref) / ref) for key, approx in zip(_ERROR_KEYS, approximations)},
    }


def cmd_table1(args: argparse.Namespace) -> int:
    atoms = None
    if args.atoms is not None:
        atoms = [t.strip() for chunk in args.atoms for t in chunk.split(",") if t.strip()]
        if not atoms:
            print("error: --atoms names no atom", file=sys.stderr)
            return EXIT_DATA
    records = load_files(args.data) if args.data else load_bundled()
    chosen, missing = _select_records(atoms, records)
    for token in missing:
        print(f"error: no data for atom {token!r}", file=sys.stderr)

    rows: list[dict] = []
    numeric_failures = 0
    data_failures = len(missing)
    for rec in chosen:
        try:
            try:
                delta = _shell_correction(rec.atomic_number, args.interp)
            except ValueError as exc:
                data_failures += 1
                print(f"error: {rec.element}: {exc}", file=sys.stderr)
                continue
            t_tf, t_w, t4 = energies(atom_density(rec))
            t2 = t_w / 9.0
        except (ConvergenceError, ExtrapolationError) as exc:
            numeric_failures += 1
            print(f"error: {rec.element}: {exc}", file=sys.stderr)
            continue
        rows.append(_atom_record(rec, t_tf, t2, t4, delta))

    if not rows:
        return EXIT_NUMERIC if numeric_failures and not data_failures else EXIT_DATA

    out = sys.stdout
    if args.format == "table":
        print("relative error vs Hartree-Fock reference kinetic energy, %", file=out)
        print(f"{'Z':>3} {'atom':<4} {'T_TF':>8} {'+T2':>8} {'+T2+T4':>8} {'corrected':>10}", file=out)
        for row in rows:
            tf, t2, t4, corrected = (format_percent(row[key]) for key in _ERROR_KEYS)
            print(
                f"{row['z']:>3} {row['atom']:<4} {tf:>8} {t2:>8} {t4:>8} {corrected:>10}",
                file=out,
            )
    elif args.format == "csv":
        cells = [
            {"Z": row["z"], "atom": row["atom"], **{key: format_percent(row[key]) for key in _ERROR_KEYS}}
            for row in rows
        ]
        _write_records(out, cells, "csv")
    else:
        _write_records(out, rows, "jsonl")
    return EXIT_OK


# -- model -----------------------------------------------------------------


def cmd_model(args: argparse.Namespace) -> int:
    if args.n_max is not None:
        if not 1 <= args.n_max <= MAX_SHELLS:
            print(f"error: n-max must lie in 1..{MAX_SHELLS}", file=sys.stderr)
            return EXIT_DATA
        z = electron_count(args.n_max)
    else:
        z = args.z
        if z < 1:
            print(f"error: Z must be at least 1, got {z}", file=sys.stderr)
            return EXIT_DATA
    try:
        delta = _shell_correction(z, args.interp)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    n_max = shell_count_for(z)
    magic = n_max is not None
    if magic:
        t_exact = model_kinetic_energy(n_max)
        delta_kind = f"exact at {n_max} filled shells"
    else:
        t_exact = model_kinetic_energy_continuous(z)
        lower = [n for n in MAGIC_NUMBERS if n < z]
        above = min(n for n in MAGIC_NUMBERS if n > z)
        if lower:
            delta_kind = f"interpolated, not exact (Z between filled-shell counts {lower[-1]} and {above})"
        else:
            delta_kind = f"interpolated, not exact (Z below the first filled-shell count {above})"
    t_tf = t_exact - delta

    series_value = model_series(z)
    series_gap = (series_value - t_exact) / t_exact

    payload = {
        "z": z,
        "electrons": z,
        "filled_shells": n_max,
        "t_model": t_exact,
        "t_tf_model": t_tf,
        "delta_t": delta,
        "delta_kind": delta_kind,
        "series_value": series_value,
        "series_relative_gap": series_gap,
        "interpolation_mode": args.interp,
    }
    if args.format != "table":
        _write_records(sys.stdout, [payload], args.format)
    else:
        shells = f"{n_max} filled shells" if magic else "not a filled-shell count"
        print(f"Z = N = {z} ({shells})")
        print(f"exact kinetic energy      {t_exact!r}")
        print(f"local-density energy      {t_tf!r}" + ("" if magic else "  (via interpolated correction)"))
        print(f"shell correction delta_T  {delta!r}  [{delta_kind}]")
        print(f"large-Z series (5 terms)  {series_value!r}  relative gap {series_gap:.3e}")
    return EXIT_OK


# -- figures ---------------------------------------------------------------


def cmd_figures(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, records: list[dict]) -> None:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_records(handle, records, "csv")
        print(f"wrote {path}")

    write("fig1.csv", figure_density_rows())
    for name, shells in (("fig1a.csv", _FIG1A_SHELLS), ("fig2a.csv", _FIG2A_SHELLS)):
        write(name, figure_error_rows(shells))
    return EXIT_OK


# -- asymptotics -----------------------------------------------------------


def _self_tests() -> list[tuple[str, bool, str]]:
    zs = [float(electron_count(n)) for n in range(2, 9)]
    identity = richardson_extrapolate([(z, 3.75) for z in zs], [Fraction(0)])
    synthetic = richardson_extrapolate(
        [(z, 2.5 * z ** (7.0 / 3.0) - 0.7 * z**2) for z in zs],
        [Fraction(7, 3), Fraction(2)],
    )
    err = max(abs(synthetic[0] - 2.5), abs(synthetic[1] + 0.7))
    # tableau arithmetic rounds, so "exact" means full double precision here
    id_err = abs(identity[0] - 3.75) / 3.75
    return [
        ("identity series", id_err <= 1e-12, f"constant recovered to {id_err:.1e} relative"),
        ("synthetic two-term series", err <= 1e-8, f"max coefficient error {err:.2e}"),
    ]


def _ladder_fits(points: Sequence[SequencePoint]) -> dict[tuple[str, str], float]:
    """The fitted coefficients of ``TARGETS`` from four fits on the ladder ``points``."""
    tf_seq = [(p.z, p.t_tf) for p in points]
    fitted_tf = richardson_extrapolate(tf_seq, [Fraction(7, 3), Fraction(2), Fraction(5, 3)])
    t2_lead = richardson_extrapolate([(p.z, p.t2) for p in points], [Fraction(7, 3)])
    ratio_powers = [Fraction(-1, 3), Fraction(-2, 3)]
    t2_ratio = richardson_extrapolate([(p.z, p.t2 / p.t_exact) for p in points], ratio_powers)
    t4_ratio = richardson_extrapolate([(p.z, p.t4 / p.t_exact) for p in points], ratio_powers)
    return {
        ("T_TF", "Z^{7/3}"): fitted_tf[0],
        ("T_TF", "Z^2"): fitted_tf[1],
        ("T_TF", "Z^{5/3}"): fitted_tf[2],
        ("T2", "Z^{7/3}"): t2_lead[0],
        ("T2", "Z^{-1/3}"): t2_ratio[0],
        ("T4", "Z^{-1/3}"): t4_ratio[0],
    }


def cmd_asymptotics(args: argparse.Namespace) -> int:
    fitted = _ladder_fits(model_energy_sequence(LADDER_SHELLS))
    rows = []
    for (series, power), target in TARGETS.items():
        value = fitted[series, power]
        deviation = abs(value - target.value)
        rows.append(
            {
                "series": series,
                "quantity": target.quantity,
                "power": power,
                "fitted": value,
                "target": target.value,
                "deviation": deviation,
                "tolerance": target.tolerance,
                "within_tolerance": deviation <= target.tolerance,
            }
        )
    checks = _self_tests()

    if args.format == "jsonl":
        tests = [{"self_test": name, "passed": ok, "detail": detail} for name, ok, detail in checks]
        _write_records(sys.stdout, rows + tests, "jsonl")
    elif args.format == "csv":
        # the csv holds the fit rows only, so a failed self-test goes to stderr
        _write_records(sys.stdout, rows, "csv")
        for name, ok, detail in checks:
            if not ok:
                print(f"error: self-test {name} failed ({detail})", file=sys.stderr)
    else:
        ladder = f"n_max = {LADDER_SHELLS[0]}..{LADDER_SHELLS[-1]}"
        print(f"extrapolated coefficients on the filled-shell ladder ({ladder})")
        for row in rows:
            state = "ok" if row["within_tolerance"] else "OUTSIDE TOLERANCE"
            print(
                f"  {row['series']:<5} {row['quantity']:<25} {row['power']:<8} "
                f"fitted {row['fitted']: .8f}  target {row['target']: .6f}  "
                f"|dev| {row['deviation']:.2e}  tol {row['tolerance']:.0e}  {state}"
            )
        for name, ok, detail in checks:
            print(f"  self-test {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_NUMERIC


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfshell",
        description="Shell-corrected Thomas-Fermi kinetic energies: atoms, ladders, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--interp": dict(choices=("published", "refit"), default="refit",
                         help="interpolation coefficients for the shell correction (default refit)"),
        "--format": dict(choices=("table", "csv", "jsonl"), default="table",
                         help="output format (default table)"),
    }

    def add_common(p: argparse.ArgumentParser, *flags: str) -> None:
        """Give ``p`` the shared ``flags`` its command reads, and no others."""
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p_table = sub.add_parser("table1", help="per-atom relative errors of the functionals")
    p_table.add_argument("--atoms", action="append",
                         help="comma-separated element symbols or atomic numbers (repeatable)")
    p_table.add_argument("--data", action="append", metavar="PATH",
                         help=".sto data file replacing the bundled set (repeatable)")
    add_common(p_table, "--interp", "--format")

    p_model = sub.add_parser("model", help="exact ladder energies and the shell correction")
    group = p_model.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=int, help="nuclear charge (= electron count)")
    group.add_argument("--n-max", type=int, help="number of filled shells")
    add_common(p_model, "--interp", "--format")

    p_fig = sub.add_parser("figures", help="write fig1.csv, fig1a.csv, fig2a.csv")
    p_fig.add_argument("--out", default=".", metavar="DIR", help="output directory (default .)")

    p_asym = sub.add_parser("asymptotics", help="large-Z coefficients vs targets")
    add_common(p_asym, "--format")
    return parser


COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": cmd_table1,
    "model": cmd_model,
    "figures": cmd_figures,
    "asymptotics": cmd_asymptotics,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (STODataError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, ExtrapolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
