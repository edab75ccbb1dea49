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
    The rows of ``asymptotics.fit_rows``: extrapolated large-Z coefficients
    of the ladder energies against the targets of ``asymptotics.FITS``.

Each command renders library records: ``correction.table1_row`` and
``correction.model_row``, the figure rows of ``asymptotics`` and
``asymptotics.fit_rows``.  ``cli`` itself builds three things: the
``table1`` csv cells (the error columns at two significant figures), the
two extrapolation self-tests of ``asymptotics`` and their records, and
fig2a.csv, the fig1a.csv rows with an even shell count.

Every quadrature grid spans ``kedf.span_for`` of its density, read off
the density's slowest primitive.  Every value is the Kronrod sum of its
grid.  A ``table1`` atom is integrated by ``kedf.energies`` on 512 points
when their Gauss-Kronrod estimates meet 1e-14 (every bundled atom's do),
else on 1008.  A ladder point of ``model``, ``figures`` and
``asymptotics``, and the exact deficit of a ``table1`` atom at a
filled-shell count (He and Ne), is read off one shared shell pass on 1008
points (``asymptotics.model_energy_sequence``).  The Gauss-Kronrod check
on each value says whether the points resolve it, and the tail gate
whether the span holds it.

``correction`` alone decides the shell correction, with the node it is
exact at, and its ``--interp`` modes; ``table1`` and ``model`` call it
first, so an atom it does not reach costs no quadrature.

``main`` alone turns a failure into an exit code, with one error line: a
ValueError or OSError is a data failure, a ConvergenceError (a quadrature
gate or an extrapolation tableau) a numerical one.  ``table1`` alone
catches a failure earlier, in one atom's row: it skips that atom with the
same error line, a ValueError counted as a data failure and a
ConvergenceError as a numerical one, and reports the rest.

Exit codes: 0 on success, 2 for data or configuration problems, 3 when a
numerical routine fails to converge.  Percentages in table and csv output
carry two significant figures at any size; json-lines output keeps full
precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import IO, Sequence

from .asymptotics import (
    LADDER_SHELLS,
    MODEL_SERIES,
    figure_density_rows,
    figure_error_rows,
    fit_rows,
    model_energy_sequence,
    model_series,
    richardson_extrapolate,
)
from .atomic_data import STOAtomRecord, load_bundled, load_files
from .correction import (
    DEFAULT_MODE,
    INTERPOLATION_MODES,
    LAST_NODE_Z,
    TABLE1_ERROR_KEYS,
    delta_t,
    model_row,
    table1_row,
)
from .hydrogenic import _int_text, _read_int, electron_count
from .kedf import ConvergenceError

__all__ = ["main", "cmd_table1", "cmd_model", "cmd_figures", "cmd_asymptotics"]

EXIT_OK = 0
EXIT_DATA = 2
EXIT_NUMERIC = 3

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
    return f"{rounded:.{decimals}f}"


def _write_records(out: IO[str], records: Sequence[dict], fmt: str) -> None:
    """Write ``records`` as json lines, or as csv under a header of their keys.

    Csv cells are the ``str`` of each value, so a float prints as its repr,
    a bool as True/False and None as an empty cell.
    """
    if fmt == "jsonl":
        for record in records:
            print(json.dumps(record), file=out)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows(record.values() for record in records)


# -- table1 ----------------------------------------------------------------


def _select_records(
    atoms: Sequence[str] | None, records: dict[str, STOAtomRecord]
) -> tuple[list[STOAtomRecord], list[str]]:
    """The records ``atoms`` names, in its order, and the tokens that name none.

    A token that ``hydrogenic._read_int`` reads names an atomic number (a
    negative one none); any other names an element symbol, whatever its case.
    """
    if atoms is None:
        return list(records.values()), []
    by_symbol = {rec.element.lower(): rec for rec in records.values()}
    by_number = {rec.atomic_number: rec for rec in records.values()}
    chosen: list[STOAtomRecord] = []
    missing: list[str] = []
    for token in atoms:
        try:
            number = _read_int(token)
            rec = by_symbol.get(token.lower()) if number is None else by_number.get(number)
        except ValueError:  # past int()'s digit limit
            rec = None
        if rec is None:
            missing.append(token)
        else:
            chosen.append(rec)
    return chosen, missing


def _shell_correction(z: int, mode: str) -> tuple[float, int | None]:
    """``delta_t(z, mode)``, with a warning once it has returned a cubic value past the last node."""
    delta, n_max = delta_t(z, mode)
    if n_max is None and z > LAST_NODE_Z:
        print(
            f"warning: Z={z} lies beyond the last filled-shell node at {LAST_NODE_Z}; "
            "the interpolated correction is an extrapolation there",
            file=sys.stderr,
        )
    return delta, n_max


def cmd_table1(args: argparse.Namespace) -> int:
    atoms = None
    if args.atoms is not None:
        atoms = [t.strip() for chunk in args.atoms for t in chunk.split(",") if t.strip()]
        if not atoms:
            raise ValueError("--atoms names no atom")
    records = load_files(args.data) if args.data else load_bundled()
    chosen, missing = _select_records(atoms, records)
    for token in missing:
        print(f"error: no data for atom {_int_text(token)}", file=sys.stderr)

    rows: list[dict] = []
    numeric_failures = 0
    data_failures = len(missing)
    for rec in chosen:
        try:
            delta, _ = _shell_correction(rec.atomic_number, args.interp)
            rows.append(table1_row(rec, delta))
        except ConvergenceError as exc:
            numeric_failures += 1
            print(f"error: {rec.element}: {exc}", file=sys.stderr)
        except ValueError as exc:
            data_failures += 1
            print(f"error: {rec.element}: {exc}", file=sys.stderr)

    if not rows:
        return EXIT_NUMERIC if numeric_failures and not data_failures else EXIT_DATA

    out = sys.stdout
    if args.format == "table":
        print("relative error vs Hartree-Fock reference kinetic energy, %", file=out)
        print(f"{'Z':>3} {'atom':<4} {'T_TF':>8} {'+T2':>8} {'+T2+T4':>8} {'corrected':>10}", file=out)
        for row in rows:
            tf, t2, t4, corrected = (format_percent(row[key]) for key in TABLE1_ERROR_KEYS)
            print(
                f"{row['z']:>3} {row['atom']:<4} {tf:>8} {t2:>8} {t4:>8} {corrected:>10}",
                file=out,
            )
    elif args.format == "csv":
        cells = [
            {"Z": row["z"], "atom": row["atom"], **{key: format_percent(row[key]) for key in TABLE1_ERROR_KEYS}}
            for row in rows
        ]
        _write_records(out, cells, "csv")
    else:
        _write_records(out, rows, "jsonl")
    return EXIT_OK


# -- model -----------------------------------------------------------------


def cmd_model(args: argparse.Namespace) -> int:
    z = args.z if args.n_max is None else electron_count(args.n_max)
    delta, n_max = _shell_correction(z, args.interp)
    row = model_row(z, delta, n_max, args.interp)
    if args.format != "table":
        _write_records(sys.stdout, [row], args.format)
    else:
        magic = n_max is not None
        shells = f"{n_max} filled shells" if magic else "not a filled-shell count"
        print(f"Z = N = {z} ({shells})")
        print(f"exact kinetic energy      {row['t_model']!r}")
        via = "" if magic else "  (via interpolated correction)"
        print(f"local-density energy      {row['t_tf_model']!r}{via}")
        print(f"shell correction delta_T  {delta!r}  [{row['delta_kind']}]")
        gap = row["series_relative_gap"]
        print(f"large-Z series ({len(MODEL_SERIES)} terms)  {row['series_value']!r}  relative gap {gap:.3e}")
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
    rows = figure_error_rows()
    write("fig1a.csv", rows)
    write("fig2a.csv", [row for row in rows if row["n_max"] % 2 == 0])
    return EXIT_OK


# -- asymptotics -----------------------------------------------------------


def _self_tests() -> list[tuple[str, bool, str]]:
    zs = [float(electron_count(n)) for n in range(2, 9)]

    def deviations(terms: tuple[tuple[int, float], ...]) -> list[float]:
        """|fitted - coefficient| per term of the fit of the series ``model_series(terms, Z)``."""
        sequence = [(z, model_series(terms, z)) for z in zs]
        fitted = richardson_extrapolate(sequence, [k / 3 for k, _ in terms])
        return [abs(a - c) for a, (_, c) in zip(fitted, terms)]

    identity = ((0, 3.75),)
    synthetic = ((7, 2.5), (6, -0.7))
    # tableau arithmetic rounds, so "exact" means full double precision here
    id_err = deviations(identity)[0] / identity[0][1]
    err = max(deviations(synthetic))
    return [
        ("identity series", id_err <= 1e-12, f"constant recovered to {id_err:.1e} relative"),
        ("synthetic two-term series", err <= 1e-8, f"max coefficient error {err:.2e}"),
    ]


def cmd_asymptotics(args: argparse.Namespace) -> int:
    rows = fit_rows(model_energy_sequence(LADDER_SHELLS))
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


def _integer(token: str) -> int:
    """An integer option's value: the int that ``hydrogenic._read_int`` reads from ``token``."""
    try:
        value = _read_int(token)
    except ValueError:  # past int()'s digit limit
        value = None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {_int_text(token)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfshell",
        description="Shell-corrected Thomas-Fermi kinetic energies: atoms, ladders, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="per-atom relative errors of the functionals")
    p_table.add_argument("--atoms", action="append",
                         help="comma-separated element symbols or atomic numbers (repeatable)")
    p_table.add_argument("--data", action="append", metavar="PATH",
                         help=".sto data file replacing the bundled set (repeatable)")
    p_table.set_defaults(run=cmd_table1)

    p_model = sub.add_parser("model", help="exact ladder energies and the shell correction")
    group = p_model.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=_integer, help="nuclear charge (= electron count)")
    group.add_argument("--n-max", type=_integer, help="number of filled shells")
    p_model.set_defaults(run=cmd_model)

    p_fig = sub.add_parser("figures", help="write fig1.csv, fig1a.csv, fig2a.csv")
    p_fig.add_argument("--out", default=".", metavar="DIR", help="output directory (default .)")
    p_fig.set_defaults(run=cmd_figures)

    p_asym = sub.add_parser("asymptotics", help="large-Z coefficients vs targets")
    p_asym.set_defaults(run=cmd_asymptotics)

    # the shared options follow each command's own, on the commands that read them
    for p in (p_table, p_model):
        p.add_argument("--interp", choices=tuple(INTERPOLATION_MODES), default=DEFAULT_MODE,
                       help=f"interpolation coefficients for the shell correction (default {DEFAULT_MODE})")
    for p in (p_table, p_model, p_asym):
        p.add_argument("--format", choices=("table", "csv", "jsonl"), default="table",
                       help="output format (default table)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, ConvergenceError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
