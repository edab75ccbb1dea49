"""End-to-end checks of the command-line interface.

Most tests drive ``python -m tfshell.cli`` in a real subprocess so that
argument parsing, stream separation, and exit codes are exercised the
way a shell user sees them.  The two energy-ladder subcommands are
expensive, so their outputs are produced once per module and shared.
"""

from __future__ import annotations

import ast
import csv
import importlib
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from tfshell import _kernels, asymptotics, cli
from tfshell.correction import delta_t_exact, delta_t_interpolated
from tfshell.hydrogenic import electron_count, model_kinetic_energy_continuous
from tfshell.kedf import ConvergenceError

MINIMAL_STO = "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n"

# Rows of the default table, frozen byte for byte.  Two significant
# figures of the full-precision errors; He's local-density error is
# -10.52 and prints as -11.
HEADER_LINES = (
    "relative error vs Hartree-Fock reference kinetic energy, %",
    "  Z atom     T_TF      +T2   +T2+T4  corrected",
)
PINNED_ROWS = (
    "  2 He        -11     0.59      3.6       0.95",
    " 18 Ar       -7.0    -0.49     0.69       0.36",
    " 36 Kr       -5.8    -0.69     0.18       0.11",
)


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tfshell.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# -- parser and entry points ----------------------------------------------


def test_help_lists_all_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("table1", "model", "figures", "asymptotics"):
        assert name in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def test_unknown_subcommand_and_bad_choice_exit_2():
    assert run_cli("orbit").returncode == 2
    assert run_cli("table1", "--format", "yaml").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("figures", "--format", "csv"),
        ("figures", "--interp", "published"),
        ("asymptotics", "--interp", "published"),
        ("model", "--z", "54", "--grid-points", "4000"),
        ("table1", "--grid-points", "2000"),
        ("figures", "--grid-points", "2000"),
        ("asymptotics", "--grid-points", "2000"),
        ("table1", "--r-max", "45"),
    ],
)
def test_options_a_command_does_not_read_exit_2(args, capsys):
    # each subcommand takes only the flags its command reads
    with pytest.raises(SystemExit) as exc:
        cli.main(list(args))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_console_script_matches_module_invocation():
    proc = subprocess.run(["tfshell", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli("--help").stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package never imports it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tfshell.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "name", ["asymptotics", "atomic_data", "cli", "correction", "hydrogenic", "kedf"]
)
def test_every_public_name_resolves(name):
    # perfbench's tracer wraps each module's __all__ by name
    module = importlib.import_module(f"tfshell.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_only_kedf_calls_make_grid():
    # the radial span has one rule, kedf.grid_for; no other module picks one
    callers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem == "kedf":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "make_grid":
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


# -- table1 ----------------------------------------------------------------


def test_table1_default_output_pinned():
    proc = run_cli("table1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert tuple(lines[:2]) == HEADER_LINES
    body = lines[2:]
    assert len(body) == 17
    for pinned in PINNED_ROWS:
        assert pinned in body
    zs = [int(line.split()[0]) for line in body]
    assert zs == sorted(zs)


def test_table1_atom_selection_folds_case_and_accepts_z():
    proc = run_cli("table1", "--atoms", "ne,18", "--atoms", "KR")
    assert proc.returncode == 0
    symbols = [line.split()[1] for line in proc.stdout.splitlines()[2:]]
    assert symbols == ["Ne", "Ar", "Kr"]


def test_table1_unknown_atom_exits_data():
    proc = run_cli("table1", "--atoms", "Al")
    assert proc.returncode == 2
    assert "no data for atom 'Al'" in proc.stderr
    assert proc.stdout == ""
    # only ASCII digits after one optional sign name an atomic number
    for token in ("+-5", "²", "٣"):
        proc = run_cli("table1", f"--atoms={token}")
        assert proc.returncode == 2
        assert proc.stderr == f"error: no data for atom {token!r}\n"
        assert proc.stdout == ""


@pytest.mark.parametrize("selection", [",", " "])
def test_table1_empty_atom_selection_exits_data(selection: str):
    proc = run_cli("table1", "--atoms", selection)
    assert proc.returncode == 2
    assert proc.stderr == "error: --atoms names no atom\n"
    assert proc.stdout == ""


def test_table1_partial_selection_still_reports_known_atoms():
    proc = run_cli("table1", "--atoms", "He,Al")
    assert proc.returncode == 0
    assert PINNED_ROWS[0] in proc.stdout
    assert "no data for atom 'Al'" in proc.stderr


def test_table1_csv_runs_are_byte_identical():
    first = run_cli("table1", "--format", "csv")
    second = run_cli("table1", "--format", "csv")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "Z,atom,err_tf_pct,err_tf_t2_pct,err_tf_t2_t4_pct,err_corrected_pct"
    assert lines[1] == "2,He,-11,0.59,3.6,0.95"
    assert len(lines) == 18


@pytest.mark.parametrize(
    "value,text",
    [
        (-10.52, "-11"),
        (0.5912, "0.59"),
        (3.6, "3.6"),
        (0.067, "0.067"),
        # rounding carries into the next decade: still two figures
        (9.96, "10"),
        (-9.96, "-10"),
        (0.0996, "0.10"),
        (0.00999, "0.010"),
    ],
)
def test_format_percent_two_significant_figures(value: float, text: str):
    assert cli.format_percent(value) == text


def test_table1_jsonl_keeps_full_precision():
    proc = run_cli("table1", "--format", "jsonl", "--atoms", "He")
    assert proc.returncode == 0
    (line,) = proc.stdout.splitlines()
    payload = json.loads(line)
    assert payload["z"] == 2
    assert payload["atom"] == "He"
    assert payload["delta_t"] == pytest.approx(delta_t_exact(1), rel=1e-12)
    assert payload["err_tf_pct"] == pytest.approx(-10.520805984669217, rel=1e-9)
    # the error columns must be consistent with the energies in the same line
    ref = payload["reference_hf_kinetic"]
    assert payload["corrected"] == payload["t_tf"] + payload["delta_t"]
    recomputed = (payload["corrected"] - ref) / ref * 100.0
    assert payload["err_corrected_pct"] == pytest.approx(recomputed, rel=1e-15)


def test_table1_user_data_replaces_bundled_set(tmp_path: Path):
    data = tmp_path / "custom.sto"
    data.write_text(MINIMAL_STO)
    proc = run_cli("table1", "--data", str(data), "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,He,")
    # this record is the one-filled-shell density with its own exact
    # energy as reference, so the corrected column sits at roundoff
    assert abs(float(lines[1].split(",")[-1])) < 1e-8


def test_table1_undecodable_data_file_exits_data(tmp_path: Path):
    data = tmp_path / "utf16.sto"
    data.write_bytes(b"\xff\xfe" + MINIMAL_STO.encode("utf-16-le"))
    proc = run_cli("table1", "--data", str(data))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {data}: not UTF-8 text\n"
    assert proc.stdout == ""


def test_table1_data_parse_error_names_its_file(tmp_path: Path):
    good, bad = tmp_path / "he.sto", tmp_path / "bad.sto"
    good.write_text(MINIMAL_STO)
    bad.write_text(MINIMAL_STO.replace("1.0\n", "abc\n"))
    proc = run_cli("table1", "--data", str(good), "--data", str(bad))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: line 3: primitive coefficient must be numeric, got 'abc'\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("zeta", ["1e160", "1e-170", "1e-200"])
def test_table1_rejects_an_exponent_outside_the_float_range(zeta, tmp_path, capsys):
    data = tmp_path / "bad.sto"
    data.write_text(f"ATOM He 2 2.8617\nORB 1s 2\nPRM 1 {zeta} 1.0\n")
    assert cli.main(["table1", "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {data}: line 3: primitive n=1 zeta={float(zeta)!r} "
        "has a normalization outside the float range\n"
    )
    assert captured.out == ""


def test_table1_atom_beyond_correction_range_is_skipped(tmp_path: Path):
    # a valid 111-electron record: one unit-norm primitive per orbital
    shells = ("1s 2", "2s 2", "2p 6", "3s 2", "3p 6", "3d 10", "4s 2", "4p 6", "4d 10",
              "4f 14", "5s 2", "5p 6", "5d 10", "5f 14", "6s 2", "6p 6", "6d 10", "7s 1")
    lines = ["ATOM Rg 111 30000.0"]
    for shell in shells:
        n = int(shell[0])
        lines += [f"ORB {shell}", f"PRM {n} {111.0 / n!r} 1.0"]
    data = tmp_path / "z111.sto"
    data.write_text("\n".join(lines) + "\n")
    error = (
        "error: Rg: Z=111 is not a filled-shell count and lies beyond the "
        "interpolation range (1..110)\n"
    )
    proc = run_cli("table1", "--data", str(data))
    assert proc.returncode == 2
    assert proc.stderr == error
    assert proc.stdout == ""
    # the atom is skipped, the others are reported
    helium = tmp_path / "he.sto"
    helium.write_text(MINIMAL_STO)
    proc = run_cli("table1", "--data", str(data), "--data", str(helium), "--format", "csv")
    assert proc.returncode == 0
    assert proc.stderr == error
    assert [line.split(",")[1] for line in proc.stdout.splitlines()[1:]] == ["He"]


def test_table1_filled_shell_atom_beyond_the_shell_cap_is_a_row_error(monkeypatch, capsys):
    # a stub record: the row must fail on its charge alone, before any
    # density or quadrature is built from it
    stub = types.SimpleNamespace(element="Xx", atomic_number=electron_count(41))
    monkeypatch.setattr(cli, "load_bundled", lambda: {"Xx": stub})
    assert cli.main(["table1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: Xx: Z=47642 fills 41 shells; filled-shell counts are supported for 1..40 shells\n"
    )
    assert captured.out == ""


def test_table1_long_span_gives_finite_t4():
    # Li's slowest primitive, r e^{-0.3835 r}, gives the longest span of the
    # bundled atoms, about 198 bohr; T_4 comes out finite and warning-free
    # there (test_kedf's test_fourth_order_is_finite_far_out covers the
    # densities below 1e-103 that the plain bracket turned into NaN)
    proc = run_cli("table1", "--atoms", "Li", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert math.isfinite(row["t4"])


def test_table1_all_rows_failing_numerically_exits_3(monkeypatch, capsys):
    def boom(field):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr(cli, "energies", boom)
    code = cli.main(["table1", "--atoms", "He"])
    assert code == 3
    err = capsys.readouterr().err
    assert "He" in err and "forced failure" in err


# -- model -----------------------------------------------------------------


def test_model_filled_shell_ladder_point():
    proc = run_cli("model", "--n-max", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "Z = N = 10 (2 filled shells)"
    assert "exact kinetic energy      200.0" in proc.stdout
    assert "[exact at 2 filled shells]" in proc.stdout


def test_model_magic_z_reports_exact_correction():
    proc = run_cli("model", "--z", "60", "--format", "jsonl")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["filled_shells"] == 4
    assert payload["t_model"] == 14400.0
    assert payload["delta_t"] == pytest.approx(delta_t_exact(4), rel=1e-12)
    assert payload["delta_kind"].startswith("exact at 4")


def test_model_interpolated_z54():
    proc = run_cli("model", "--z", "54", "--format", "jsonl")
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["filled_shells"] is None
    assert payload["t_model"] == pytest.approx(model_kinetic_energy_continuous(54), rel=1e-12)
    assert payload["delta_t"] == pytest.approx(delta_t_interpolated(54, "refit"), rel=1e-12)
    assert "between filled-shell counts 28 and 60" in payload["delta_kind"]
    assert abs(payload["series_relative_gap"]) < 1e-12
    assert payload["interpolation_mode"] == "refit"


def test_model_published_interpolation_mode():
    proc = run_cli("model", "--z", "54", "--interp", "published", "--format", "jsonl")
    payload = json.loads(proc.stdout)
    assert payload["interpolation_mode"] == "published"
    assert payload["delta_t"] == 378.91949999999997


def test_model_beyond_last_node_warns_but_runs():
    proc = run_cli("model", "--z", "80")
    assert proc.returncode == 0
    assert "warning:" in proc.stderr
    assert "beyond the last filled-shell node at 60" in proc.stderr


@pytest.mark.parametrize("z, warns", [(61, True), (109, True), (110, False), (111, False)])
def test_model_warns_only_where_the_cubic_extrapolates(z, warns, capsys):
    # 110 is the exact five-shell node; 111 is out of reach and only errs
    code = cli.main(["model", "--z", str(z)])
    assert code == (2 if z == 111 else 0)
    assert ("warning:" in capsys.readouterr().err) == warns


def test_model_z_below_first_node_runs():
    proc = run_cli("model", "--z", "1")
    assert proc.returncode == 0
    assert "below the first filled-shell count 2" in proc.stdout


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("--z", "111"), "interpolation range"),
        (("--n-max", "41"), "must lie in 1..40"),
        (("--z", "0"), "Z must be at least 1"),
        (("--z", "47642"), "fills 41 shells; filled-shell counts are supported for 1..40 shells"),
        (("--z", str(10**30)), "interpolation range"),
    ],
)
def test_model_rejects_out_of_range_inputs(args, fragment):
    # the filled-shell search takes O(log Z) steps, so even a huge Z is quick
    proc = run_cli("model", *args, timeout=10)
    assert proc.returncode == 2
    assert fragment in proc.stderr


@pytest.mark.parametrize("z", ["0", "-3"])
def test_model_z_below_one_names_the_bound(z):
    proc = run_cli("model", "--z", z)
    assert proc.returncode == 2
    assert proc.stderr == f"error: Z must be at least 1, got {z}\n"
    assert proc.stdout == ""


def test_model_selector_is_required_and_exclusive():
    missing = run_cli("model")
    assert missing.returncode == 2
    assert "required" in missing.stderr
    both = run_cli("model", "--z", "10", "--n-max", "2")
    assert both.returncode == 2
    assert "not allowed with" in both.stderr


def test_model_csv_round_trip():
    proc = run_cli("model", "--n-max", "3", "--format", "csv")
    assert proc.returncode == 0
    (row,) = list(csv.DictReader(proc.stdout.splitlines()))
    assert row["z"] == "28"
    assert float(row["t_model"]) == 2352.0
    assert row["filled_shells"] == "3"


# -- figures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    proc = run_cli("figures", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stderr == ""
    return out, proc.stdout


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_figures_writes_three_csv_files(figures_run):
    out, stdout = figures_run
    for name in ("fig1.csv", "fig1a.csv", "fig2a.csv"):
        assert (out / name).is_file()
        assert f"wrote {out / name}" in stdout


def test_density_figure_blocks(figures_run):
    out, _ = figures_run
    rows = _read_csv(out / "fig1.csv")
    assert len(rows) == 4 * 500
    shells = [int(r["n_max"]) for r in rows]
    assert sorted(set(shells)) == [1, 2, 3, 5]
    for n in (1, 2, 3, 5):
        block = [r for r in rows if int(r["n_max"]) == n]
        assert len(block) == 500
        r_hat = [float(r["r_hat"]) for r in block]
        assert r_hat[0] > 0 and r_hat == sorted(r_hat)
        assert all(float(r["rho_hat_model"]) >= 0 for r in block)
        assert all(float(r["rho_hat_tf"]) >= 0 for r in block)


def test_error_figure_full_ladder(figures_run):
    out, _ = figures_run
    rows = _read_csv(out / "fig1a.csv")
    assert [int(r["n_max"]) for r in rows] == list(range(1, 41))
    for r in rows:
        assert float(r["Z"]) == electron_count(int(r["n_max"]))
        assert float(r["rel_err_T0"]) > 0
    # gradient corrections overshoot the smallest systems: the first
    # column crosses zero at three shells, the second only at eight
    assert [int(r["n_max"]) for r in rows if float(r["rel_err_T2"]) < 0] == [1, 2]
    assert [int(r["n_max"]) for r in rows if float(r["rel_err_T4"]) < 0] == list(range(1, 8))
    last = rows[-1]
    e0, e2, e4 = (float(last[c]) for c in ("rel_err_T0", "rel_err_T2", "rel_err_T4"))
    # successive corrections buy factors approaching 6 and 3 at the top
    # of the ladder; frozen values at forty shells
    assert e0 / e2 == pytest.approx(5.8844, abs=0.05)
    assert e2 / e4 == pytest.approx(3.0836, abs=0.05)


def test_error_figure_tail_slopes(figures_run):
    out, _ = figures_run
    rows = _read_csv(out / "fig2a.csv")
    assert [int(r["n_max"]) for r in rows] == list(range(2, 41, 2))
    tail = [r for r in rows if int(r["n_max"]) >= 20]
    log_z = [math.log(float(r["Z"])) for r in tail]
    slopes = {}
    for col in ("rel_err_T0", "rel_err_T2", "rel_err_T4"):
        vals = [float(r[col]) for r in tail]
        assert all(v > 0 for v in vals)
        slopes[col] = np.polyfit(log_z, [math.log(v) for v in vals], 1)[0]
    # leading error decays like Z^{-1/3}; measured -0.332 and -0.301 on
    # this window.  The last column is still far from its asymptote
    # (measured -0.203), so it only gets a loose descending band.
    assert -0.37 < slopes["rel_err_T0"] < -0.30
    assert -0.37 < slopes["rel_err_T2"] < -0.28
    assert -0.26 < slopes["rel_err_T4"] < -0.15


def test_figures_rerun_is_byte_identical(figures_run, tmp_path: Path):
    out, _ = figures_run
    proc = run_cli("figures", "--out", str(tmp_path))
    assert proc.returncode == 0
    for name in ("fig1.csv", "fig1a.csv", "fig2a.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_figures_convergence_failure_exits_numeric(monkeypatch, capsys, tmp_path: Path):
    # a ladder point failing its Gauss-Kronrod check is the numeric-failure
    # exit; the density file does not integrate and is already on disk by then
    def failing_energies(grid, rows, charge):
        raise ConvergenceError("T_TF: forced failure")

    monkeypatch.setattr(asymptotics, "profile_energies", failing_energies)
    monkeypatch.setattr(asymptotics, "_LADDER", {})
    assert cli.main(["figures", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: T_TF: forced failure\n"
    assert (tmp_path / "fig1.csv").exists()
    assert not (tmp_path / "fig1a.csv").exists()


# -- asymptotics -----------------------------------------------------------


def test_asymptotics_table_flags_one_outlier():
    proc = run_cli("asymptotics")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "extrapolated coefficients on the filled-shell ladder (n_max = 20..25)"
    outside = [line for line in lines if "OUTSIDE TOLERANCE" in line]
    assert len(outside) == 1
    assert "Z^2" in outside[0]
    self_tests = [line for line in lines if "self-test" in line]
    assert len(self_tests) == 2
    assert all("PASS" in line for line in self_tests)


def test_asymptotics_jsonl_rows():
    proc = run_cli("asymptotics", "--format", "jsonl")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    fits = [l for l in lines if "series" in l]
    checks = [l for l in lines if "self_test" in l]
    assert [f["within_tolerance"] for f in fits] == [True, False, True, True, True, True]
    assert [(f["series"], f["power"]) for f in fits] == [
        ("T_TF", "Z^{7/3}"),
        ("T_TF", "Z^2"),
        ("T_TF", "Z^{5/3}"),
        ("T2", "Z^{7/3}"),
        ("T2", "Z^{-1/3}"),
        ("T4", "Z^{-1/3}"),
    ]
    z_sq = fits[1]
    assert z_sq["fitted"] == pytest.approx(-0.6528715562, abs=1e-4)
    assert z_sq["deviation"] > z_sq["tolerance"]
    assert all(c["passed"] for c in checks)


def test_asymptotics_csv_reports_failed_self_test(monkeypatch, capsys):
    # the csv holds only the fit rows, so a failed self-test must reach stderr
    monkeypatch.setattr(cli, "_self_tests", lambda: [("identity series", False, "forced")])
    assert cli.main(["asymptotics", "--format", "csv"]) == 3
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 7
    assert err == "error: self-test identity series failed (forced)\n"


def test_commands_share_one_ladder_cache(monkeypatch):
    # model's exact node at 20 shells is the point asymptotics computed
    assert cli.main(["asymptotics", "--format", "jsonl"]) == 0
    passes = []
    kernel = _kernels.shell_prefixes

    def counting(z, n_max, r):
        passes.append(n_max)
        return kernel(z, n_max, r)

    monkeypatch.setattr(_kernels, "shell_prefixes", counting)
    cached = dict(asymptotics._LADDER)
    assert cli.main(["model", "--n-max", "20"]) == 0
    # no kernel pass, and the cache still holds the same point objects
    assert passes == []
    assert asymptotics._LADDER == cached
    assert asymptotics._LADDER[20] is cached[20]


# -- output formats ----------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize(
    "args",
    [("asymptotics",), ("model", "--z", "54"), ("model", "--n-max", "3")],
    ids=["asymptotics", "model-z54", "model-n3"],
)
def test_csv_rows_equal_jsonl_records(args):
    as_csv = run_cli(*args, "--format", "csv")
    as_jsonl = run_cli(*args, "--format", "jsonl")
    assert as_csv.returncode == as_jsonl.returncode == 0
    header, *rows = list(csv.reader(as_csv.stdout.splitlines()))
    records = [json.loads(line) for line in as_jsonl.stdout.splitlines()]
    assert rows
    for row, record in zip(rows, records):
        assert header == list(record)
        assert row == [_csv_cell(v) for v in record.values()]
    # json lines alone carry the tableau self-tests, after the csv rows
    assert all("self_test" in record for record in records[len(rows):])
    assert len(records) == len(rows) + (2 if args[0] == "asymptotics" else 0)
