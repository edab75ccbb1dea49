"""End-to-end checks of the command-line interface.

The tests run ``tfshell.cli.main`` in this process, directly or through the
golden file's runner ``cli_snapshot.invoke``, which captures both streams
and the exit code, argparse's too.  Five tests start a fresh interpreter,
because the process is what they check:

- ``test_console_script_matches_module_invocation``: the installed
  ``tfshell`` script prints what ``python -m tfshell.cli`` prints;
- ``test_cli_import_leaves_scipy_unloaded``: the modules a fresh
  interpreter loads for every command;
- ``test_a_lowered_int_digit_limit_names_the_file_and_line``: an
  environment variable the interpreter reads at start-up;
- ``test_cli_snapshot_script_runs``: the golden file's script and
  ``python -m`` write what the in-process runner captures;
- ``test_model_rejects_out_of_range_inputs``: a huge Z fails within a
  10 s bound on the whole process.
"""

from __future__ import annotations

import argparse
import ast
import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cli_snapshot
from tfshell import asymptotics, cli, correction
from tfshell.correction import (
    DEFAULT_MODE,
    INTERPOLATION_MODES,
    TABLE1_ERROR_KEYS,
    delta_t,
    delta_t_exact,
)
from tfshell.hydrogenic import MAX_SHELLS, _int_text, electron_count, model_kinetic_energy_continuous
from tfshell.kedf import ConvergenceError

MINIMAL_STO = "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n"

_GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())

def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``tfshell ARGS``, run in this process."""
    return subprocess.CompletedProcess(args, *cli_snapshot.invoke(list(args)))


def run_module(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -m tfshell.cli ARGS`` in a fresh interpreter, for a test of the process itself."""
    return subprocess.run([sys.executable, "-m", "tfshell.cli", *args], capture_output=True, text=True, **kwargs)


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
def test_options_a_command_does_not_read_exit_2(args):
    # each subcommand takes only the flags its command reads
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize("command", ["table1", "model"])
def test_interp_choices_are_the_correction_modes(command):
    # the command line offers the modes of correction's table, as they stand
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (interp,) = (a for a in commands.choices[command]._actions if "--interp" in a.option_strings)
    assert interp.choices == tuple(INTERPOLATION_MODES)
    assert interp.default == DEFAULT_MODE


def test_each_subcommand_parses_to_its_handler():
    # the subparser carries its command's handler; main keeps no second table
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    selector = {"model": ["--z", "2"]}
    for name in commands.choices:
        assert parser.parse_args([name, *selector.get(name, [])]).run is getattr(cli, f"cmd_{name}"), name


def test_console_script_matches_module_invocation():
    proc = subprocess.run(["tfshell", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_module("--help").stdout


def test_cli_import_leaves_scipy_unloaded(tmp_path: Path):
    # scipy, sympy, mpmath, hypothesis and pytest are test dependencies only;
    # neither the import nor any command loads them.  Every power of Z is an
    # integer count of thirds, so fractions, and the decimal module that it
    # imports, stay unloaded too, and the grids' Gauss-Kronrod nodes are
    # tabulated, so numpy.polynomial is never imported for them
    commands = [["table1"], ["model", "--z", "54"], ["asymptotics"], ["figures", "--out", str(tmp_path)]]
    script = (
        "import sys\n"
        "from tfshell import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "unloaded = ('scipy', 'sympy', 'mpmath', 'hypothesis', 'pytest', 'fractions', 'decimal', 'numpy.polynomial')\n"
        "print('loaded:', [name for name in unloaded if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"


def _assert_one_short_error_line(argv, sto, says, tmp_path):
    """Run ``argv``, or ``table1`` on the .sto text ``sto``: exit 2 and one error line saying ``says``."""
    if argv is None:
        data = tmp_path / "long.sto"
        data.write_text(sto)
        argv = ["table1", "--data", str(data)]
    code, out, err = cli_snapshot.invoke(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert says in err.splitlines()[-1]
    assert len(err.splitlines()[-1].encode()) < 300


_LONG_NUMBER = "9" * 5000


@pytest.mark.parametrize(
    "argv, sto, says",
    [
        (["model", "--z", _LONG_NUMBER], None, "error:"),
        (["model", "--n-max", _LONG_NUMBER], None, "error:"),
        (None, MINIMAL_STO.replace("He 2", f"He {_LONG_NUMBER}"), "error:"),
        (None, MINIMAL_STO.replace("4.0", _LONG_NUMBER), "error:"),
        (None, MINIMAL_STO.replace("1s", f"{_LONG_NUMBER}s"), "error:"),
        (None, MINIMAL_STO.replace("1s 2", f"1s {_LONG_NUMBER}"), "error:"),
        (None, MINIMAL_STO.replace("PRM 1", f"PRM {_LONG_NUMBER}"), "error:"),
        (None, MINIMAL_STO.replace("2.0 1.0", f"{_LONG_NUMBER} 1.0"), "error:"),
        (None, MINIMAL_STO.replace("1.0\n", f"{_LONG_NUMBER}\n"), "error:"),
        # 2,000 shells hold a 6,000-digit Z, past str()'s limit
        (["model", "--n-max", "9" * 2000], None, "supported for 1..40 shells"),
        # 4,300 shells, at int()'s limit, hold a 12,900-digit Z
        (["model", "--n-max", "9" * 4300], None, "supported for 1..40 shells"),
        # 4,300 digits, at int()'s limit: read, then refused by the record check
        (None, MINIMAL_STO.replace("1s 2", "1s " + "9" * 4300), "got a 4300-digit number"),
    ],
    ids=["model-z", "model-n-max", "sto-atomic-number", "sto-reference-energy", "sto-label-number",
         "sto-occupation", "sto-primitive-power", "sto-exponent", "sto-coefficient",
         "model-n-max-2000-digits", "model-n-max-4300-digits", "sto-occupation-4300-digits"],
)
def test_a_number_past_the_int_digit_limit_is_one_error_line(argv, sto, says, tmp_path):
    # a 5000-digit number is past int()'s 4300-digit limit and past the float
    # range; each numeric input answers it with exit 2 and one short error
    # line, which names a long integer by its digit count
    _assert_one_short_error_line(argv, sto, says, tmp_path)


_LONG_WORD = "x" * 5000


@pytest.mark.parametrize(
    "argv, sto",
    [
        (None, MINIMAL_STO.replace("ATOM", "W" * 5000)),
        (None, MINIMAL_STO.replace("1s", "s" * 5000)),
        (None, MINIMAL_STO.replace("1s", "1" * 4999 + "k")),
        (None, MINIMAL_STO.replace("2.0 1.0", f"{_LONG_WORD} 1.0")),
        (None, MINIMAL_STO.replace("4.0", _LONG_WORD)),
        (None, MINIMAL_STO.replace("1s 2", f"1s {_LONG_WORD}")),
        (None, MINIMAL_STO.replace("1s 2", "1s 2." + "5" * 4998)),
        (None, MINIMAL_STO.replace("He", "H" * 4999 + "1")),
        (None, MINIMAL_STO.replace("He", "X" * 5000)),
        (["table1", "--atoms", _LONG_WORD], None),
        (["table1", "--atoms", "1" * 5000], None),
    ],
    ids=["sto-directive", "sto-orbital-label", "sto-angular-letter", "sto-exponent",
         "sto-reference-energy", "sto-occupation", "sto-non-integral-occupation",
         "sto-element-symbol", "sto-long-element-symbol", "atoms-letters", "atoms-digits"],
)
def test_a_long_token_is_one_error_line(argv, sto, tmp_path):
    # every message that quotes a token of more than 100 characters, from
    # the command line or a .sto file, names it by its length instead
    _assert_one_short_error_line(argv, sto, "a 5000-character token", tmp_path)


@pytest.mark.parametrize("flag", ["--z", "--n-max"])
@pytest.mark.parametrize(
    "token, shown",
    [
        # int() reads each of these as a number; an option takes ASCII digits after a sign only
        ("5_4", "'5_4'"),
        ("\u0665\u0664", "'\u0665\u0664'"),
        ("\uff15\uff14", "'\uff15\uff14'"),
        (" 54", "' 54'"),
        ("54.0", "'54.0'"),
        ("x" * 100, repr("x" * 100)),
        # a longer token is named by its length
        ("x" * 101, "a 101-character token"),
        ("9" * 5000, "a 5000-character token"),
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "space", "float", "100-characters",
         "101-characters", "5000-digits"],
)
def test_an_integer_option_takes_ascii_digits_after_a_sign(flag, token, shown):
    proc = run_cli("model", flag, token)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"tfshell model: error: argument {flag}: invalid int value: {shown}"


def test_an_integer_option_reads_a_sign_and_leading_zeros(capsys):
    outputs = []
    # leading zeros do not count against int()'s digit limit, as in .sto files
    for token in ("54", "+54", "054", "0" * 5000 + "54"):
        assert cli.main(["model", "--z", token, "--format", "jsonl"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1:] == outputs[:1] * 3
    assert json.loads(outputs[0].out)["z"] == 54


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="the 4301-digit token is past int()'s default digit limit only")
@pytest.mark.parametrize(
    "token, value",
    [
        ("10", 10),
        ("+010", 10),
        ("0" * 700 + "10", 10),
        ("-10", -10),
        ("1_0", None),
        ("\u0661\u0660", None),
        ("\uff11\uff10", None),
        ("+", None),
        ("-", None),
        ("9" * 4300, 10**4300 - 1),
        ("9" * 4301, None),
    ],
    ids=["plain", "sign-and-zero", "700-zeros", "negative", "underscore", "arabic-indic", "fullwidth",
         "plus", "minus", "4300-nines", "4301-nines"],
)
def test_every_integer_site_reads_a_token_alike(token, value, tmp_path, capsys):
    # model --z, table1 --atoms and a .sto atomic number share one reader:
    # each reads the int ``value`` from ``token``, or, where it is None,
    # refuses the token with that site's own not-an-integer message
    shown = _int_text(token)
    code, out, err = cli_snapshot.invoke(["model", "--z", token, "--format", "jsonl"])
    if value is None:
        assert (code, err.splitlines()[-1]) == (2, f"tfshell model: error: argument --z: invalid int value: {shown}")
    elif value == 10:
        assert (code, json.loads(out)["z"]) == (0, 10)
    else:
        side = "below" if value < 1 else "beyond"
        assert (code, err) == (
            2, f"error: Z={_int_text(value)} is not a filled-shell count and lies {side} "
               "the interpolation range (1..110)\n"
        )

    # --atoms prints the same line for a number that names no atom and for an
    # unknown symbol, so stand-in records at every read value show the reading
    stand_ins = {
        symbol: types.SimpleNamespace(element=symbol, atomic_number=z)
        for symbol, z in (("Ne", 10), ("Neg", -10), ("Big", 10**4300 - 1))
    }
    chosen, _ = cli._select_records([token], stand_ins)
    assert [rec.atomic_number for rec in chosen] == ([] if value is None else [value])
    code = cli.main(["table1", "--atoms", token, "--format", "jsonl"])
    out, err = capsys.readouterr()
    if value == 10:
        assert (code, json.loads(out)["atom"]) == (0, "Ne")
    else:
        assert (code, out, err) == (2, "", f"error: no data for atom {shown}\n")

    data = tmp_path / "z.sto"
    data.write_text(MINIMAL_STO.replace("He 2", f"He {token}"), encoding="utf-8")
    assert cli.main(["table1", "--data", str(data)]) == 2
    err = capsys.readouterr().err.removeprefix(f"error: {data}: line 1: ")
    if value is None:
        assert re.fullmatch(
            rf"atomic number (must be numeric, got {re.escape(shown)}|has \d+ significant digits, more than the 4300 read)\n",
            err,
        )
    elif value < 1:
        assert err == f"atomic number must be a positive integer, got {value}\n"
    else:
        assert err == f"charge mismatch for He: occupations sum to 2, atomic number is {_int_text(value)}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7")
def test_a_lowered_int_digit_limit_names_the_file_and_line(tmp_path):
    # int() obeys PYTHONINTMAXSTRDIGITS, so the parser reads its limit from the interpreter
    data = tmp_path / "z.sto"
    data.write_text(MINIMAL_STO.replace("He 2", "He " + "9" * 1000))
    proc = run_module("table1", "--data", str(data), env=dict(os.environ, PYTHONINTMAXSTRDIGITS="640"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {data}: line 1: atomic number has 1000 significant digits, more than the 640 read\n"


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


def test_every_invocation_matches_the_golden_file():
    # the command line's one byte gate; cli_snapshot.py regenerates it (README, "Reproducibility")
    assert cli_snapshot.differences(_GOLDEN, cli_snapshot.run()) == {}


@pytest.mark.parametrize(
    "name, old, new, named",
    [
        pytest.param("table1_table", "0.59      3.6", "0.59      3.7", True, id="he-t4-cell-digit"),
        pytest.param("asymptotics_table", "fitted  1.14471433", "fitted  1.14472433", True, id="fit-moved-1e-5"),
        pytest.param("asymptotics_table", "|dev| 1.48e-03", "|dev| 1.50e-03", True, id="dev-two-digits"),
        # 1.47614e-3, 8.6e-8 from 1.475e-3 at the least over seven BLAS and SIMD settings, may read
        # 1.47e-03: one unit of a table's last digit
        pytest.param("asymptotics_table", "|dev| 1.48e-03", "|dev| 1.47e-03", False, id="dev-rounding-edge"),
        # fig1a.csv's n_max 8 rel_err_T4, (t - t_k) / t near 0, held to 1e-11 absolute
        pytest.param("figures", "1.5160693416560328e-06", "1.5160893416560328e-06", True, id="cancelled-cell-2e-11"),
        pytest.param("figures", "1.5160693416560328e-06", "1.5160693417560328e-06", False, id="cancelled-cell-1e-16"),
        pytest.param("table1_atoms_og", "for atom 'Og'", "for atoms 'Og'", True, id="text-byte"),
        pytest.param("figures", '"exit_code": 0', '"exit_code": 1', True, id="exit-code"),
    ],
)
def test_the_golden_comparison_names_a_changed_entry(name, old, new, named):
    entry = json.dumps(_GOLDEN[name])
    assert old in entry
    moved = {**_GOLDEN, name: json.loads(entry.replace(old, new))}
    assert list(cli_snapshot.differences(_GOLDEN, moved)) == [name] * named


def test_the_golden_comparison_passes_numbers_within_its_tolerance():
    def scaled(line):
        return cli_snapshot._NUMBER.sub(lambda m: repr(float(m[0]) * (1 + 1e-13)), line)

    moved = {name: {part: value if part == "exit_code" else [*map(scaled, value)] for part, value in entry.items()}
             for name, entry in _GOLDEN.items()}
    assert moved != _GOLDEN
    assert cli_snapshot.differences(_GOLDEN, moved) == {}


def test_cli_snapshot_script_runs(tmp_path: Path):
    # the script writes the golden entries it is named, and python -m prints what they hold,
    # a usage error too, which argparse wraps to the COLUMNS the script sets
    script = Path(__file__).with_name("cli_snapshot.py")
    names = ["model_z2_jsonl", "table1_atoms_og", "table1_bogus"]
    out = tmp_path / "golden.json"
    proc = subprocess.run([sys.executable, str(script), str(out), *names], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == names
    written = json.loads(out.read_text())
    assert cli_snapshot.differences({name: _GOLDEN[name] for name in names}, written) == {}
    for name in names:
        proc = run_module(*cli_snapshot._invocations()[name], env=dict(os.environ, COLUMNS="80"))
        streams = {"stdout": proc.stdout.splitlines(True), "stderr": proc.stderr.splitlines(True)}
        assert written[name] == {"exit_code": proc.returncode, **streams}


# -- table1 ----------------------------------------------------------------


def test_table1_default_output_pinned():
    # the golden file holds the bytes; here each row must print its own
    # atom's jsonl record: Z, the symbol and format_percent of each error
    proc = run_cli("table1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert len(rows) == 17
    jsonl = run_cli("table1", "--format", "jsonl").stdout
    records = {record["z"]: record for record in map(json.loads, jsonl.splitlines())}
    assert [int(row[0]) for row in rows] == sorted(records)
    for row in rows:
        record = records[int(row[0])]
        percents = [cli.format_percent(record[key]) for key in TABLE1_ERROR_KEYS]
        assert row == [str(record["z"]), record["atom"], *percents]


def test_table1_makes_ladder_passes_for_its_filled_shell_atoms_alone(capsys, shell_passes):
    # He and Ne read their exact nodes off one pass each; every other atom
    # takes a constant cubic and no pass
    assert cli.main(["table1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 17
    assert [n_max for _, n_max in shell_passes] == [1, 2]


def test_table1_atom_selection_folds_case_and_accepts_z():
    # a number may carry a + and leading zeros
    proc = run_cli("table1", "--atoms", "ne,18", "--atoms", "KR", "--atoms", "+010,02")
    assert proc.returncode == 0
    symbols = [line.split()[1] for line in proc.stdout.splitlines()[2:]]
    assert symbols == ["Ne", "Ar", "Kr", "Ne", "He"]


def test_table1_unknown_atom_exits_data():
    proc = run_cli("table1", "--atoms", "Al")
    assert proc.returncode == 2
    assert "no data for atom 'Al'" in proc.stderr
    assert proc.stdout == ""
    # only ASCII digits after an optional sign name an atomic number, a
    # negative one none, and a number past int()'s 4300-digit limit names
    # none either; a token of more than 100 characters is named by its length
    for token, shown in (("-2", "'-2'"), ("+-5", "'+-5'"), ("²", "'²'"), ("٣", "'٣'"),
                         ("1" * 5000, "a 5000-character token")):
        proc = run_cli("table1", f"--atoms={token}")
        assert proc.returncode == 2
        assert proc.stderr == f"error: no data for atom {shown}\n"
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
    assert _GOLDEN["table1_table"]["stdout"][2] in proc.stdout
    assert "no data for atom 'Al'" in proc.stderr


def test_table1_csv_runs_are_byte_identical():
    first = run_cli("table1", "--format", "csv")
    second = run_cli("table1", "--format", "csv")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # below its header the csv holds the table's cells
    table = run_cli("table1").stdout.splitlines()[2:]
    assert [line.split(",") for line in first.stdout.splitlines()[1:]] == [line.split() for line in table]


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
        # past 100 the figures are rounded too, not printed as they stand
        (123.456, "120"),
        (995.0, "1000"),
        (1234.5, "1200"),
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


def test_table1_data_file_may_start_with_a_byte_order_mark(tmp_path: Path, capsys):
    data = tmp_path / "he.sto"
    data.write_bytes(b"\xef\xbb\xbf" + (Path(cli.__file__).with_name("data") / "he.sto").read_bytes())
    assert cli.main(["table1", "--data", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines(True) == _GOLDEN["table1_table"]["stdout"][:3]
    assert captured.err == ""


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


def test_table1_row_value_error_is_that_atoms_error(monkeypatch, capsys):
    # a ValueError raised while one atom's row is built
    # is that atom's error line; the other atoms are still reported
    build_row = cli.table1_row

    def row(record, delta):
        if record.element == "He":
            raise ValueError("forced grid failure")
        return build_row(record, delta)

    monkeypatch.setattr(cli, "table1_row", row)
    assert cli.main(["table1", "--atoms", "He,Ne", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "error: He: forced grid failure\n"
    assert [line.split(",")[1] for line in captured.out.splitlines()[1:]] == ["Ne"]


def test_a_diverging_extrapolation_tableau_exits_3(monkeypatch, capsys):
    # ladder energies with alternating 0.1% noise: the tableau of the first
    # fit diverges, and main reports it as a numerical failure
    ladder = cli.model_energy_sequence

    def noisy(shell_counts):
        return [
            point._replace(t=point.t._replace(t_tf=point.t.t_tf * (1.0 + 1e-3 * (-1) ** i)))
            for i, point in enumerate(ladder(shell_counts))
        ]

    monkeypatch.setattr(cli, "model_energy_sequence", noisy)
    for fmt in ("table", "csv", "jsonl"):
        assert cli.main(["asymptotics", "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: extrapolation tableau diverges: correction sizes grew from ")
        assert err.count("\n") == 1


def test_table1_all_rows_failing_numerically_exits_3(monkeypatch, capsys):
    def boom(field):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr(correction, "energies", boom)
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


@pytest.mark.parametrize("n_max", ["10", "40"])
def test_model_series_gap_reads_zero_at_filled_shells(n_max):
    # at 770 and 44280 electrons the five-term series rounds to n Z^2 itself;
    # float exponents k / 3 printed gaps of 1.100e-15 and 1.556e-15
    proc = run_cli("model", "--n-max", n_max)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].endswith("  relative gap 0.000e+00")


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
    delta, _ = delta_t(54, "refit")
    assert payload["delta_t"] == pytest.approx(delta, rel=1e-12)
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
        (("--n-max", "41"), "fills 41 shells; filled-shell counts are supported for 1..40 shells"),
        (("--z", "0"), "below the interpolation range (1..110)"),
        (("--z", "47642"), "fills 41 shells; filled-shell counts are supported for 1..40 shells"),
        (("--z", str(10**30)), "interpolation range"),
    ],
)
def test_model_rejects_out_of_range_inputs(args, fragment):
    # the filled-shell search takes O(log Z) steps, so even a huge Z is quick
    proc = run_module("model", *args, timeout=10)
    assert proc.returncode == 2
    assert fragment in proc.stderr


@pytest.mark.parametrize(
    "argv", [["table1", "--data", "bad\0.sto"], ["figures", "--out", "o\0ut"]], ids=["table1-data", "figures-out"]
)
def test_a_path_with_a_null_byte_is_one_error_line(argv, capsys):
    # no path may hold a null byte, and open() and mkdir() say so with a bare
    # ValueError, which main reports as a data failure like any other
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: embedded null byte\n"


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("--z", str(10**60)), "interpolation range (1..110)"),
        (("--n-max", str(10**19)), "fills 10000000000000000000 shells; filled-shell counts are supported"),
    ],
)
def test_model_past_the_index_range_is_one_error_line(args, fragment, capsys):
    # the filled-shell search must not index a range longer than sys.maxsize
    assert cli.main(["model", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("z", ["0", "-3"])
def test_model_z_below_one_names_the_bound(z):
    proc = run_cli("model", "--z", z)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: Z={z} is not a filled-shell count and lies below the interpolation range (1..110)\n"
    )
    assert proc.stdout == ""


def test_model_n_max_zero_names_the_bound():
    proc = run_cli("model", "--n-max", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: n_max must be a positive integer, got 0\n"
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
    assert cli.main(["figures", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: T_TF: forced failure\n"
    assert (tmp_path / "fig1.csv").exists()
    assert not (tmp_path / "fig1a.csv").exists()


def test_figures_make_one_ladder_pass(tmp_path: Path, shell_passes):
    # fig1a's forty points come from one pass at the top charge, and fig2a
    # is fig1a's even rows, not a second ladder request
    assert cli.main(["figures", "--out", str(tmp_path)]) == 0
    top = float(electron_count(MAX_SHELLS))
    assert [n_max for z, n_max in shell_passes if z == top] == [MAX_SHELLS]
    fig1a = (tmp_path / "fig1a.csv").read_text().splitlines()
    fig2a = (tmp_path / "fig2a.csv").read_text().splitlines()
    assert fig2a == fig1a[:1] + fig1a[2::2]


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


def test_filled_shell_model_makes_one_ladder_pass(capsys, shell_passes):
    # the exact node at 10 shells needs no cubic, so its pass is the only one
    assert cli.main(["model", "--n-max", "10", "--format", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out)["filled_shells"] == 10
    assert [n_max for _, n_max in shell_passes] == [10]


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
