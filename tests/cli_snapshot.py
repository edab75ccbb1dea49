"""Run a fixed list of command-line invocations and keep what they print in one golden file.

Usage: python tests/cli_snapshot.py GOLDEN [NAME ...]

Each invocation calls ``tfshell.cli.main`` in this process through
``invoke``, the runner the command-line tests share, in a temporary working
directory of its own, with ``COLUMNS=80``.  GOLDEN, a JSON file keyed by
invocation name, keeps its exit code, stdout, stderr and each CSV file it
wrote (``figures``', by path), each as a list of lines.  Each
``table1_data_*`` run reads the ``bad.sto`` written into its directory first,
by a relative path, so that no byte depends on where the tree sits.  Give
NAMEs to rewrite only their entries.  ``differences`` compares two such files
by value (README, "Reproducibility"); Tier-1 checks ``cli_golden.json`` so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from tfshell import cli

DATA = Path(cli.__file__).parent / "data"
FORMATS = ("table", "csv", "jsonl")
HELIUM = "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n"
# BLAS kernels and SIMD loops moved numbers by <= 2.45e-12 relative, asymptotics fits by 1.85e-7
REL_TOL, ASYMPTOTICS_ABS_TOL = 1e-11, 1e-6
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# entries that argparse words in part, and Python versions word differently
_USAGE_ENTRY = re.compile(r"help|\w+_help|no_command|table1_bogus|model_no_selector|model_z_\w+")
# its usage block, blank lines, section headings, -h's help and command list
_ARGPARSE_LINE = re.compile(r"usage: .*|\s+[\[(].*|\s*|[a-z ]+:|  -h, --help .*|  \{.*\}")
# its error lines, where only a message after "argument --z: " is the package's
_ARGPARSE_ERROR = re.compile(r"tfshell(?: \w+)?: error: (?:argument \S+: (?P<package>.*\n?))?")


def _data_files() -> dict[str, bytes]:
    """Snapshot name -> the ``bad.sto`` its ``table1 --data bad.sto`` run reads.

    One file per distinct parse, empty-input or decode message, one per
    record fault, two where a structural fault follows a record fault, a
    form feed on a line of its own, one per non-ASCII or underscored token,
    the bundled he.sto behind a UTF-8 byte-order mark and behind a
    non-ASCII comment, he.sto under a reference energy low enough that its
    errors pass 100%, an atomic number past 2^53 that float() would
    round, an orbital label whose 5,000-digit number is past int()'s
    digit limit, an occupation of 400 digits, past the float range but
    read exactly, one of 4,300 digits, at int()'s default limit, which the
    record check names by its digit count, a primitive power whose (2n)!
    is past the float range, and a 5,000-character directive, exponent and
    element symbol, which their messages name by length.
    """
    texts = {
        "unknown_directive": "WAT He 2 4.0\n",
        "orb_before_atom": "ORB 1s 2\n",
        "prm_before_orb": "ATOM He 2 4.0\nPRM 1 2.0 1.0\n",
        "atom_fields": "ATOM He 2\n",
        "orb_fields": "ATOM He 2 4.0\nORB 1s\n",
        "prm_fields": "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0\n",
        "not_numeric": "ATOM He two 4.0\n",
        "not_integer": "ATOM He 2.5 4.0\n",
        "orbital_label": "ATOM He 2 4.0\nORB s1 2\n",
        "angular_letter": "ATOM He 2 4.0\nORB 1k 2\n",
        "no_atom": "# only a comment\n",
        "occupation": HELIUM.replace("ORB 1s 2", "ORB 1s 3"),
        "exponent": HELIUM.replace("PRM 1 2.0", "PRM 1 -2.0"),
        "norm": HELIUM.replace("1.0\n", "1.1\n"),
        "charge_mismatch": HELIUM.replace("He 2", "He 3"),
        "huge_atomic_number": HELIUM.replace("He 2", "He 9007199254740993"),
        "long_label": HELIUM.replace("1s", "9" * 5000 + "s"),
        "long_occupation": HELIUM.replace("ORB 1s 2", "ORB 1s " + "9" * 400),
        "limit_occupation": HELIUM.replace("ORB 1s 2", "ORB 1s " + "9" * 4300),
        "huge_power": HELIUM.replace("PRM 1 2.0 1.0", "PRM 100000 0.5 1.0"),
        "reference_energy": HELIUM.replace("4.0", "-4.0"),
        "norm_then_directive": HELIUM.replace("1.0\n", "1.1\n") + "ORB 2s 0\nWAT\n",
        "exponent_then_directive": HELIUM.replace("PRM 1 2.0", "PRM 1 -2.0") + "WAT\n",
        "form_feed": "# page one\n\f\n" + HELIUM + "BAD\n",
        "underscore": HELIUM.replace("4.0", "4_0.0"),
        "arabic_indic_digit": HELIUM.replace("He 2", "He \u0662"),
        "fullwidth_digit": HELIUM.replace("2.0 1.0", "2.0 \uff11.0"),
        "arabic_indic_label": HELIUM.replace("1s", "\u0661s"),
        "greek_symbol": HELIUM.replace("He", "\u0397e"),
        "long_directive": HELIUM.replace("ATOM", "W" * 5000),
        "long_exponent": HELIUM.replace("PRM 1 2.0", "PRM 1 " + "x" * 5000),
        "long_symbol": HELIUM.replace("He", "X" * 5000),
    }
    files = {f"table1_data_{key}": text.encode() for key, text in texts.items()}
    files["table1_data_not_utf8"] = HELIUM.encode("utf-16")
    helium = (DATA / "he.sto").read_bytes()
    files["table1_data_byte_order_mark"] = b"\xef\xbb\xbf" + helium
    files["table1_data_utf8_comment"] = "# H\u00e9lium, \u0396 = \u0662\n".encode() + helium
    files["table1_data_low_reference"] = helium.replace(b"ATOM He 2 2.8617128", b"ATOM He 2 1.0")
    return files


def _invocations() -> dict[str, list[str]]:
    """Snapshot name -> CLI arguments."""
    bundled_neon = str(DATA / "ne.sto")
    runs = {
        **{f"table1_{fmt}": ["table1", "--format", fmt] for fmt in FORMATS},
        "table1_published": ["table1", "--interp", "published"],
        "table1_published_jsonl": ["table1", "--interp", "published", "--format", "jsonl"],
        "table1_atoms": ["table1", "--atoms", "Xe,Li,Ne,He"],
        "table1_atoms_og": ["table1", "--atoms", "Og"],
        "table1_atoms_numbers": ["table1", "--atoms", "+010,02,36,-2,Og"],
        # past int()'s 4300-digit limit; this token and one of 101 letters are named by length
        "table1_atoms_long_number": ["table1", "--atoms", "1" * 5000],
        "table1_atoms_101_letters": ["table1", "--atoms", "x" * 101],
        "table1_data_ne_jsonl": ["table1", "--data", bundled_neon, "--format", "jsonl"],
    }
    for flag, values in (("--z", (1, 2, 54, 61, 110, 111, 0)), ("--n-max", (1, 10, 40, 41))):
        for value in values:
            for fmt in FORMATS:
                runs[f"model_{flag.strip('-')}{value}_{fmt}"] = ["model", flag, str(value), "--format", fmt]
    # 10**60 electrons and 10**19 shells: shell counts past sys.maxsize
    for flag, power in (("--z", 60), ("--n-max", 19)):
        for fmt in FORMATS:
            runs[f"model_{flag.strip('-')}1e{power}_{fmt}"] = ["model", flag, str(10**power), "--format", fmt]
    # 2,000 shells hold a 6,000-digit Z, past str()'s limit, before the 40-shell cap refuses them
    runs["model_n-max_2000_digits"] = ["model", "--n-max", "9" * 2000]
    # 4,300 shells, at int()'s digit limit, hold a 12,900-digit Z
    runs["model_n-max_4300_digits"] = ["model", "--n-max", "9" * 4300]
    # an integer option takes ASCII digits after a sign only, and names a long token by its length
    runs["model_z_underscore"] = ["model", "--z", "5_4"]
    runs["model_z_5000_digits"] = ["model", "--z", "9" * 5000]
    runs.update({f"asymptotics_{fmt}": ["asymptotics", "--format", fmt] for fmt in FORMATS})
    runs["figures"] = ["figures", "--out", "figures"]
    runs["help"] = ["--help"]
    for command in ("table1", "model", "figures", "asymptotics"):
        runs[f"{command}_help"] = [command, "--help"]
    runs["no_command"] = []
    runs["table1_bogus"] = ["table1", "--bogus"]
    runs["model_no_selector"] = ["model"]
    runs.update((name, ["table1", "--data", "bad.sto"]) for name in _data_files())
    return runs


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``tfshell.cli.main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits after help and usage
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(names: list[str] | None = None) -> dict[str, dict]:
    """Golden entries of the invocations called ``names`` (all by default), run in this process."""
    runs, data_files, entries, home = _invocations(), _data_files(), {}, os.getcwd()
    # argparse wraps help and usage text to COLUMNS
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for name in names or runs:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    if name in data_files:
                        Path("bad.sto").write_bytes(data_files[name])
                    code, out, err = invoke(runs[name])
                finally:
                    os.chdir(home)
                texts = {"stdout": out, "stderr": err}
                csvs = sorted(Path(work).rglob("*.csv"))
                texts.update((path.relative_to(work).as_posix(), path.read_bytes().decode()) for path in csvs)
            entries[name] = {"exit_code": code, **{part: text.splitlines(keepends=True) for part, text in texts.items()}}
    return entries


def _package_lines(lines: list[str]) -> list[str]:
    """``lines`` without what argparse words: ``_ARGPARSE_LINE`` and the head of ``_ARGPARSE_ERROR``."""
    lines = [(error["package"] or "") if (error := _ARGPARSE_ERROR.match(line)) else line for line in lines]
    return [line for line in lines if not _ARGPARSE_LINE.fullmatch(line.rstrip("\n"))]


def _difference(name: str, want: dict | None, got: dict | None) -> str | None:
    """How entry ``got`` first differs from the golden ``want``, or None."""
    if want is None or got is None:
        return "not run" if got is None else "not in the golden file"
    if (got["exit_code"], sorted(got)) != (want["exit_code"], sorted(want)):
        return f"exit code {got['exit_code']} with {sorted(got)}, not {want['exit_code']} with {sorted(want)}"
    abs_tol = ASYMPTOTICS_ABS_TOL if name.startswith("asymptotics_") else 0.0
    for part in sorted(want.keys() - {"exit_code"}):
        lines = [_package_lines(entry[part]) if _USAGE_ENTRY.fullmatch(name) else entry[part] for entry in (want, got)]
        for number, (a, b) in enumerate(itertools.zip_longest(*lines, fillvalue=""), 1):
            # the same text between number tokens, and each number, unless it reads as inf, within tolerance
            if _NUMBER.split(a) != _NUMBER.split(b) or not all(
                x == y or math.isfinite(float(x)) and math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=abs_tol)
                for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))
            ):
                return f"{part} line {number} is {b!r}, not {a!r}"
    return None


def differences(golden: dict[str, dict], entries: dict[str, dict]) -> dict[str, str]:
    """Name -> how the entry differs, for each entry of ``golden`` or ``entries`` that differs or is missing."""
    names = sorted(golden.keys() | entries.keys())
    return {name: found for name in names if (found := _difference(name, golden.get(name), entries.get(name)))}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("golden", type=Path, metavar="GOLDEN")
    parser.add_argument("names", nargs="*", default=[], metavar="NAME")
    args = parser.parse_args()
    entries = json.loads(args.golden.read_text()) if args.names and args.golden.exists() else {}
    entries.update(run(args.names))
    # one line per output line, so a moved number is one changed line in a diff
    args.golden.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(*(args.names or entries), sep="\n")
