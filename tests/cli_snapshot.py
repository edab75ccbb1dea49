"""Write what the command line prints for a fixed list of invocations.

Usage: python tests/cli_snapshot.py [--src PATH] OUTDIR [NAME ...]

Each invocation runs ``python -m tfshell.cli`` from the ``src`` tree of
the checkout at PATH (by default the one holding this script), in its own
directory ``OUTDIR/NAME``, and leaves there its ``stdout``, ``stderr`` and
``exit_code``; the ``figures`` run also leaves its three CSV files under
``figures/``, and each ``table1_data_*`` run reads the ``bad.sto`` written
into its directory first, by a relative path, so that no byte depends on
where the tree sits.  The bundled he.sto and ne.sto that some runs read
come from PATH too.  Give NAMEs to run only those.  Three runs,
``table1_data_long_directive``, ``table1_data_long_exponent`` and
``table1_atoms_101_letters``, show that an error message names a token of
more than 100 characters by its length.
One invocation list thus serves both sides of a byte gate: snapshot this
checkout, then another with ``--src``, and compare the two output
directories byte for byte with ``diff -r``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
FORMATS = ("table", "csv", "jsonl")
HELIUM = "ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n"


def _data_files(src: Path) -> dict[str, bytes]:
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
    is past the float range, and a 5,000-character directive and exponent,
    which their messages name by length.
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
    }
    files = {f"table1_data_{key}": text.encode() for key, text in texts.items()}
    files["table1_data_not_utf8"] = HELIUM.encode("utf-16")
    helium = (src / "tfshell" / "data" / "he.sto").read_bytes()
    files["table1_data_byte_order_mark"] = b"\xef\xbb\xbf" + helium
    files["table1_data_utf8_comment"] = "# H\u00e9lium, \u0396 = \u0662\n".encode() + helium
    files["table1_data_low_reference"] = helium.replace(b"ATOM He 2 2.8617128", b"ATOM He 2 1.0")
    return files


def _invocations(src: Path) -> dict[str, list[str]]:
    """Snapshot name -> CLI arguments."""
    bundled_neon = str(src / "tfshell" / "data" / "ne.sto")
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
    runs.update((name, ["table1", "--data", "bad.sto"]) for name in _data_files(src))
    return runs


def snapshot(out_dir: Path, names: list[str] | None = None, tree: Path = TREE) -> list[str]:
    """Run the invocations called ``names`` (all by default) into ``out_dir``; return their names.

    Each runs the command line of the ``src`` tree of the checkout ``tree``.
    """
    src = tree / "src"
    runs, data_files = _invocations(src), _data_files(src)
    unknown = sorted(set(names or ()) - set(runs))
    if unknown:
        raise ValueError(f"unknown invocation {', '.join(unknown)}; known: {', '.join(runs)}")
    # argparse wraps help and usage text to COLUMNS
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    chosen = names or list(runs)
    for name in chosen:
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
        if name in data_files:
            (run_dir / "bad.sto").write_bytes(data_files[name])
        proc = subprocess.run(
            [sys.executable, "-m", "tfshell.cli", *runs[name]],
            capture_output=True,
            cwd=run_dir,
            env=env,
        )
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
    return chosen


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=TREE, metavar="PATH",
                        help="checkout whose src tree runs (default: the one holding this script)")
    parser.add_argument("out_dir", type=Path, metavar="OUTDIR")
    parser.add_argument("names", nargs="*", default=[], metavar="NAME")
    args = parser.parse_args()
    for name in snapshot(args.out_dir, args.names, args.src.resolve()):
        print(name)
