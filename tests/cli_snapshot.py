"""Write what the command line prints for a fixed list of invocations.

Usage: python tests/cli_snapshot.py OUTDIR [NAME ...]

Each invocation runs ``python -m tfshell.cli`` from the ``src`` tree next
to this script, in its own directory ``OUTDIR/NAME``, and leaves there its
``stdout``, ``stderr`` and ``exit_code``; the ``figures`` run also leaves
its three CSV files under ``figures/``.  Give NAMEs to run only those.
Copy the script into another checkout to snapshot that tree too; two
snapshots are then compared byte for byte with ``diff -r``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS = ("table", "csv", "jsonl")


def _invocations() -> dict[str, list[str]]:
    """Snapshot name -> CLI arguments."""
    bundled_neon = str(SRC / "tfshell" / "data" / "ne.sto")
    runs = {
        **{f"table1_{fmt}": ["table1", "--format", fmt] for fmt in FORMATS},
        "table1_published": ["table1", "--interp", "published"],
        "table1_published_jsonl": ["table1", "--interp", "published", "--format", "jsonl"],
        "table1_atoms": ["table1", "--atoms", "Xe,Li,Ne,He"],
        "table1_atoms_og": ["table1", "--atoms", "Og"],
        "table1_data_ne_jsonl": ["table1", "--data", bundled_neon, "--format", "jsonl"],
    }
    for flag, values in (("--z", (1, 2, 54, 61, 110, 111, 0)), ("--n-max", (1, 10, 40, 41))):
        for value in values:
            for fmt in FORMATS:
                runs[f"model_{flag.strip('-')}{value}_{fmt}"] = ["model", flag, str(value), "--format", fmt]
    # 10**60 electrons and 10**19 shells: the shell search outgrows sys.maxsize
    for flag, power in (("--z", 60), ("--n-max", 19)):
        for fmt in FORMATS:
            runs[f"model_{flag.strip('-')}1e{power}_{fmt}"] = ["model", flag, str(10**power), "--format", fmt]
    runs.update({f"asymptotics_{fmt}": ["asymptotics", "--format", fmt] for fmt in FORMATS})
    runs["figures"] = ["figures", "--out", "figures"]
    runs["help"] = ["--help"]
    for command in ("table1", "model", "figures", "asymptotics"):
        runs[f"{command}_help"] = [command, "--help"]
    runs["no_command"] = []
    runs["table1_bogus"] = ["table1", "--bogus"]
    runs["model_no_selector"] = ["model"]
    return runs


def snapshot(out_dir: Path, names: list[str] | None = None) -> list[str]:
    """Run the invocations called ``names`` (all by default) into ``out_dir``; return their names."""
    runs = _invocations()
    unknown = sorted(set(names or ()) - set(runs))
    if unknown:
        raise ValueError(f"unknown invocation {', '.join(unknown)}; known: {', '.join(runs)}")
    # argparse wraps help and usage text to COLUMNS
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    chosen = names or list(runs)
    for name in chosen:
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
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
    if len(sys.argv) < 2:
        sys.exit(__doc__.split("\n\n")[1])
    for name in snapshot(Path(sys.argv[1]), sys.argv[2:]):
        print(name)
