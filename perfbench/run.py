"""End-to-end benchmark of the three tfshell pipelines behind the paper's numbers.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload asymptotics --seed 1 --seconds 16 --trace 0

Workloads, each a ``tfshell.cli`` subcommand run in a fresh interpreter per
pass (the ladder points and correction nodes are cached per process, so a
second pass in one process would time cache hits no CLI user gets):

``asymptotics``  ``asymptotics --format jsonl``
``figures``      ``figures --out DIR``, DIR a scratch directory of the run
``table1``       ``table1 --format jsonl --atoms ...`` over all 17 bundled atoms

A run makes passes one at a time until ``--seconds`` have elapsed (at least
one), checks every pass's output against the oracles in ``checks.py``
outside the timed region, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, medians over the
run's passes; with ``--trace 1`` each round makes one untraced and one
traced pass (see ``tracer.py``) and the metrics are the per-layer ones.

The seed permutes the ``--atoms`` order of ``table1`` and the order of the
two passes of a traced round; the program's inputs are otherwise fixed.

Exits 2 without a result when the checkout has no importable tfshell, and
1 when no pass ran to completion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".bench_build"

# Import-time samples per run: passes' own imports, topped up with
# import-only passes, so set-up is a median even when one pass fills the run.
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Workload:
    name: str
    # (rng, output directory) -> (CLI arguments, what the check needs)
    make_args: Callable[[random.Random, Path], tuple[list[str], object]]
    check: Callable[[str, Path, object], list[str]]


def _table1_args(rng: random.Random, out_dir: Path) -> tuple[list[str], object]:
    atoms = tuple(rng.sample(checks.ATOMS, len(checks.ATOMS)))
    return ["table1", "--format", "jsonl", "--atoms", ",".join(atoms)], atoms


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "asymptotics",
            lambda rng, out: (["asymptotics", "--format", "jsonl"], None),
            lambda stdout, out, ctx: checks.check_asymptotics(stdout),
        ),
        Workload(
            "figures",
            lambda rng, out: (["figures", "--out", str(out)], None),
            lambda stdout, out, ctx: checks.check_figures(stdout, out),
        ),
        Workload("table1", _table1_args, lambda stdout, out, ctx: checks.check_table1(stdout, ctx)),
    )
}


@dataclass
class Pass:
    record: dict = field(default_factory=dict)
    stdout: str = ""
    failures: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)
    output_files: dict[str, bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.check_failures


def _child_env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["TMPDIR"] = str(scratch)
    return env


def run_pass(cli_args: list[str], scratch: Path, *, trace: bool = False) -> Pass:
    """One fresh interpreter: import tfshell, run the CLI once, report."""
    result = Pass()
    result_path = scratch / "pass.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(result_path)]
    command += ["--trace"] if trace else []
    try:
        proc = subprocess.run(
            command + cli_args,
            cwd=ROOT,
            env=_child_env(scratch),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result.failures.append(f"pass {cli_args[:1]} exceeded {PASS_TIMEOUT_S} s")
        return result
    result.stdout = proc.stdout
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        result.failures.append(f"pass {cli_args[:1]} exited {proc.returncode}: {' | '.join(tail)}")
        return result
    result.record = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result.record["tfshell_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"tfshell imported from {result.record['tfshell_file']}, not from {SRC}")
    return result


def run_workload_pass(workload: Workload, cli_args: list[str], ctx, out_dir: Path,
                      scratch: Path, *, trace: bool = False) -> Pass:
    shutil.rmtree(out_dir, ignore_errors=True)
    result = run_pass(cli_args, scratch, trace=trace)
    if result.ok:
        try:
            result.check_failures = workload.check(result.stdout, out_dir, ctx)
        except (KeyError, TypeError, ValueError) as exc:
            result.check_failures = [f"{workload.name}: malformed output ({exc!r})"]
        if out_dir.is_dir():
            result.output_files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _report_failures(passes: list[Pass]) -> None:
    for p in passes:
        for message in p.failures + p.check_failures:
            print(f"FAILED: {message}", file=sys.stderr)


def measured_run(workload: Workload, rng: random.Random, seconds: float, scratch: Path) -> dict:
    """End-to-end metrics: medians over the passes of one run."""
    out_dir = scratch / "out"
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        cli_args, ctx = workload.make_args(rng, out_dir)
        passes.append(run_workload_pass(workload, cli_args, ctx, out_dir, scratch))
    _report_failures(passes)
    ran = [p for p in passes if p.record]
    if not ran:
        raise RuntimeError("no pass ran to completion")

    setup = [p.record["setup_s"] for p in ran]
    while len(setup) < SETUP_SAMPLES:
        probe = run_pass([], scratch)
        if not probe.ok:
            raise RuntimeError("; ".join(probe.failures))
        setup.append(probe.record["setup_s"])
    samples = {
        "setup_s": setup,
        "wall_s": [p.record["wall_s"] for p in ran],
        "peak_rss_mib": [p.record["peak_rss_mib"] for p in ran],
    }
    print(json.dumps({"samples": samples}))
    return {
        "correct": not any(p.check_failures for p in passes),
        "attempted": len(passes),
        "failed": sum(not p.ok for p in passes),
        "values": {name: statistics.median(values) for name, values in samples.items()},
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Spans the per-layer metrics read, by the quantities they report.
KERNEL_SPANS = (("_kernels.shell_profile", "orbital"), ("_kernels.exp_poly_eval", "group"))
CALL_SPANS = (
    "kedf.tf_energy", "kedf.weizsacker_energy", "kedf.fourth_order_energy", "kedf.make_grid",
    "asymptotics.richardson_extrapolate", "correction.delta_t_exact",
)
BUSY_SPANS = (
    "asymptotics.model_energy_sequence", "asymptotics.figure_density_rows",
    "atomic_data.load_bundled", "atomic_data.atom_density",
)
SELF_MODULES = ("cli", "kedf", "_kernels", "asymptotics", "correction", "atomic_data", "hydrogenic")


def _absent(trace: dict) -> list[str]:
    """Named functions and counters the program no longer has; they read 0."""
    spans = [span for span, _ in KERNEL_SPANS] + [*CALL_SPANS, *BUSY_SPANS, "cli.main"]
    absent = [span for span in spans if span not in trace["wrapped"]]
    if trace["grid_nodes"] is None:
        absent.append("kedf.kernel_points_per_grid_node")
    if trace["ladder_point"] is None:
        absent.append("asymptotics.ladder_point")
    return absent


def _layer_metrics(trace: dict, traced: Pass, untraced_wall_s: float) -> dict[str, float]:
    calls, busy, self_s = trace["calls"], trace["busy_s"], trace["self_s"]
    metrics: dict[str, float] = {}
    # metric names start with a letter, so the _kernels module reports as "kernels"
    for span, unit in KERNEL_SPANS:
        work, name = trace["work"].get(span, 0), span.lstrip("_")
        metrics[f"{name}.calls"] = calls.get(span, 0)
        metrics[f"{name}.points"] = trace["points"].get(span, 0)
        metrics[f"{name}.busy_s"] = busy.get(span, 0.0)
        metrics[f"{name}.{unit}_points"] = work
        metrics[f"{name}.ns_per_{unit}_point"] = busy.get(span, 0.0) * 1e9 / work if work else 0.0
    nodes = trace["grid_nodes"]
    metrics["kedf.kernel_points_per_grid_node"] = trace["functional_kernel_points"] / nodes if nodes else 0.0
    for span in CALL_SPANS:
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.busy_s"] = busy.get(span, 0.0)
    for span in BUSY_SPANS:
        metrics[f"{span}.busy_s"] = busy.get(span, 0.0)
    ladder = trace["ladder_point"] or {}
    for quantity in ("requested", "computed"):
        metrics[f"asymptotics.ladder_point.{quantity}"] = ladder.get(quantity, 0)
    for module in SELF_MODULES:
        metrics[f"{module.lstrip('_')}.self_s"] = self_s.get(module, 0.0)
    metrics["cli.output_bytes"] = len(traced.stdout.encode()) + sum(map(len, traced.output_files.values()))
    metrics["trace.wall_s"] = trace["top_s"]
    metrics["trace.overhead_s"] = traced.record["wall_s"] - untraced_wall_s
    return metrics


def traced_run(workload: Workload, rng: random.Random, seconds: float, scratch: Path) -> dict:
    """Per-layer metrics: rounds of one untraced and one traced pass."""
    out_dir = scratch / "out"
    rounds: list[tuple[Pass, Pass]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        cli_args, ctx = workload.make_args(rng, out_dir)
        order = [False, True]
        rng.shuffle(order)
        done = {trace: run_workload_pass(workload, cli_args, ctx, out_dir, scratch, trace=trace)
                for trace in order}
        rounds.append((done[False], done[True]))
    passes = [p for pair in rounds for p in pair]
    _report_failures(passes)
    ran = [(plain, traced) for plain, traced in rounds if plain.record and traced.record]
    if not ran:
        raise RuntimeError("no traced round ran to completion")

    untraced_wall_s = statistics.median(plain.record["wall_s"] for plain, _ in ran)
    per_pass = [_layer_metrics(traced.record["trace"], traced, untraced_wall_s) for _, traced in ran]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    last = ran[-1][1]
    trace = last.record["trace"]
    self_sum = sum(trace["self_s"].values())
    consistent = abs(self_sum - trace["top_s"]) <= 1e-9 * trace["top_s"]
    if not consistent:
        print(f"FAILED: module self times sum to {self_sum} s, traced wall is {trace['top_s']} s",
              file=sys.stderr)
    stdout = last.stdout.replace(str(out_dir), "<out>")
    print(json.dumps({
        "trace_report": {
            "absent": _absent(trace),
            "module_self_s": trace["self_s"],
            "module_self_sum_s": self_sum,
            "traced_wall_s": trace["top_s"],
            "untraced_wall_s": untraced_wall_s,
            # table1 rows follow the seeded atom order, so lines are sorted first
            "stdout_sha256_sorted_lines": _sha256("\n".join(sorted(stdout.splitlines())).encode()),
            "output_sha256": {name: _sha256(data) for name, data in last.output_files.items()},
        }
    }))
    return {
        "correct": consistent and not any(p.check_failures for p in passes),
        "attempted": len(passes),
        "failed": sum(not p.ok for p in passes),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (SRC / "tfshell" / "cli.py").is_file():
        print(f"error: no tfshell sources under {SRC}", file=sys.stderr)
        return 2

    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH_PARENT))
    try:
        warm = run_pass([], scratch)  # compiles bytecode in a fresh checkout; not timed
        if not warm.ok:
            raise SetupError("; ".join(warm.failures))
        run = traced_run if args.trace else measured_run
        result = run(WORKLOADS[args.workload], random.Random(args.seed), args.seconds, scratch)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = result.pop("values")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
