"""Timings and memory peaks of the hot numpy kernels.

Every case evaluates a kernel on what a functional samples: the nodes of a
quadrature grid, its Gauss nodes and their Kronrod extension in one array
(``RadialGrid.nodes``, 2079 nodes for a 1008-point grid).  Every
span is ``kedf.span_for`` of the density, the one rule the commands use.
The shell-density kernel runs, one shell count per case, on the expmap
grid over the span of the neutral n_max-shell density, at the library
default of 1008 points (2079 nodes).  Its default shell counts run past the
library's 40-shell cap to 60 and 100, the kernel cost a 100-shell pass
would pay.  The ladder case times what ``tfshell asymptotics`` asks of the
kernel: the one ``shell_prefixes`` pass to 25 shells on the shared ladder
grid (``kedf.grid_for`` of the ``MAX_SHELLS``-shell density) from which
the command reads all six points of ``LADDER_SHELLS`` (n_max 20..25).
The Slater-type orbital kernel runs on the Ne and Xe densities over their
1008-point ``kedf.grid_for`` grids, the cap ``kedf.energies`` falls back to,
giving (rho, rho', rho'') as ``STODensity.profile`` does.  One more case
times the kernel calls of a ``table1`` pass: the node arrays
``kedf.energies`` sends for each bundled atom, recorded by running it.
Each atom is accepted on its first, 512-point grid, so these are 17
calls of 1056 nodes.  The cases are timed round-robin, one call of each
case per round for ``--repeats`` rounds, so that a drift in machine speed
over the run spreads over every case rather than landing on the cases
that happened to run during it.  Each case reports the median wall time
of its timed calls and the tracemalloc peak of one further, untimed call.

Usage:
    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --shells 25,40 --points 1008,2000 --repeats 5
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from types import SimpleNamespace
from typing import Callable

import numpy as np

from tfshell._kernels import orbital_profile, shell_prefixes, shell_profile
from tfshell.asymptotics import LADDER_SHELLS
from tfshell.atomic_data import atom_density, load_bundled
from tfshell.hydrogenic import MAX_SHELLS, electron_count
from tfshell.kedf import DEFAULT_GRID_POINTS, energies, grid_for, make_grid, span_for


def time_round_robin(cases: list[tuple[str, Callable, tuple]], repeats: int) -> list[float]:
    """Median wall time in milliseconds of each case over `repeats` rounds of one call each."""
    times: list[list[float]] = [[] for _ in cases]
    for _ in range(repeats):
        for case_times, (_, func, args) in zip(times, cases):
            start = time.perf_counter()
            func(*args)
            case_times.append(time.perf_counter() - start)
    return [1e3 * float(np.median(t)) for t in times]


def peak_call(func: Callable, args: tuple) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def orbital_inputs(density, nodes: np.ndarray) -> tuple:
    """(exponents, powers, coefs, nodes) of an ``STODensity`` at ``nodes``."""
    return density.exponents, density.powers, density.coefs, nodes


class RecordedDensity:
    """Passes a density through and keeps the node array of every profile call."""

    def __init__(self, density) -> None:
        self.density = density
        self.slowest_primitive = density.slowest_primitive
        self.calls: list[np.ndarray] = []

    def profile(self, r):
        self.calls.append(r)
        return self.density.profile(r)

    def total_charge(self) -> float:
        return self.density.total_charge()


def table1_inputs(density) -> list[tuple]:
    """``orbital_inputs`` of every profile call ``kedf.energies`` makes on ``density``."""
    recorded = RecordedDensity(density)
    energies(recorded)
    return [orbital_inputs(density, nodes) for nodes in recorded.calls]


def call_each(kernel: Callable, calls: list) -> None:
    """One call of ``kernel`` per argument tuple of ``calls``, in order."""
    for inputs in calls:
        kernel(*inputs)


def shell_inputs(n_points: int, n_max: int) -> tuple:
    """(Z, n_max, nodes) of the ladder point with n_max filled shells.

    Built from the shell count alone, without a ``HydrogenicDensity``, so
    shell counts beyond its ``MAX_SHELLS`` check run too: the stand-in
    carries only the outermost shell's primitive r^{n_max - 1}
    e^{-Z r / n_max}, all that ``kedf.span_for`` reads.
    """
    z = float(electron_count(n_max))
    outermost = SimpleNamespace(slowest_primitive=(z / n_max, n_max - 1))
    grid = make_grid(n_points, span_for(outermost))
    return z, n_max, grid.nodes


def ladder_pass(z: float, n_max: int, nodes: np.ndarray) -> None:
    for _ in shell_prefixes(z, n_max, nodes):
        pass


def ladder_cases() -> list[tuple[str, Callable, tuple]]:
    """The one pass on the shared grid that gives every ``LADDER_SHELLS`` point."""
    z, _, nodes = shell_inputs(DEFAULT_GRID_POINTS, MAX_SHELLS)
    top = LADDER_SHELLS[-1]
    name = f"shell_prefixes[n_max<={top}, shared grid: {nodes.size} nodes]"
    return [(name, ladder_pass, (z, top, nodes))]


def report(cases: list[tuple[str, Callable, tuple]], medians: list[float]) -> None:
    for (name, func, args), ms in zip(cases, medians):
        print(f"{name:<52} {ms:9.3f} ms  peak {peak_call(func, args):6.3f} MiB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points",
        default=str(DEFAULT_GRID_POINTS),
        help=f"comma-separated ladder grid sizes for shell_profile (default: {DEFAULT_GRID_POINTS})",
    )
    parser.add_argument(
        "--shells",
        default="5,12,25,40,60,100",
        help="comma-separated shell counts for shell_profile (default: 5,12,25,40,60,100)",
    )
    parser.add_argument("--repeats", type=int, default=7, help="rounds of one timed call per case")
    args = parser.parse_args()

    points = [int(s) for s in args.points.split(",") if s.strip()]
    shells = [int(s) for s in args.shells.split(",") if s.strip()]

    densities = {symbol: atom_density(data) for symbol, data in load_bundled().items()}
    orbital_cases = []
    for symbol in ("Ne", "Xe"):
        inputs = orbital_inputs(densities[symbol], grid_for(densities[symbol]).nodes)
        name = f"orbital_profile[{symbol}, {inputs[-1].size} nodes]"
        orbital_cases.append((name, orbital_profile, inputs))
    table1 = [inputs for density in densities.values() for inputs in table1_inputs(density)]
    sizes = "/".join(str(n) for n in sorted({inputs[-1].size for inputs in table1}))
    name = f"orbital_profile[{len(table1)} table1 calls, {sizes} nodes]"
    orbital_cases.append((name, call_each, (orbital_profile, table1)))
    shell_cases = []
    for n_max in shells:
        for n_points in points:
            inputs = shell_inputs(n_points, n_max)
            name = f"shell_profile[n_max={n_max}, {n_points}-point grid: {inputs[-1].size} nodes]"
            shell_cases.append((name, shell_profile, inputs))

    ladder = ladder_cases()

    medians = time_round_robin(orbital_cases + shell_cases + ladder, args.repeats)
    report(orbital_cases, medians[: len(orbital_cases)])
    print()
    report(shell_cases, medians[len(orbital_cases) : len(orbital_cases) + len(shell_cases)])
    print()
    report(ladder, medians[len(orbital_cases) + len(shell_cases) :])


if __name__ == "__main__":
    main()
