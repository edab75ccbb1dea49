"""Timings and memory peaks of the hot numpy kernels.

Every case evaluates a kernel on what a functional samples: all nodes of a
quadrature grid, its Gauss nodes and their Kronrod extension together
(``RadialGrid.all_nodes()``, 4125 nodes for a 2000-point grid).  The
shell-density kernel runs on the closed-shell ladder's own grids: the
expmap grid out to ``suggested_r_max(n_max)`` of the neutral n_max-shell
density, at the library default of 2000 points (4125 nodes).  Its default
shell counts run past the library's 40-shell cap to 60 and 100, the kernel
cost a 100-shell ladder would pay.  The Slater-type orbital kernel runs on
the Ne and Xe densities over the ``table1`` grid (2000 points on [0, 45]),
giving (rho, rho', rho'') as ``STODensity.profile`` does.  One more case
times the 17 kernel calls of a ``table1`` pass: each bundled atom on the
4125 nodes that ``kedf.energies`` sends in one call.  The cases are
timed round-robin, one call of each case per round for ``--repeats`` rounds,
so that a drift in machine speed over the run spreads over every case
rather than landing on the cases that happened to run during it.  Each case
reports the median wall time of its timed calls and the tracemalloc peak of
one further, untimed call.

Usage:
    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --shells 25,40 --points 2000,3008 --repeats 5
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from typing import Callable

import numpy as np

from tfshell._kernels import orbital_profile, shell_profile
from tfshell.atomic_data import atom_density, load_bundled
from tfshell.hydrogenic import electron_count, suggested_r_max
from tfshell.kedf import DEFAULT_GRID_POINTS, DEFAULT_R_MAX, make_grid


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


def orbital_inputs(density) -> tuple:
    """The kernel arguments of an ``STODensity``, without the nodes."""
    return density.exponents, density.powers, density.coefs, density.weights


def atom_inputs(symbol: str, nodes: np.ndarray) -> tuple:
    """(exponents, powers, coefs, weights, nodes) of a bundled atom's density."""
    density = atom_density(load_bundled()[symbol])
    return (*orbital_inputs(density), nodes)


def table1_profiles(atoms: list, nodes: np.ndarray) -> None:
    for inputs in atoms:
        orbital_profile(*inputs, nodes)


def shell_inputs(n_points: int, n_max: int) -> tuple:
    """(Z, n_max, nodes) of the ladder point with n_max filled shells.

    Built from the shell count alone, without a ``HydrogenicDensity``, so
    shell counts beyond its ``MAX_SHELLS`` check run too.
    """
    grid = make_grid(n_points, suggested_r_max(n_max))
    return float(electron_count(n_max)), n_max, grid.all_nodes()


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

    # every node of the table1 grid, 2000 points on [0, 45]
    nodes = make_grid(DEFAULT_GRID_POINTS, DEFAULT_R_MAX).all_nodes()
    orbital_cases = [
        (
            f"orbital_profile[{symbol}, {nodes.size} nodes]",
            orbital_profile,
            atom_inputs(symbol, nodes),
        )
        for symbol in ("Ne", "Xe")
    ]
    atoms = [orbital_inputs(atom_density(data)) for data in load_bundled().values()]
    name = f"orbital_profile[{len(atoms)} atoms, {nodes.size} nodes]"
    orbital_cases.append((name, table1_profiles, (atoms, nodes)))
    shell_cases = []
    for n_max in shells:
        for n_points in points:
            inputs = shell_inputs(n_points, n_max)
            name = f"shell_profile[n_max={n_max}, {n_points}-point grid: {inputs[-1].size} nodes]"
            shell_cases.append((name, shell_profile, inputs))

    medians = time_round_robin(orbital_cases + shell_cases, args.repeats)
    report(orbital_cases, medians[: len(orbital_cases)])
    print()
    report(shell_cases, medians[len(orbital_cases) :])


if __name__ == "__main__":
    main()
