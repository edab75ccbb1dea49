"""Timings of the hot numpy kernels.

Times each kernel on synthetic inputs and reports the mean wall time per
call.

Usage:
    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --sizes 1000,10000 --repeats 5
"""

from __future__ import annotations

import argparse
import time
from typing import Callable

import numpy as np

from tfshell._kernels import exp_poly_eval, shell_profile


def time_call(func: Callable, args: tuple, repeats: int) -> float:
    """Mean wall time in milliseconds over `repeats` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.mean(times))


def exp_poly_inputs(n_points: int, rng: np.random.Generator) -> tuple:
    # a realistic composite field: 12 exponential groups, degree-8 polynomials
    exponents = rng.uniform(0.5, 20.0, size=12)
    coefs = rng.standard_normal((12, 9))
    r = np.linspace(1e-4, 40.0, n_points)
    return exponents, coefs, r


def shell_inputs(n_points: int, n_max: int) -> tuple:
    z = n_max * (n_max + 1) * (2 * n_max + 1) / 3.0
    r = np.linspace(1e-5, 3.0, n_points)
    return z, n_max, r


def report(name: str, func: Callable, args: tuple, repeats: int) -> None:
    print(f"{name:<34} {time_call(func, args, repeats):9.3f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="2000,20000",
        help="comma-separated grid sizes (default: 2000,20000)",
    )
    parser.add_argument(
        "--shells",
        default="5,12",
        help="comma-separated shell counts for the orbital-summation kernel",
    )
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per case")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    shells = [int(s) for s in args.shells.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)

    for n_points in sizes:
        report(
            f"exp_poly_eval[{n_points} pts]",
            exp_poly_eval,
            exp_poly_inputs(n_points, rng),
            args.repeats,
        )
    print()
    for n_max in shells:
        for n_points in sizes:
            report(
                f"shell_profile[n_max={n_max}, {n_points} pts]",
                shell_profile,
                shell_inputs(n_points, n_max),
                args.repeats,
            )


if __name__ == "__main__":
    main()
