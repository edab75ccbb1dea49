"""Large-Z behavior: series coefficients, extrapolation, and the scaled density.

Three strands live here:

* the closed-form expansion of the shell-model kinetic energy in powers
  of Z^{1/3} (``model_expansion``), with every coefficient an exact surd;
* Richardson extrapolation of finite-shell energy sequences to asymptotic
  coefficients (``richardson_extrapolate``, ``model_energy_sequence``);
* the semiclassical limit of the scaled density (``tf_limit_density``)
  and the shell oscillations of the finite-Z density around it.

Scaling conventions: r_hat = Z^{1/3} r and rho_hat = rho / Z^2, in which
the limit density is Z-independent, vanishes at the turning point
r_hat = 18^{1/3}, and integrates (times 4 pi r_hat^2) to exactly 1.

The ladder points of ``model_energy_sequence`` are independent, so its
uncached points run in parallel: the calling process forks one worker per
extra CPU it may use (``os.sched_getaffinity``), once per call, and every
process computes a share of similar estimated cost.  Workers return their
energies as raw float64 through pipes, so the results are those of the
serial path bit for bit.  The ladder runs serially in this process when
fewer than two points are uncached, on one CPU, off Linux, or while other
Python threads are alive.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import BinaryIO, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .hydrogenic import HydrogenicDensity, ShellConfiguration, model_density
from .kedf import energies, make_grid

__all__ = [
    "TURNING_POINT",
    "TARGETS",
    "ExtrapolationError",
    "ZExpansion",
    "ScaledDensity",
    "SequencePoint",
    "model_expansion",
    "richardson_extrapolate",
    "tf_limit_density",
    "scaled_model_density",
    "shell_oscillation_maxima",
    "oscillation_amplitude",
    "model_energy_sequence",
    "figure_density_rows",
    "figure_error_rows",
]

TURNING_POINT = 18.0 ** (1.0 / 3.0)

_MAX_ELIMINATION_DEPTH = 5


class FitTarget(NamedTuple):
    """Regression target of one extrapolated ladder quantity."""

    quantity: str
    value: float
    tolerance: float


# Regression targets of the Richardson fits on the closed-shell ladder, keyed
# by (series, power), in report order.  Every value is the paper's printed
# number.  The T_TF Z^2 entry (-0.625856) is not the Z^2 coefficient of the
# ladder's local-density energy: an independent core-scaling oracle puts that
# at -0.65282, and the acceptance tests check the fit against the oracle.
TARGETS: dict[tuple[str, str], FitTarget] = {
    ("T_TF", "Z^{7/3}"): FitTarget("coefficient", 1.144714, 1e-5),
    ("T_TF", "Z^2"): FitTarget("coefficient", -0.625856, 1e-3),
    ("T_TF", "Z^{5/3}"): FitTarget("coefficient", 0.146878, 1e-2),
    ("T2", "Z^{7/3}"): FitTarget("coefficient", 0.0, 1e-4),
    ("T2", "Z^{-1/3}"): FitTarget("fraction of exact energy", 0.10942, 1e-3),
    ("T4", "Z^{-1/3}"): FitTarget("fraction of exact energy", 0.015052, 1e-3),
}


class ExtrapolationError(RuntimeError):
    """The extrapolation tableau diverged instead of settling."""


@dataclass(frozen=True)
class ZExpansion:
    """A truncated series sum(coef * Z^power) with explicit zero entries.

    ``terms`` pairs each rational power with its real coefficient, powers
    strictly decreasing; ``order`` counts the non-zero terms retained.
    """

    terms: tuple[tuple[Fraction, float], ...]
    order: int

    def __post_init__(self) -> None:
        powers = [p for p, _ in self.terms]
        if any(b >= a for a, b in zip(powers, powers[1:])):
            raise ValueError("expansion powers must be strictly decreasing")

    @property
    def powers(self) -> tuple[Fraction, ...]:
        return tuple(p for p, _ in self.terms)

    def coefficient(self, power: Fraction | float) -> float:
        target = Fraction(power).limit_denominator(1000)
        for p, c in self.terms:
            if p == target:
                return c
        raise KeyError(f"no term with power {power!r}")

    def evaluate(self, z: float) -> float:
        return float(sum(c * float(z) ** float(p) for p, c in self.terms))


# Exact coefficients of the shell-model energy in descending powers of Z^{1/3};
# every power missing from this list (4/3, 1, 2/3, 0) is identically zero.
_MODEL_COEFFICIENTS: tuple[tuple[Fraction, float], ...] = (
    (Fraction(7, 3), (3.0 / 2.0) ** (1.0 / 3.0)),
    (Fraction(2, 1), -0.5),
    (Fraction(5, 3), 1.0 / (6.0 * 12.0 ** (1.0 / 3.0))),
    (Fraction(1, 3), -1.0 / (3888.0 * 18.0 ** (1.0 / 3.0))),
    (Fraction(-1, 3), 1.0 / (69984.0 * 12.0 ** (1.0 / 3.0))),
)


def model_expansion(order: int = 5) -> ZExpansion:
    """Expansion of the closed-shell model energy to ``order`` non-zero terms.

    Coefficients are exact surds.  Powers between retained non-zero terms
    whose coefficients vanish identically appear as explicit zero entries,
    so the power list descends in steps of 1/3.
    """
    if not isinstance(order, int) or not 1 <= order <= 5:
        raise ValueError(f"order must be an integer in [1, 5], got {order!r}")
    kept = _MODEL_COEFFICIENTS[:order]
    last_power = kept[-1][0]
    nonzero = dict(kept)
    terms = []
    p = _MODEL_COEFFICIENTS[0][0]
    while p >= last_power:
        terms.append((p, nonzero.get(p, 0.0)))
        p -= Fraction(1, 3)
    return ZExpansion(terms=tuple(terms), order=order)


def _extrapolate_constant(u: list[float], s: list[float]) -> float:
    """Limit of s(u) as u -> 0 by Neville extrapolation in u.

    Column k of the tableau is the degree-k polynomial through k+1
    consecutive points, evaluated at u = 0; the estimate at each depth is
    taken from the smallest-u window.  Exact for polynomial s(u) once the
    depth reaches the degree.
    """
    depth = min(_MAX_ELIMINATION_DEPTH, len(s) - 1)
    column = s[:]
    estimates = [column[-1]]
    for k in range(1, depth + 1):
        column = [
            (u[i] * column[i + 1] - u[i + k] * column[i]) / (u[i] - u[i + k])
            for i in range(len(column) - 1)
        ]
        value = column[-1]
        if not math.isfinite(value):
            raise ExtrapolationError("extrapolation tableau produced a non-finite value")
        estimates.append(value)
    # Settling tableaus have shrinking corrections; divergence shows up as
    # corrections that keep growing toward the deepest levels.  Roundoff
    # jitter near the floor is excluded by the relative-size guard.
    deltas = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    nonzero = [d for d in deltas if d > 0]
    significant = nonzero and deltas[-1] > 1e-9 * abs(estimates[-1])
    growing_tail = len(deltas) >= 3 and deltas[-1] > deltas[-2] > deltas[-3]
    if significant and (
        (growing_tail and deltas[-1] > 10.0 * min(nonzero))
        or deltas[-1] > 1e3 * min(nonzero)
    ):
        raise ExtrapolationError(
            "extrapolation tableau diverges: correction sizes grew from "
            f"{min(nonzero):.3e} to {deltas[-1]:.3e}"
        )
    return estimates[-1]


def richardson_extrapolate(
    sequence: Sequence[tuple[float, float]], powers: Sequence[Fraction | float]
) -> list[float]:
    """Fit value(Z) ~ sum(a_i Z^{p_i}) from a finite increasing-Z sequence.

    ``sequence`` holds (Z, value) pairs; ``powers`` the powers p_i in
    strictly decreasing order.  Coefficients are extracted one at a time:
    divide the running residual by Z^{p_i}, accelerate the resulting
    sequence to its u -> 0 limit in u = Z^{-1/3}, subtract, repeat.
    Requires at least len(powers) + 2 points; raises ExtrapolationError
    when an acceleration tableau diverges instead of settling.
    """
    pts = [(float(z), float(v)) for z, v in sequence]
    if len(pts) < len(powers) + 2:
        raise ValueError(
            f"need at least {len(powers) + 2} points for {len(powers)} powers, got {len(pts)}"
        )
    zs = [z for z, _ in pts]
    if any(b <= a for a, b in zip(zs, zs[1:])) or zs[0] <= 0:
        raise ValueError("sequence must have positive, strictly increasing Z values")
    plist = [float(p) for p in powers]
    if any(b >= a for a, b in zip(plist, plist[1:])):
        raise ValueError("powers must be strictly decreasing")

    u = [z ** (-1.0 / 3.0) for z in zs]
    residual = [v for _, v in pts]
    coefficients = []
    for p in plist:
        scaled = [r / z**p for r, z in zip(residual, zs)]
        a = _extrapolate_constant(u[:], scaled)
        coefficients.append(a)
        residual = [r - a * z**p for r, z in zip(residual, zs)]
    return coefficients


def tf_limit_density(r_hat):
    """Scaled semiclassical density: (2*sqrt(2)/3 pi^2)(1/r_hat - 18^{-1/3})^{3/2}.

    Valid for r_hat > 0; identically zero at and beyond the turning point
    18^{1/3}.  The r_hat -> 0 divergence is integrable under the 4 pi
    r_hat^2 weight (the total scaled charge is exactly 1), but the point
    r_hat = 0 itself is rejected.
    """
    arr = np.asarray(r_hat, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("tf_limit_density requires r_hat > 0")
    const = 2.0 * math.sqrt(2.0) / (3.0 * math.pi**2)
    inside = arr < TURNING_POINT
    out = np.zeros_like(arr)
    out[inside] = const * (1.0 / arr[inside] - 18.0 ** (-1.0 / 3.0)) ** 1.5
    if np.isscalar(r_hat) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ScaledDensity:
    """The shell-model density in turning-point-scaled coordinates."""

    configuration: ShellConfiguration

    @property
    def turning_point(self) -> float:
        return TURNING_POINT

    def evaluate(self, r_hat):
        """rho_hat(r_hat) = Z^{-2} rho(Z^{-1/3} r_hat)."""
        z = self.configuration.nuclear_charge
        rho: HydrogenicDensity = model_density(self.configuration)
        return rho.value(np.asarray(r_hat, dtype=float) * z ** (-1.0 / 3.0)) / z**2

    def deviation(self, r_hat):
        """Finite-Z density minus its semiclassical limit, both scaled."""
        return self.evaluate(r_hat) - tf_limit_density(r_hat)


def scaled_model_density(
    cfg: ShellConfiguration, r_hat: np.ndarray | None = None, n_points: int = 2000
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the scaled model density; returns (r_hat, rho_hat) arrays.

    With no grid given, samples n_points uniformly on (0, 18^{1/3}).
    """
    if r_hat is None:
        r_hat = np.linspace(0.0, TURNING_POINT, n_points + 1)[1:]
    r_hat = np.asarray(r_hat, dtype=float)
    return r_hat, np.asarray(ScaledDensity(cfg).evaluate(r_hat), dtype=float)


def shell_oscillation_maxima(
    cfg: ShellConfiguration, n_points: int = 4000, boundary_margin: float = 0.05
) -> list[tuple[float, float]]:
    """Local maxima of the scaled-density deviation, innermost first.

    Counts sign changes of the first finite difference on a uniform grid
    over (0, 18^{1/3}).  The window excludes the outer fraction
    ``boundary_margin`` of the radius: just inside the turning point the
    exponential quantum tail always pokes above the semiclassically sharp
    cutoff, producing one spurious bump unrelated to shell structure.
    """
    if n_points < 100:
        raise ValueError("n_points too small to resolve oscillations")
    sd = ScaledDensity(cfg)
    r = np.linspace(0.0, TURNING_POINT, n_points + 1)[1:-1]
    dev = np.asarray(sd.deviation(r), dtype=float)
    sign = np.sign(np.diff(dev))
    peak = np.where((sign[:-1] > 0) & (sign[1:] < 0))[0] + 1
    cut = (1.0 - boundary_margin) * TURNING_POINT
    return [(float(r[i]), float(dev[i])) for i in peak if r[i] < cut]


def oscillation_amplitude(cfg: ShellConfiguration, n_points: int = 4000) -> float:
    """Deviation height of the outermost shell oscillation.

    The outermost hump is the meaningful amplitude measure: toward the
    nucleus the scaled deviation grows with Z (the strongly bound region
    never becomes semiclassical), while the outer oscillations shrink.
    """
    maxima = shell_oscillation_maxima(cfg, n_points=n_points)
    if not maxima:
        raise ValueError("no oscillation maxima found")
    return maxima[-1][1]


@dataclass(frozen=True)
class SequencePoint:
    """Energies of one closed-shell system along the magic-number sequence."""

    n_max: int
    z: float
    t_exact: float
    t_tf: float
    t2: float
    t4: float


def _ladder_energies(n_max: int, grid_points: int, verify: bool) -> tuple[float, float, float]:
    """(T_TF, T_W, T_4) of the closed-shell density with ``n_max`` filled shells."""
    rho = model_density(ShellConfiguration.closed_shell(n_max))
    grid = make_grid(n_points=grid_points, r_span=(0.0, rho.suggested_r_max()))
    return energies(rho, grid, verify=verify)


# Energies computed ahead of the in-order pass of ``model_energy_sequence``,
# by this process or a worker, keyed like the ladder cache; ``_ladder_point``
# pops each one when it consumes it.
_ahead: dict[tuple, tuple[float, float, float]] = {}
# Keys whose point ``_ladder_point`` has computed, so the cache holds them
# unless it was cleared or evicted since (such a point is then computed in
# order).
_computed: set[tuple] = set()


@lru_cache(maxsize=256)
def _ladder_point(n_max: int, grid_points: int, verify: bool) -> SequencePoint:
    key = (n_max, grid_points, verify)
    _computed.add(key)
    ahead = _ahead.pop(key, None)
    t0, t_w, t4 = ahead if ahead is not None else _ladder_energies(*key)
    cfg = ShellConfiguration.closed_shell(n_max)
    return SequencePoint(
        n_max=cfg.n_max,
        z=cfg.nuclear_charge,
        t_exact=float(cfg.n_max) * cfg.nuclear_charge**2,
        t_tf=t0,
        t2=t_w / 9.0,
        t4=t4,
    )


# A worker's record of one point: its index in the worker's share, then
# T_TF, T_W and T_4, all as raw float64.
_RECORD_FIELDS = 4


def _ladder_cost(key: tuple) -> int:
    """Estimated cost of a ladder point, n_max^3 + 8 n_max^2."""
    n_max = key[0]
    return n_max**3 + 8 * n_max**2


def _split_by_cost(keys: Sequence[tuple], parts: int) -> list[list[tuple]]:
    """Longest-first greedy split of ``keys`` into ``parts`` shares of similar cost."""
    shares: list[list[tuple]] = [[] for _ in range(parts)]
    loads = [0] * parts
    for key in sorted(keys, key=_ladder_cost, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(key)
        loads[least] += _ladder_cost(key)
    return shares


def _worker_count(n_points: int) -> int:
    """Forked workers for ``n_points`` uncached points: one per extra usable CPU.

    None without ``os.sched_getaffinity`` (not Linux), with fewer than two
    points or one CPU, or while other Python threads run, which a fork
    could catch holding a lock.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or n_points < 2 or threading.active_count() > 1:
        return 0
    return min(len(affinity(0)), n_points) - 1


def _run_worker(share: list[tuple], write_fd: int) -> NoReturn:
    """Body of a forked worker: compute ``share``, write its records, exit.

    Writes the records of the points that succeeded; a failed point is left
    to the caller's in-order pass.  Always leaves through ``os._exit``, so it
    never flushes the inherited stdio buffers, runs atexit handlers or
    returns into the caller's frames.
    """
    code = 1
    try:
        rows = []
        for index, key in enumerate(share):
            try:
                rows.append((index, *_ladder_energies(*key)))
            except Exception:
                continue  # not written; the in-order pass raises it
        data = memoryview(np.array(rows, dtype=np.float64).tobytes())
        while data:
            data = data[os.write(write_fd, data) :]
        code = 0
    finally:
        os._exit(code)


def _compute_ahead(keys: list[tuple]) -> None:
    """Compute the uncached ladder points ``keys`` into ``_ahead`` on every usable CPU.

    Forks one worker per extra CPU and splits the points by cost; this
    process computes its own share meanwhile.  A point that failed, or
    that a worker did not deliver whole with exit code 0, is left out, so
    the in-order pass computes it and raises what the serial path raises.
    Every worker is reaped before this returns or raises.
    """
    n_workers = _worker_count(len(keys))
    if n_workers == 0:
        return
    own, *shares = _split_by_cost(keys, 1 + n_workers)
    workers: dict[int, tuple[BinaryIO, list[tuple]]] = {}
    try:
        for share in shares:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                continue
            if pid == 0:
                os.close(read_fd)
                _run_worker(share, write_fd)
            os.close(write_fd)
            workers[pid] = (open(read_fd, "rb"), share)
        for key in own:
            try:
                _ahead[key] = _ladder_energies(*key)
            except Exception:
                continue  # not stored; the in-order pass raises it
        for pid, (reader, share) in list(workers.items()):
            with reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if os.waitstatus_to_exitcode(status) == 0 and len(data) % (8 * _RECORD_FIELDS) == 0:
                records = np.frombuffer(data, dtype=np.float64).reshape(-1, _RECORD_FIELDS)
                for index, *values in records.tolist():
                    _ahead[share[int(index)]] = tuple(values)
    finally:
        if workers:
            import signal  # only this error path needs it

            for pid, (reader, _) in workers.items():
                reader.close()
                # a worker reaped just before the error is already gone
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def model_energy_sequence(
    shell_counts: Iterable[int], grid_points: int = 3008, verify: bool = True
) -> list[SequencePoint]:
    """Exact, Thomas-Fermi, and gradient energies for each shell count.

    Points are cached per (shell count, grid size), so overlapping ladders
    cost nothing extra.  The uncached points are computed across the CPUs
    this process may run on: it forks one worker per extra CPU, once per
    call, splits the points between itself and the workers by estimated
    cost (n_max^3 + 8 n_max^2, longest first), and receives each worker's
    energies through a pipe as raw float64, so every value is the one the
    serial path computes.  It runs serially when fewer than two points are
    uncached, on one CPU, where ``os.sched_getaffinity`` is missing (not
    Linux), or while other Python threads run.  A point that failed or was
    not delivered is computed again in input order, so errors are those of
    the serial path, raised for the first failing point.
    """
    counts = list(shell_counts)
    keys = []
    for n_max in counts:
        try:
            keys.append((int(n_max), grid_points, verify))
        except (TypeError, ValueError, OverflowError):
            break  # the in-order pass raises it at this entry
    uncached = [key for key in dict.fromkeys(keys) if key not in _computed]
    try:
        _compute_ahead(uncached)
        return [_ladder_point(int(n_max), grid_points, verify) for n_max in counts]
    finally:
        for key in uncached:
            _ahead.pop(key, None)


def figure_density_rows(
    shell_counts: Sequence[int] = (1, 2, 3, 5), n_points: int = 500
) -> list[dict]:
    """Rows (r_hat, rho_hat_model, rho_hat_tf, n_max) for density plots."""
    rows = []
    for n_max in shell_counts:
        cfg = ShellConfiguration.closed_shell(int(n_max))
        r_hat, rho_hat = scaled_model_density(cfg, n_points=n_points)
        tf_vals = tf_limit_density(r_hat)
        for r, m, t in zip(r_hat, rho_hat, tf_vals):
            rows.append(
                {
                    "r_hat": float(r),
                    "rho_hat_model": float(m),
                    "rho_hat_tf": float(t),
                    "n_max": int(n_max),
                }
            )
    return rows


def figure_error_rows(
    shell_counts: Iterable[int], grid_points: int = 3008, verify: bool = True
) -> list[dict]:
    """Rows (n_max, Z, rel_err_T0, rel_err_T2, rel_err_T4) for error plots.

    Errors follow the underestimate-positive convention
    (reference - approximation)/reference, where the approximations are
    the cumulative sums T0, T0+T2, T0+T2+T4.  That is the opposite sign of
    ``kedf.EnergyBreakdown`` and of ``tfshell table1``, on purpose: the
    local-density energy of the ladder always underestimates, and its error
    curve is plotted positive.  The T0 column is always positive; the
    corrected sums overshoot small systems, so the T2 column goes positive
    from three shells and the T4 column only from eight.
    """
    rows = []
    for pt in model_energy_sequence(shell_counts, grid_points=grid_points, verify=verify):
        rows.append(
            {
                "n_max": pt.n_max,
                "Z": pt.z,
                "rel_err_T0": (pt.t_exact - pt.t_tf) / pt.t_exact,
                "rel_err_T2": (pt.t_exact - (pt.t_tf + pt.t2)) / pt.t_exact,
                "rel_err_T4": (pt.t_exact - (pt.t_tf + pt.t2 + pt.t4)) / pt.t_exact,
            }
        )
    return rows
