"""Spherically symmetric densities as exponential-polynomial term sums.

A ``RadialField`` stores rho(r) = sum_i c_i r^{p_i} exp(-beta_i r) as an
explicit term list, which makes first and second radial derivatives exact
term-by-term operations; no finite differencing ever enters the functionals
built on top.  It is the type for densities given as term lists, with the
term-list operations (merging, dilation, addition, Gamma moments).
Densities known as sums of squared orbitals are evaluated without the
expansion: Slater-type atoms by ``atomic_data.STODensity``, orbital by
orbital, whose squares would expand into one term per pair of primitives,
and filled-shell Coulomb densities by ``hydrogenic``, whose expansion also
cancels catastrophically for many shells.

Evaluation groups terms by common exponent into dense polynomial rows and
runs through the ``_kernels.exp_poly_eval`` kernel; ``profile`` stacks the
rows of rho, rho' and rho'' into one kernel call, so each exponential
e^{-beta r} is computed once for all three.  The kernel takes the nodes in
small blocks and sums the groups of each row for every power of r in one
matrix product, so its cost is the exponentials plus BLAS work, not a numpy
call per group and degree; ``profile(r)[0]`` equals ``value(r)`` bit for
bit, and a node's value does not depend on the other nodes of the call.
The total charge has a closed form as a sum of Gamma-function moments.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _kernels

__all__ = ["RadialField"]

Term = tuple[float, int, float]


def _as_array(r) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr).astype(float, copy=False), scalar


class RadialField:
    """Immutable non-negative radial density with exact derivatives.

    Parameters
    ----------
    terms:
        Iterable of ``(coefficient, power, exponent)`` triples representing
        ``coefficient * r**power * exp(-exponent * r)``.  Powers must be
        non-negative integers, exponents strictly positive.  An empty term
        list is the zero field.
    """

    def __init__(self, terms: Iterable[Sequence]) -> None:
        clean: list[Term] = []
        for t in terms:
            c, p, b = t
            c = float(c)
            b = float(b)
            if not float(p).is_integer() or p < 0:
                raise ValueError(f"term power must be a non-negative integer, got {p!r}")
            p = int(p)
            if not b > 0.0:
                raise ValueError(f"term exponent must be positive, got {b!r}")
            if not math.isfinite(c):
                raise ValueError(f"term coefficient must be finite, got {c!r}")
            clean.append((c, p, b))
        self._terms: tuple[Term, ...] = tuple(clean)

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Terms regrouped as (exponents[G], dense poly coefs[G, D+1])."""
        by_exp: dict[float, dict[int, float]] = {}
        for c, p, b in self._terms:
            by_exp.setdefault(b, {}).setdefault(p, 0.0)
            by_exp[b][p] += c
        if not by_exp:
            return np.zeros(0), np.zeros((0, 1))
        exps = np.array(sorted(by_exp), dtype=float)
        max_deg = max(max(d) for d in by_exp.values())
        coefs = np.zeros((exps.size, max_deg + 1))
        for g, b in enumerate(exps):
            for p, c in by_exp[float(b)].items():
                coefs[g, p] = c
        return exps, coefs

    @cached_property
    def _deriv_coefs(self) -> np.ndarray:
        """Polynomial rows of d/dr applied to each group: P' - beta P."""
        exps, coefs = self._groups
        n_deg = coefs.shape[1]
        out = -exps[:, None] * coefs
        out[:, :-1] += np.arange(1, n_deg) * coefs[:, 1:]
        return out

    @cached_property
    def _deriv2_coefs(self) -> np.ndarray:
        """Rows of d2/dr2: P'' - 2 beta P' + beta^2 P.

        Each element takes the operations of the scalar formula in order,
        (b * b) c_d - ((2 b)(d + 1)) c_{d+1} + ((d + 2)(d + 1)) c_{d+2},
        so the rows do not depend on how they are vectorised.
        """
        exps, coefs = self._groups
        b = exps[:, None]
        n_deg = coefs.shape[1]
        out = (b * b) * coefs
        out[:, :-1] -= ((2.0 * b) * np.arange(1, n_deg)) * coefs[:, 1:]
        out[:, :-2] += (np.arange(2, n_deg) * np.arange(1, n_deg - 1)) * coefs[:, 2:]
        return out

    @cached_property
    def _profile_coefs(self) -> np.ndarray:
        """The rows of rho, rho' and rho'' stacked, shape (3, G, D+1)."""
        return np.stack([self._groups[1], self._deriv_coefs, self._deriv2_coefs])

    def _eval(self, coefs: np.ndarray, r):
        """Kernel rows of ``coefs`` at r: arrays, or floats for a scalar r."""
        arr, scalar = _as_array(r)
        if np.any(arr < 0):
            raise ValueError("radius must be non-negative")
        out = _kernels.exp_poly_eval(self._groups[0], coefs, arr)
        return out[..., 0].tolist() if scalar else out

    def value(self, r):
        """rho(r), scalar or array."""
        return self._eval(self._groups[1], r)

    def profile(self, r):
        """(rho, rho', rho'') evaluated together, in one kernel call."""
        return tuple(self._eval(self._profile_coefs, r))

    # -- closed-form moments ----------------------------------------------

    def total_charge(self) -> float:
        """Integral of 4 pi r^2 rho over [0, inf): sum of Gamma moments."""
        total = 0.0
        for c, p, b in self._terms:
            total += c * math.exp(math.lgamma(p + 3.0) - (p + 3.0) * math.log(b))
        return 4.0 * math.pi * total

    # -- structural operations --------------------------------------------

    @classmethod
    def merged_from(cls, terms: Iterable[Sequence]) -> "RadialField":
        """The canonical field of ``terms``, merged before it is validated.

        Equal to ``RadialField(terms).merged()`` for numeric terms, but
        each merged term is validated once instead of each raw term too.
        """
        acc: dict[tuple[int, float], float] = {}
        for c, p, b in terms:
            acc[(p, b)] = acc.get((p, b), 0.0) + c
        merged = sorted((b, p, c) for (p, b), c in acc.items())
        return cls((c, p, b) for b, p, c in merged)

    def merged(self) -> "RadialField":
        """Canonical form: one term per (power, exponent), sorted."""
        return RadialField.merged_from(self._terms)

    def scaled(self, lam: float) -> "RadialField":
        """The norm-preserving dilation lam^3 * rho(lam r)."""
        if not lam > 0:
            raise ValueError("scale factor must be positive")
        return RadialField((c * lam ** (3 + p), p, b * lam) for c, p, b in self._terms)

    def __add__(self, other: "RadialField") -> "RadialField":
        if not isinstance(other, RadialField):
            return NotImplemented
        return RadialField(self.terms + other.terms)

    def __repr__(self) -> str:
        return f"RadialField({len(self._terms)} terms)"
