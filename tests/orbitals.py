"""Slater-type densities and orbitals written out term by term, for tests."""

from __future__ import annotations

import math

import numpy as np

from tfshell.atomic_data import STODensity, STOOrbital


def orbital_density(orbitals, cls=STODensity, **extra) -> STODensity:
    """sum_k phi_k^2 with phi_k = sum_i c_i r^{p_i} e^{-zeta_i r}.

    Each orbital lists its primitives as (coefficient, power, zeta) triples;
    primitives with the same (power, zeta) share a column.
    The total charge is the closed form
    4 pi sum_k sum_ij c_i c_j Gamma(p_i + p_j + 3) / (zeta_i + zeta_j)^(p_i + p_j + 3).
    ``cls`` and ``extra`` build a subclass of ``STODensity`` the same way.
    """
    columns: dict[tuple, int] = {}
    for orbital in orbitals:
        for _, p, zeta in orbital:
            columns.setdefault((p, zeta), len(columns))
    coefs = np.zeros((len(orbitals), len(columns)))
    charge = 0.0
    for k, orbital in enumerate(orbitals):
        for c, p, zeta in orbital:
            coefs[k, columns[(p, zeta)]] += c
        for c_a, p_a, z_a in orbital:
            for c_b, p_b, z_b in orbital:
                n = p_a + p_b + 3.0
                charge += c_a * c_b * math.exp(math.lgamma(n) - n * math.log(z_a + z_b))
    return cls(
        np.array([zeta for _, zeta in columns]),
        np.array([p for p, _ in columns]),
        coefs,
        4.0 * math.pi * charge,
        **extra,
    )


def radial_value(orbital: STOOrbital, r):
    """R(r) summed directly over primitives; scalar or array."""
    arr = np.asarray(r, dtype=float)
    out = np.zeros_like(arr, dtype=float)
    for p in orbital.primitives:
        out = out + p.coefficient * p.normalization * arr ** (p.n - 1) * np.exp(-p.zeta * arr)
    return float(out) if arr.ndim == 0 else out
