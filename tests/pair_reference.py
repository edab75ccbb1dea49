"""The pair expansion of an atom's density: a term-list reference for tests.

Squaring each orbital's primitive sum gives terms with powers n_i + n_j - 2
and exponents zeta_i + zeta_j; merged by (power, exponent), they sum to
``atom_density(record)`` up to rounding.  ``term_profile`` evaluates such a
term list one term at a time in plain numpy, independently of
``_kernels.orbital_profile``.
"""

from __future__ import annotations

import math

import numpy as np

from tfshell.atomic_data import STOAtomRecord


def pair_field(record: STOAtomRecord) -> list[tuple[float, int, float]]:
    """(1/4pi) sum occ R^2 of ``record`` as merged (c, p, b) terms c r^p e^{-b r}."""
    weight = 1.0 / (4.0 * math.pi)
    acc: dict[tuple[int, float], float] = {}
    for orb in record.orbitals:
        if orb.occupation == 0:
            continue
        w = orb.occupation * weight
        for a in orb.primitives:
            ca = a.coefficient * a.normalization
            for b in orb.primitives:
                key = (a.n + b.n - 2, a.zeta + b.zeta)
                acc[key] = acc.get(key, 0.0) + w * ca * b.coefficient * b.normalization
    return [(c, p, b) for (p, b), c in sorted(acc.items())]


def term_profile(terms, r: np.ndarray) -> tuple:
    """(rho, rho', rho'') of sum c r^p e^{-b r}, summed term by term."""
    rho, drho, d2rho = (np.zeros_like(r) for _ in range(3))
    with np.errstate(under="ignore"):
        for c, p, b in terms:
            e = c * np.exp(-b * r)
            # r^p and its first two r-derivatives
            q0 = r**p
            q1 = p * r ** (p - 1) if p >= 1 else 0.0
            q2 = p * (p - 1) * r ** (p - 2) if p >= 2 else 0.0
            rho += e * q0
            drho += e * (q1 - b * q0)
            d2rho += e * (q2 - 2.0 * b * q1 + b * b * q0)
    return rho, drho, d2rho
