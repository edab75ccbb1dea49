"""The pair expansion of an atom's density: a term-list reference for tests.

Squaring each orbital's primitive sum gives terms with powers n_i + n_j - 2
and exponents zeta_i + zeta_j; merged by (power, exponent), they make a
``RadialField`` equal to ``atom_density(record)`` up to rounding, evaluated
by ``_kernels.exp_poly_eval`` instead of ``_kernels.orbital_profile``.
"""

from __future__ import annotations

import math

from tfshell.atomic_data import STOAtomRecord
from tfshell.fields import RadialField


def pair_field(record: STOAtomRecord) -> RadialField:
    """(1/4pi) sum occ R^2 of ``record`` as a merged term list."""
    weight = 1.0 / (4.0 * math.pi)
    terms: list[tuple[float, int, float]] = []
    for orb in record.orbitals:
        if orb.occupation == 0:
            continue
        w = orb.occupation * weight
        for a in orb.primitives:
            ca = a.coefficient * a.normalization
            for b in orb.primitives:
                terms.append(
                    (w * ca * b.coefficient * b.normalization, a.n + b.n - 2, a.zeta + b.zeta)
                )
    return RadialField.merged_from(terms)
