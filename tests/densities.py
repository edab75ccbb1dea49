"""Density lookups shared by the tests."""

from __future__ import annotations


def value(density, r):
    """rho(r) alone, scalar or array: the first row of ``density.profile(r)``."""
    return density.profile(r)[0]
