"""Density lookups shared by the tests."""

from __future__ import annotations

from tfshell.kedf import profile_energies


def value(density, r):
    """rho(r) alone, shaped like ``r``: the first row of ``density.profile(r)``."""
    return density.profile(r)[0]


def energies_on(density, grid):
    """(T_TF, T_W, T_4) of ``density`` on ``grid``, through every gate of ``profile_energies``."""
    return profile_energies(grid, density.profile(grid.nodes), density.total_charge())
