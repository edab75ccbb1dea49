"""Write the orbital-sum oracle table that test_kernels reads for 40 and 60 shells.

Usage: PYTHONPATH=src python tests/shell_profile_oracle.py

``test_kernels._shell_profile_oracle`` sums rho, rho' and rho'' orbital by
orbital in mpmath; at 40 and 60 shells that takes seconds, so
``test_shell_profile_matches_mpmath_oracle`` reads the sums from
``shell_profile_oracle.txt`` instead.  This script rewrites that table at
the test's own radii (``test_kernels.oracle_radii``).  Every float is
written as its repr, so the test reads back the very doubles computed here.
"""

from __future__ import annotations

import platform
import time

import mpmath

from test_kernels import ORACLE_TABLE, ORBITAL_SUM_DPS, _shell_profile_oracle, oracle_radii

SHELLS = (40, 60)


def main() -> None:
    start = time.perf_counter()
    lines = []
    for n_max in SHELLS:
        z, r = oracle_radii(n_max)
        for ri, *values in zip(r, *_shell_profile_oracle(z, n_max, r)):
            lines.append(" ".join([str(n_max), *(repr(float(v)) for v in (ri, *values))]))
    seconds = time.perf_counter() - start
    header = [
        "# rho, rho' and rho'' of the neutral n_max-shell density, summed orbital by",
        "# orbital by test_kernels._shell_profile_oracle; rewrite with",
        "#   PYTHONPATH=src python tests/shell_profile_oracle.py",
        f"# mpmath {mpmath.__version__}, {ORBITAL_SUM_DPS} working digits, {seconds:.1f} s "
        f"(Python {platform.python_version()}, {platform.machine()})",
        "# n_max r rho rho' rho''",
    ]
    ORACLE_TABLE.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    print(f"wrote {ORACLE_TABLE.name}: {len(lines)} rows in {seconds:.1f} s")


if __name__ == "__main__":
    main()
