"""Shell-resolved kinetic-energy tools for closed-shell Coulomb systems.

The package evaluates orbital-free kinetic-energy functionals (Thomas-Fermi,
the second- and fourth-order gradient expansions) on radial densities, builds
the exactly known densities and energies of filled hydrogen-like shells, and
carries a shell-structure correction to Thomas-Fermi calibrated on those
exact results.  A command-line front end (``tfshell``) reproduces the
headline numbers in four subcommands: error tables for Hartree-Fock atoms
(``table1``), the model's exact energies and correction (``model``), the
scaled densities and error ladders behind the figures (``figures``), and
the large-Z expansion coefficients (``asymptotics``).  The package holds
only what these reach; the test oracles live in ``tests/``.
"""

__version__ = "0.1.0"
