"""Shell-resolved kinetic-energy tools for closed-shell Coulomb systems.

The package evaluates orbital-free kinetic-energy functionals (Thomas-Fermi,
the second- and fourth-order gradient expansions) on radial densities, builds
the exactly known densities and energies of filled hydrogen-like shells, and
carries a shell-structure correction to Thomas-Fermi calibrated on those
exact results.  A command-line front end (``tfshell``) reproduces the
headline numbers: error tables for Hartree-Fock atoms, the scaled-density
shell oscillations, and the large-Z expansion coefficients.
"""

from .asymptotics import (
    TURNING_POINT,
    ExtrapolationError,
    SequencePoint,
    ZExpansion,
    figure_density_rows,
    figure_error_rows,
    model_energy_sequence,
    model_expansion,
    oscillation_amplitude,
    richardson_extrapolate,
    scaled_model_density,
    shell_oscillation_maxima,
    tf_limit_density,
)
from .atomic_data import (
    STOAtomRecord,
    STODataError,
    STODensity,
    STOOrbital,
    STOParseError,
    STOPrimitive,
    STOValidationError,
    atom_density,
    load_bundled,
    parse_sto_file,
    parse_sto_text,
    serialize_records,
)
from .correction import (
    INTERPOLATION_MAX_Z,
    CorrectionTable,
    corrected_energy,
    delta_t,
    delta_t_exact,
    delta_t_interpolated,
)
from .hydrogenic import (
    MAGIC_NUMBERS,
    HydrogenicDensity,
    ShellConfiguration,
    electron_count,
    model_kinetic_energy,
    model_kinetic_energy_continuous,
    radial_wavefunction,
    shell_count_for,
)
from .kedf import (
    ConvergenceError,
    EnergyBreakdown,
    GridError,
    RadialGrid,
    energies,
    make_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MAGIC_NUMBERS",
    "ShellConfiguration",
    "HydrogenicDensity",
    "electron_count",
    "shell_count_for",
    "model_kinetic_energy",
    "model_kinetic_energy_continuous",
    "radial_wavefunction",
    "GridError",
    "ConvergenceError",
    "RadialGrid",
    "EnergyBreakdown",
    "make_grid",
    "energies",
    "CorrectionTable",
    "INTERPOLATION_MAX_Z",
    "delta_t_exact",
    "delta_t_interpolated",
    "delta_t",
    "corrected_energy",
    "TURNING_POINT",
    "ExtrapolationError",
    "ZExpansion",
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
    "STODataError",
    "STOParseError",
    "STOValidationError",
    "STOPrimitive",
    "STOOrbital",
    "STOAtomRecord",
    "STODensity",
    "parse_sto_text",
    "parse_sto_file",
    "serialize_records",
    "atom_density",
    "load_bundled",
]
