"""Slater-type-orbital atomic data and spherically averaged densities.

Atoms enter through a small line-oriented text format holding published
Roothaan-Hartree-Fock wavefunctions: one ``ATOM`` header per element with
the nuclear charge and a reference Hartree-Fock kinetic energy, then one
``ORB`` block per occupied orbital listing Slater primitives::

    # comment (ignored to end of line)
    ATOM <symbol> <Z> <reference_kinetic_hartree>
    ORB <n><l-letter> <occupation>
    PRM <n_i> <zeta_i> <c_i>

Each orbital's radial part is R(r) = sum_i c_i N_i r^{n_i - 1} e^{-zeta_i r}
with N_i = (2 zeta_i)^{n_i + 1/2} / sqrt((2 n_i)!), so occupation-weighted
squares assemble the spherically averaged density

    rho(r) = (1 / 4 pi) sum_orb occ_orb R_orb(r)^2

``atom_density`` returns it as an ``STODensity``, which keeps the orbitals
as they are, one row of coefficients over the atom's distinct primitives
per occupied orbital, and evaluates rho, rho' and rho'' exactly through the
``_kernels.orbital_profile`` kernel: one exponential per primitive and node,
where the squares expanded into pair terms e^{-(zeta_i + zeta_j) r} would
take one per distinct pair exponent (874 against 216 for the 17 bundled
atoms).  No angular variable ever appears; occupations multiply radial
factors only.

Files bundled under ``data/`` are transcribed from the Clementi-Roetti
tables (see ``data/SOURCES.txt``) and carry their reference kinetic
energies in the ``ATOM`` headers rather than in code, so a better basis
set can be swapped in without touching the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _kernels

__all__ = [
    "NORM_TOLERANCE",
    "STODataError",
    "STOParseError",
    "STOValidationError",
    "STOPrimitive",
    "STOOrbital",
    "STOAtomRecord",
    "STODensity",
    "parse_sto_text",
    "atom_density",
    "load_bundled",
    "load_files",
]

# Unit-norm slack for orbitals rebuilt from 5-decimal published coefficients.
# The bundled tables peak at |norm - 1| = 2.13e-5 (oxygen 1s), so the gate
# sits at 5e-5: loose enough for rounded published data, tight enough to
# catch a mistyped coefficient or exponent.
NORM_TOLERANCE = 5e-5

_L_LETTERS = "spdfgh"
_ORBITAL_LABEL = re.compile(r"(\d+)([a-z])")


class STODataError(ValueError):
    """Base class for atomic-data failures."""


class STOParseError(STODataError):
    """Structural error in .sto text; message carries the source line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class STOValidationError(STODataError):
    """A parsed record violates a physical or normalization invariant."""


@dataclass(frozen=True)
class STOPrimitive:
    """One Slater basis function r^{n-1} e^{-zeta r} times a coefficient."""

    n: int
    zeta: float
    coefficient: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise STOValidationError(f"primitive power must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.zeta) and self.zeta > 0.0):
            raise STOValidationError(f"primitive exponent must be positive, got {self.zeta!r}")
        if not math.isfinite(self.coefficient):
            raise STOValidationError(f"primitive coefficient must be finite, got {self.coefficient!r}")
        try:
            normalization = self.normalization
        except OverflowError:
            normalization = math.inf
        # an underflow to 0 would divide by zero in the norm integral
        if not 0.0 < normalization < math.inf:
            raise STOValidationError(
                f"primitive n={self.n} zeta={self.zeta!r} has a normalization "
                "outside the float range"
            )

    @cached_property
    def normalization(self) -> float:
        """N = (2 zeta)^{n + 1/2} / sqrt((2n)!), unit-norm single primitive.

        Computed once per primitive: the norm check and every density built
        from the orbital read it.
        """
        return math.sqrt((2.0 * self.zeta) ** (2 * self.n + 1) / math.factorial(2 * self.n))


@dataclass(frozen=True)
class STOOrbital:
    """An occupied radial orbital: label (n, l), occupation, primitives."""

    n: int
    l: int
    occupation: int
    primitives: tuple[STOPrimitive, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise STOValidationError(f"orbital n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.l, int) and 0 <= self.l < len(_L_LETTERS)):
            raise STOValidationError(f"orbital l must lie in 0..{len(_L_LETTERS) - 1}, got {self.l!r}")
        if self.l >= self.n:
            raise STOValidationError(f"orbital l must be below n, got n={self.n} l={self.l}")
        cap = self.max_occupation
        if not (isinstance(self.occupation, int) and 0 <= self.occupation <= cap):
            raise STOValidationError(
                f"occupation of {self.label} must be an integer in 0..{cap}, got {self.occupation!r}"
            )
        if not self.primitives:
            raise STOValidationError(f"orbital {self.label} has no primitives")
        for p in self.primitives:
            if not isinstance(p, STOPrimitive):
                raise STOValidationError(f"expected STOPrimitive, got {type(p).__name__}")
        try:
            norm = self.norm
        except ArithmeticError:
            # a pair term (zeta_i + zeta_j)^{n_i + n_j + 1} of valid primitives can overflow
            raise STOValidationError(
                f"orbital {self.label} has a norm integral outside the float range"
            ) from None
        # written so that a NaN norm fails it
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise STOValidationError(
                f"orbital {self.label} has norm integral {norm:.8f}, "
                f"off unity by more than {NORM_TOLERANCE:g}"
            )

    @property
    def label(self) -> str:
        return f"{self.n}{_L_LETTERS[self.l]}"

    @property
    def max_occupation(self) -> int:
        return 2 * (2 * self.l + 1)

    @cached_property
    def norm(self) -> float:
        """``norm_integral()``, computed once: the validation and every density read it."""
        return self.norm_integral()

    def norm_integral(self) -> float:
        """Closed form of the norm: sum_ij c_i c_j N_i N_j (n_i+n_j)! / (z_i+z_j)^{n_i+n_j+1}.

        Summed over i <= j, each term with i < j counted twice.
        """
        scaled = [(p.n, p.zeta, p.coefficient * p.normalization) for p in self.primitives]
        total = 0.0
        for i, (n_a, z_a, c_a) in enumerate(scaled):
            for j in range(i, len(scaled)):
                n_b, z_b, c_b = scaled[j]
                power = n_a + n_b
                term = c_a * c_b * math.factorial(power) / (z_a + z_b) ** (power + 1)
                total += term if i == j else 2.0 * term
        return total


@dataclass(frozen=True)
class STOAtomRecord:
    """A neutral atom: element, charge, occupied orbitals, reference energy."""

    element: str
    atomic_number: int
    orbitals: tuple[STOOrbital, ...]
    reference_hf_kinetic: float

    def __post_init__(self) -> None:
        if not (self.element and self.element.isalpha()):
            raise STOValidationError(f"element symbol must be alphabetic, got {self.element!r}")
        if not (isinstance(self.atomic_number, int) and self.atomic_number >= 1):
            raise STOValidationError(f"atomic number must be a positive integer, got {self.atomic_number!r}")
        if not self.orbitals:
            raise STOValidationError(f"atom {self.element} has no orbitals")
        for orb in self.orbitals:
            if not isinstance(orb, STOOrbital):
                raise STOValidationError(f"expected STOOrbital, got {type(orb).__name__}")
        total = self.electron_count
        if total != self.atomic_number:
            raise STOValidationError(
                f"charge mismatch for {self.element}: occupations sum to {total}, "
                f"atomic number is {self.atomic_number}"
            )
        if not (math.isfinite(self.reference_hf_kinetic) and self.reference_hf_kinetic > 0.0):
            raise STOValidationError(
                f"reference kinetic energy must be positive, got {self.reference_hf_kinetic!r}"
            )

    @property
    def electron_count(self) -> int:
        return sum(orb.occupation for orb in self.orbitals)


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        value = float(token)
    except ValueError:
        raise STOParseError(line_no, f"{what} must be numeric, got {token!r}") from None
    if not value.is_integer():
        raise STOParseError(line_no, f"{what} must be an integer, got {token!r}")
    return int(value)


def _parse_float(line_no: int, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise STOParseError(line_no, f"{what} must be numeric, got {token!r}") from None


def parse_sto_text(text: str) -> list[STOAtomRecord]:
    """Parse .sto-format text into validated records.

    Raises ``STOParseError`` for structural problems and
    ``STOValidationError`` when a completed orbital or atom fails its
    invariants; both messages name the offending line.
    """
    records: list[STOAtomRecord] = []
    header: tuple[int, str, int, float] | None = None
    orbitals: list[STOOrbital] = []
    pending: tuple[int, int, int, int] | None = None
    prims: list[STOPrimitive] = []

    def close_orbital() -> None:
        nonlocal pending, prims
        if pending is None:
            return
        line_no, n, l, occ = pending
        try:
            orbitals.append(STOOrbital(n, l, occ, tuple(prims)))
        except STODataError as exc:
            raise STOValidationError(f"line {line_no}: {exc}") from None
        pending = None
        prims = []

    def close_atom() -> None:
        nonlocal header, orbitals
        close_orbital()
        if header is None:
            return
        line_no, element, z, reference = header
        try:
            records.append(STOAtomRecord(element, z, tuple(orbitals), reference))
        except STODataError as exc:
            raise STOValidationError(f"line {line_no}: {exc}") from None
        header = None
        orbitals = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "ATOM":
            close_atom()
            if len(fields) != 4:
                raise STOParseError(line_no, f"ATOM needs <symbol> <Z> <kinetic>, got {len(fields) - 1} fields")
            z = _parse_int(line_no, fields[2], "atomic number")
            reference = _parse_float(line_no, fields[3], "reference kinetic energy")
            header = (line_no, fields[1], z, reference)
        elif tag == "ORB":
            if header is None:
                raise STOParseError(line_no, "ORB before any ATOM header")
            close_orbital()
            if len(fields) != 3:
                raise STOParseError(line_no, f"ORB needs <label> <occupation>, got {len(fields) - 1} fields")
            match = _ORBITAL_LABEL.fullmatch(fields[1])
            if match is None:
                raise STOParseError(line_no, f"orbital label must look like 2p, got {fields[1]!r}")
            letter = match.group(2)
            if letter not in _L_LETTERS:
                raise STOParseError(line_no, f"unknown angular letter {letter!r} in {fields[1]!r}")
            occ = _parse_int(line_no, fields[2], "occupation")
            pending = (line_no, int(match.group(1)), _L_LETTERS.index(letter), occ)
        elif tag == "PRM":
            if pending is None:
                raise STOParseError(line_no, "PRM before any ORB line")
            if len(fields) != 4:
                raise STOParseError(line_no, f"PRM needs <n> <zeta> <coefficient>, got {len(fields) - 1} fields")
            n = _parse_int(line_no, fields[1], "primitive power")
            zeta = _parse_float(line_no, fields[2], "primitive exponent")
            coef = _parse_float(line_no, fields[3], "primitive coefficient")
            try:
                prims.append(STOPrimitive(n, zeta, coef))
            except STODataError as exc:
                raise STOValidationError(f"line {line_no}: {exc}") from None
        else:
            raise STOParseError(line_no, f"unknown directive {tag!r}")
    close_atom()
    if not records:
        raise STODataError("no ATOM records in input")
    return records


class STODensity:
    """Spherically averaged density (1/4 pi) sum_k occ_k R_k(r)^2 of one atom.

    Holds the atom's P distinct primitives r^p e^{-zeta r} (``exponents``,
    ``powers`` p = n - 1), one row of normalized coefficients c_i N_i per
    occupied orbital (``coefs``, shape (K, P)) and the weights occ_k / 4 pi.
    Answers the density protocol of ``kedf``: ``profile`` gives
    (rho, rho', rho'') from one ``_kernels.orbital_profile`` call, with
    exact derivatives, and ``total_charge`` is sum_k occ_k times the
    orbital's norm integral.  ``slowest_primitive`` is (zeta, p) of the
    smallest exponent and the largest power at it, or (inf, 0) when there
    is no primitive.  It is the package's only exponential-type density
    and has no term list and no term-list operations.

    The constructor keeps read-only copies of the four arrays and raises
    ValueError unless the powers are non-negative integers, the exponents
    positive and finite, the coefficients finite, the weights non-negative
    and finite, and the shapes (P,), (P,), (K, P) and (K,).
    """

    def __init__(
        self,
        exponents: np.ndarray,
        powers: np.ndarray,
        coefs: np.ndarray,
        weights: np.ndarray,
        total_charge: float,
    ) -> None:
        exponents, powers, coefs, weights = (
            np.array(a, dtype=float) for a in (exponents, powers, coefs, weights)
        )
        if not (
            exponents.ndim == 1
            and powers.shape == exponents.shape
            and coefs.ndim == 2
            and coefs.shape[1] == exponents.size
            and weights.shape == coefs.shape[:1]
        ):
            raise ValueError(
                "shapes must be (P,), (P,), (K, P) and (K,), got "
                f"{exponents.shape}, {powers.shape}, {coefs.shape} and {weights.shape}"
            )
        if not np.all(np.isfinite(powers) & (powers >= 0) & (powers == np.floor(powers))):
            raise ValueError(f"powers must be non-negative integers, got {powers}")
        if not np.all(np.isfinite(exponents) & (exponents > 0)):
            raise ValueError(f"exponents must be positive and finite, got {exponents}")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValueError(f"weights must be non-negative and finite, got {weights}")
        powers = powers.astype(int)
        for arr in (exponents, powers, coefs, weights):
            arr.setflags(write=False)
        self.exponents, self.powers, self.coefs, self.weights = exponents, powers, coefs, weights
        self._total_charge = total_charge
        zeta = float(exponents.min(initial=math.inf))
        self.slowest_primitive = (zeta, int(powers[exponents == zeta].max(initial=0)))

    def profile(self, r):
        """(rho, rho', rho'') in one kernel call: arrays, or floats for a scalar r."""
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        # a NaN makes min and max NaN, which fails both comparisons
        if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf):
            raise ValueError("radius must be finite and non-negative")
        rows = _kernels.orbital_profile(self.exponents, self.powers, self.coefs, self.weights, arr)
        if np.asarray(r).ndim == 0:
            return tuple(float(row[0]) for row in rows)
        return rows

    def total_charge(self) -> float:
        return self._total_charge

    def __repr__(self) -> str:
        n_orb, n_prim = self.coefs.shape
        return f"STODensity({n_orb} orbitals, {n_prim} primitives)"


def atom_density(record: STOAtomRecord) -> STODensity:
    """The spherically averaged density (1/4pi) sum occ R^2 of ``record``.

    Primitives shared by several orbitals (one Slater basis per angular
    momentum) enter once; orbitals with zero occupation are left out.
    Built in one pass over the occupied orbitals' primitives.
    """
    index: dict[tuple[int, float], int] = {}
    rows: list[dict[int, float]] = []
    weights: list[float] = []
    charge = 0.0
    for orb in record.orbitals:
        if orb.occupation == 0:
            continue
        row: dict[int, float] = {}
        for p in orb.primitives:
            i = index.setdefault((p.n, p.zeta), len(index))
            row[i] = row.get(i, 0.0) + p.coefficient * p.normalization
        rows.append(row)
        weights.append(orb.occupation / (4.0 * math.pi))
        charge += orb.occupation * orb.norm
    coefs = np.zeros((len(rows), len(index)))
    for k, row in enumerate(rows):
        coefs[k, list(row)] = list(row.values())
    return STODensity(
        np.array([zeta for _, zeta in index]),
        np.array([n - 1 for n, _ in index]),
        coefs,
        np.array(weights),
        charge,
    )


def _load(sources: Iterable) -> dict[str, STOAtomRecord]:
    """Atoms of the .sto ``sources`` by element symbol, ordered by charge; later records win.

    A source that is not UTF-8 text or does not parse raises STODataError
    with the source's path in front of the message.
    """
    keyed: dict[str, STOAtomRecord] = {}
    for source in sources:
        try:
            records = parse_sto_text(source.read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise STODataError(f"{source}: not UTF-8 text") from None
        except STODataError as exc:
            raise STODataError(f"{source}: {exc}") from None
        keyed.update((rec.element, rec) for rec in records)
    return dict(sorted(keyed.items(), key=lambda kv: kv[1].atomic_number))


def load_bundled() -> dict[str, STOAtomRecord]:
    """Load the bundled atoms, keyed by element symbol and ordered by charge."""
    root = resources.files(__package__) / "data"
    entries = sorted(root.iterdir(), key=lambda e: e.name)
    return _load(e for e in entries if e.name.endswith(".sto"))


def load_files(paths: Iterable[str]) -> dict[str, STOAtomRecord]:
    """Load the atoms of the .sto files at ``paths``, keyed and ordered as ``load_bundled``.

    A later file's record of a symbol replaces an earlier one's.
    """
    return _load(Path(path) for path in paths)
