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

as an exponential-polynomial ``RadialField`` with exact derivatives.  No
angular variable ever appears; occupations multiply radial factors only.

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
from typing import IO, Iterable, Union

import numpy as np

from .fields import RadialField

__all__ = [
    "NORM_TOLERANCE",
    "STODataError",
    "STOParseError",
    "STOValidationError",
    "STOPrimitive",
    "STOOrbital",
    "STOAtomRecord",
    "parse_sto_text",
    "parse_sto_file",
    "serialize_records",
    "atom_density",
    "load_bundled",
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
        norm = self.norm_integral()
        if abs(norm - 1.0) > NORM_TOLERANCE:
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

    def norm_integral(self) -> float:
        """Closed form of the norm: sum_ij c_i c_j N_i N_j (n_i+n_j)! / (z_i+z_j)^{n_i+n_j+1}."""
        total = 0.0
        for a in self.primitives:
            for b in self.primitives:
                power = a.n + b.n
                total += (
                    a.coefficient
                    * b.coefficient
                    * a.normalization
                    * b.normalization
                    * math.factorial(power)
                    / (a.zeta + b.zeta) ** (power + 1)
                )
        return total

    def radial_value(self, r):
        """R(r) summed directly over primitives; scalar or array."""
        arr = np.asarray(r, dtype=float)
        out = np.zeros_like(arr, dtype=float)
        for p in self.primitives:
            out = out + p.coefficient * p.normalization * arr ** (p.n - 1) * np.exp(-p.zeta * arr)
        return float(out) if arr.ndim == 0 else out


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


def parse_sto_file(source: Union[str, "IO[str]"]) -> list[STOAtomRecord]:
    """Parse records from a path or an open text stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_sto_text(text)


def _format_number(value: float) -> str:
    # repr of a float is the shortest digit string that round-trips, which
    # keeps serialization canonical: parse -> serialize is byte-identical.
    return repr(float(value))


def serialize_records(records: Iterable[STOAtomRecord]) -> str:
    """Render records back to canonical .sto text."""
    blocks = []
    for rec in records:
        lines = [f"ATOM {rec.element} {rec.atomic_number} {_format_number(rec.reference_hf_kinetic)}"]
        for orb in rec.orbitals:
            lines.append(f"ORB {orb.label} {orb.occupation}")
            for p in orb.primitives:
                lines.append(f"PRM {p.n} {_format_number(p.zeta)} {_format_number(p.coefficient)}")
        blocks.append("\n".join(lines))
    if not blocks:
        raise STODataError("no records to serialize")
    return "\n\n".join(blocks) + "\n"


def atom_density(record: STOAtomRecord) -> RadialField:
    """Spherically averaged density (1/4pi) sum occ R^2 as a RadialField.

    Squaring each orbital's primitive sum produces terms with powers
    n_i + n_j - 2 and exponents zeta_i + zeta_j; merging by (power,
    exponent) keeps the field compact.  Derivatives of the result are
    exact, which the gradient-expansion functionals rely on.
    """
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


def load_bundled(symbols: Iterable[str] | None = None) -> dict[str, STOAtomRecord]:
    """Load bundled atoms, keyed by element symbol and ordered by charge.

    With ``symbols`` given, restricts to those elements (case-insensitive)
    in the requested order and raises ``STODataError`` for any symbol with
    no bundled data.
    """
    root = resources.files(__package__) / "data"
    records: dict[str, STOAtomRecord] = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".sto"):
            continue
        for rec in parse_sto_text(entry.read_text(encoding="utf-8")):
            records[rec.element] = rec
    records = dict(sorted(records.items(), key=lambda kv: kv[1].atomic_number))
    if symbols is None:
        return records
    by_fold = {sym.lower(): sym for sym in records}
    chosen: dict[str, STOAtomRecord] = {}
    for requested in symbols:
        key = by_fold.get(requested.lower())
        if key is None:
            raise STODataError(f"no bundled data for element {requested!r}")
        chosen[key] = records[key]
    return chosen
