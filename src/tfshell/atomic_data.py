"""Slater-type-orbital atomic data and spherically averaged densities.

Atoms enter through a small line-oriented text format holding published
Roothaan-Hartree-Fock wavefunctions: one ``ATOM`` header per element with
the nuclear charge and a reference Hartree-Fock kinetic energy, then one
``ORB`` block per occupied orbital listing Slater primitives::

    # comment (ignored to end of line)
    ATOM <symbol> <Z> <reference_kinetic_hartree>
    ORB <n><l-letter> <occupation>
    PRM <n_i> <zeta_i> <c_i>

Files are UTF-8 text, with or without a byte-order mark; lines end at LF,
CR LF or CR only, and all structure is checked before any record is built.
Numbers, orbital labels and element symbols are ASCII (a number without
digit-group underscores); a comment may hold any UTF-8.  An integer field
in digits is read exactly by ``hydrogenic._read_int``; one written as a
float (2.0, 1e2) must have an integral value.  A message that quotes a
token names one of more than 100 characters by its length.

Each orbital's radial part is R(r) = sum_i c_i N_i r^{n_i - 1} e^{-zeta_i r}
with N_i = (2 zeta_i)^{n_i + 1/2} / sqrt((2 n_i)!), so occupation-weighted
squares assemble the spherically averaged density

    rho(r) = (1 / 4 pi) sum_orb occ_orb R_orb(r)^2

``atom_density`` returns it as an ``STODensity``, which keeps the orbitals
as they are, one row of coefficients over the atom's distinct primitives
per occupied orbital, scaled by sqrt(occ_orb / 4 pi) so that rho is the sum
of the rows' squares, and evaluates rho, rho' and rho'' exactly through the
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
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _kernels
from .hydrogenic import _MESSAGE_WIDTH, _int_text, _is_int, _read_int

__all__ = [
    "NORM_TOLERANCE",
    "STODataError",
    "STOParseError",
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
_ORBITAL_LABEL = re.compile(r"([0-9]+)([a-z])")
# each directive's fields after its tag, as its field-count message names them
_DIRECTIVE_FIELDS = {"ATOM": ("<symbol>", "<Z>", "<kinetic>"), "ORB": ("<label>", "<occupation>"),
                     "PRM": ("<n>", "<zeta>", "<coefficient>")}


def _store_int(record, name: str, lo: int, hi: float, rule: str) -> None:
    """Store field ``name`` as an int if an int or numpy integer (no bool) in lo..hi, else raise ``rule``."""
    value = getattr(record, name)
    if not _is_int(value) or not lo <= value <= hi:
        raise STODataError(f"{rule.format(record=record, hi=hi)}, got {_int_text(value)}")
    object.__setattr__(record, name, int(value))


def _check_records(record, name: str, record_type: type, kind: str, label: str) -> None:
    """Raise unless field ``name`` is a non-empty tuple of ``record_type``; ``kind label`` names the record."""
    items = getattr(record, name)
    if not isinstance(items, tuple):
        raise STODataError(f"{name} of {label} must be a tuple, got {type(items).__name__}")
    if not items:
        raise STODataError(f"{kind} {label} has no {name}")
    for item in items:
        if not isinstance(item, record_type):
            raise STODataError(
                f"{name} of {label} must hold {record_type.__name__} records, got {type(item).__name__}"
            )


def _is_finite_real(value) -> bool:
    """True for a finite int, float or numpy number that is not a bool; False for NaN or a string."""
    # concrete types, not numbers.Real, whose ABC check is several times slower on every parsed field
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


class STODataError(ValueError):
    """An atomic-data failure: a record that violates a physical or normalization invariant."""


class STOParseError(STODataError):
    """A fault at one line of .sto text, in its structure or in its record; the message names the line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class STOPrimitive:
    """One Slater basis function r^{n-1} e^{-zeta r} times a coefficient."""

    n: int
    zeta: float
    coefficient: float

    def __post_init__(self) -> None:
        _store_int(self, "n", 1, math.inf, "primitive power must be a positive integer")
        if not (_is_finite_real(self.zeta) and self.zeta > 0.0):
            raise STODataError(f"primitive exponent must be positive, got {self.zeta!r}")
        if not _is_finite_real(self.coefficient):
            raise STODataError(f"primitive coefficient must be finite, got {self.coefficient!r}")
        # N = (2 zeta)^{n + 1/2} / sqrt((2n)!), the norm of a lone primitive;
        # (2n)! is past the float range from n = 86 on (171! > 1.8e308), so
        # such an n is rejected before math.factorial spends superlinear time
        try:
            if 2 * self.n > 170:
                raise OverflowError
            normalization = math.sqrt((2.0 * self.zeta) ** (2 * self.n + 1) / math.factorial(2 * self.n))
        except OverflowError:
            normalization = math.inf
        # an underflow to 0 would divide by zero in the norm integral
        if not 0.0 < normalization < math.inf:
            raise STODataError(
                f"primitive n={_int_text(self.n)} zeta={self.zeta!r} has a normalization "
                "outside the float range"
            )
        object.__setattr__(self, "normalization", normalization)


@dataclass(frozen=True)
class STOOrbital:
    """An occupied radial orbital: label (n, l), occupation, primitives."""

    n: int
    l: int
    occupation: int
    primitives: tuple[STOPrimitive, ...]

    def __post_init__(self) -> None:
        _store_int(self, "n", 1, math.inf, "orbital n must be a positive integer")
        _store_int(self, "l", 0, len(_L_LETTERS) - 1, "orbital l must lie in 0..{hi}")
        if self.l >= self.n:
            raise STODataError(f"orbital l must be below n, got n={self.n} l={self.l}")
        _store_int(
            self, "occupation", 0, self.max_occupation,
            "occupation of {record.label} must be an integer in 0..{hi}",
        )
        _check_records(self, "primitives", STOPrimitive, "orbital", self.label)
        try:
            norm = self.norm_integral()
        except ArithmeticError:
            # a pair term (zeta_i + zeta_j)^{n_i + n_j + 1} of valid primitives can overflow
            raise STODataError(
                f"orbital {self.label} has a norm integral outside the float range"
            ) from None
        # written so that a NaN norm fails it
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise STODataError(
                f"orbital {self.label} has norm integral {norm:.8f}, "
                f"off unity by more than {NORM_TOLERANCE:g}"
            )
        object.__setattr__(self, "norm", norm)

    @property
    def label(self) -> str:
        return f"{self.n}{_L_LETTERS[self.l]}"

    @property
    def max_occupation(self) -> int:
        return 2 * (2 * self.l + 1)

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
        if not (isinstance(self.element, str) and self.element.isascii() and self.element.isalpha()):
            raise STODataError(f"element symbol must be ASCII letters, got {_int_text(self.element)}")
        if len(self.element) > _MESSAGE_WIDTH:
            raise STODataError(
                f"element symbol must be at most {_MESSAGE_WIDTH} letters, got {_int_text(self.element)}"
            )
        _store_int(self, "atomic_number", 1, math.inf, "atomic number must be a positive integer")
        _check_records(self, "orbitals", STOOrbital, "atom", self.element)
        total = self.electron_count
        if total != self.atomic_number:
            raise STODataError(
                f"charge mismatch for {self.element}: occupations sum to {_int_text(total)}, "
                f"atomic number is {_int_text(self.atomic_number)}"
            )
        ref = self.reference_hf_kinetic
        if not (_is_finite_real(ref) and ref > 0.0):
            raise STODataError(
                f"reference kinetic energy must be positive, got {ref!r}"
            )

    @property
    def electron_count(self) -> int:
        return sum(orb.occupation for orb in self.orbitals)


def _parse_float(line_no: int, token: str, what: str) -> float:
    # float() also reads digit-group underscores and non-ASCII digits
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise STOParseError(line_no, f"{what} must be numeric, got {_int_text(token)}")


def _parse_int(line_no: int, token: str, what: str) -> int:
    try:
        value = _read_int(token)
    except ValueError as exc:  # past int()'s digit limit
        raise STOParseError(line_no, f"{what} has {exc}") from None
    if value is not None:
        return value
    value = _parse_float(line_no, token, what)  # 2.0 or 1e2
    if not value.is_integer():
        raise STOParseError(line_no, f"{what} must be an integer, got {_int_text(token)}")
    return int(value)


def _record_at(line_no: int, record_type: type, *fields):
    """``record_type(*fields)``, its STODataError raised as an STOParseError naming ``line_no``."""
    try:
        return record_type(*fields)
    except STODataError as exc:
        raise STOParseError(line_no, str(exc)) from None


def parse_sto_text(text: str) -> list[STOAtomRecord]:
    """Parse .sto-format text, whose lines end at LF, CR LF or CR only, into validated records.

    The whole text is read into a tree of atoms, orbitals and primitives,
    its structure checked, before any record is built; a fault at either
    step raises ``STOParseError`` naming the line, and text with no
    ``ATOM`` record raises ``STODataError``.
    """
    atoms = []
    orbitals = primitives = None  # the lists of the open atom and the open orbital
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        tag, values = fields[0], fields[1:]
        names = _DIRECTIVE_FIELDS.get(tag)
        if names is None:
            raise STOParseError(line_no, f"unknown directive {_int_text(tag)}")
        if tag == "ORB" and orbitals is None:
            raise STOParseError(line_no, "ORB before any ATOM header")
        if tag == "PRM" and primitives is None:
            raise STOParseError(line_no, "PRM before any ORB line")
        if len(values) != len(names):
            raise STOParseError(line_no, f"{tag} needs {' '.join(names)}, got {len(values)} fields")
        if tag == "ATOM":
            z = _parse_int(line_no, values[1], "atomic number")
            orbitals, primitives = [], None
            atoms.append((line_no, values[0], z, _parse_float(line_no, values[2], "reference kinetic energy"), orbitals))
        elif tag == "ORB":
            match = _ORBITAL_LABEL.fullmatch(values[0])
            if match is None:
                raise STOParseError(line_no, f"orbital label must look like 2p, got {_int_text(values[0])}")
            letter = match.group(2)
            if letter not in _L_LETTERS:
                raise STOParseError(line_no, f"unknown angular letter {letter!r} in {_int_text(values[0])}")
            n = _parse_int(line_no, match.group(1), "orbital n")
            occ = _parse_int(line_no, values[1], "occupation")
            primitives = []
            orbitals.append((line_no, n, _L_LETTERS.index(letter), occ, primitives))
        else:
            primitives.append((line_no, (_parse_int(line_no, values[0], "primitive power"),
                                         _parse_float(line_no, values[1], "primitive exponent"),
                                         _parse_float(line_no, values[2], "primitive coefficient"))))
    if not atoms:
        raise STODataError("no ATOM records in input")
    return [
        _record_at(line_no, STOAtomRecord, symbol, z, tuple([
            _record_at(orb_line, STOOrbital, n, l, occ, tuple([_record_at(p, STOPrimitive, *prm) for p, prm in prims]))
            for orb_line, n, l, occ, prims in orbs
        ]), reference)
        for line_no, symbol, z, reference, orbs in atoms
    ]


class STODensity:
    """Spherically averaged density sum_k phi_k(r)^2 of one atom.

    Holds the atom's P distinct primitives r^p e^{-zeta r} (``exponents``,
    ``powers`` p = n - 1) and one row of coefficients per occupied orbital
    (``coefs``, shape (K, P)): row k holds sqrt(occ_k / 4 pi) c_i N_i, so
    phi_k^2 = (occ_k / 4 pi) R_k^2.  Answers the density protocol of
    ``kedf``: ``profile`` is one ``_kernels.orbital_profile`` call, and
    ``total_charge`` is sum_k occ_k times the orbital's norm integral.
    ``slowest_primitive`` is (zeta, p) of the smallest exponent and the
    largest power at it, or (inf, 0) when there is no primitive.

    The constructor keeps read-only copies of the three arrays, the powers
    as integers, and raises ValueError unless the powers are non-negative
    integers, the exponents positive and finite, the coefficients finite,
    and the shapes (P,), (P,) and (K, P).
    """

    def __init__(
        self,
        exponents: np.ndarray,
        powers: np.ndarray,
        coefs: np.ndarray,
        total_charge: float,
    ) -> None:
        exponents, powers, coefs = (np.array(a, dtype=float) for a in (exponents, powers, coefs))
        if not (
            exponents.ndim == 1
            and powers.shape == exponents.shape
            and coefs.ndim == 2
            and coefs.shape[1] == exponents.size
        ):
            raise ValueError(
                "shapes must be (P,), (P,) and (K, P), got "
                f"{exponents.shape}, {powers.shape} and {coefs.shape}"
            )
        if not np.all(np.isfinite(powers) & (powers >= 0) & (powers == np.floor(powers))):
            raise ValueError(f"powers must be non-negative integers, got {powers}")
        if not np.all(np.isfinite(exponents) & (exponents > 0)):
            raise ValueError(f"exponents must be positive and finite, got {exponents}")
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        powers = powers.astype(int)
        for arr in (exponents, powers, coefs):
            arr.setflags(write=False)
        self.exponents, self.powers, self.coefs = exponents, powers, coefs
        self._total_charge = total_charge
        zeta = float(exponents.min(initial=math.inf))
        self.slowest_primitive = (zeta, int(powers[exponents == zeta].max(initial=0)))

    def profile(self, r):
        """(rho, rho', rho'') shaped like ``r``, from one kernel call."""
        return _kernels.orbital_profile(self.exponents, self.powers, self.coefs, r)

    def total_charge(self) -> float:
        return self._total_charge

    def __repr__(self) -> str:
        n_orb, n_prim = self.coefs.shape
        return f"STODensity({n_orb} orbitals, {n_prim} primitives)"


def atom_density(record: STOAtomRecord) -> STODensity:
    """The spherically averaged density (1/4pi) sum occ R^2 of ``record``.

    Primitives shared by several orbitals (one Slater basis per angular
    momentum) enter once, as columns in order of first appearance, and
    each occupied orbital adds its c_i N_i straight into its row of the
    coefficient matrix; orbitals with zero occupation are left out.  Row k
    is then scaled by sqrt(occ_k / 4 pi), which makes the density the sum
    of the rows' squared orbitals.
    """
    occupied = [orb for orb in record.orbitals if orb.occupation]
    keys = list(dict.fromkeys((p.n, p.zeta) for orb in occupied for p in orb.primitives))
    coefs = np.zeros((len(occupied), len(keys)))
    charge = 0.0
    for k, orb in enumerate(occupied):
        for p in orb.primitives:
            coefs[k, keys.index((p.n, p.zeta))] += p.coefficient * p.normalization
        charge += orb.occupation * orb.norm
    occupations = np.array([orb.occupation for orb in occupied])
    return STODensity(
        np.array([zeta for _, zeta in keys]),
        np.array([n - 1 for n, _ in keys]),
        coefs * np.sqrt(occupations / (4.0 * math.pi))[:, None],
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
            records = parse_sto_text(source.read_text(encoding="utf-8-sig"))
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
