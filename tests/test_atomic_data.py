"""Slater-orbital data: format, validation, and the assembled densities."""

import ast
import math
import warnings
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest

from densities import value
from orbitals import radial_value
from sto_text import serialize_records
from tfshell import atomic_data, cli
from tfshell.atomic_data import (
    NORM_TOLERANCE,
    STOAtomRecord,
    STODataError,
    STODensity,
    STOOrbital,
    STOParseError,
    STOPrimitive,
    atom_density,
    load_files,
    parse_sto_text,
)

MINIMAL = """\
# hydrogen-like helium with one primitive per orbital
ATOM He 2 4.0
ORB 1s 2
PRM 1 2.0 1.0
"""


# --- parsing ----------------------------------------------------------------


def test_parse_minimal_record() -> None:
    (rec,) = parse_sto_text(MINIMAL)
    assert rec.element == "He"
    assert rec.atomic_number == 2
    assert rec.reference_hf_kinetic == 4.0
    assert rec.electron_count == 2
    (orb,) = rec.orbitals
    assert (orb.label, orb.occupation) == ("1s", 2)
    assert orb.primitives == (STOPrimitive(1, 2.0, 1.0),)


def test_comments_and_blanks_ignored() -> None:
    # a comment may hold any UTF-8, even what a number or a label may not
    noisy = "\n# leading comment\n\n" + MINIMAL.replace("ORB 1s 2", "ORB 1s 2  # full shell: \u0661s, \u0397e, 4_0.0")
    assert parse_sto_text(noisy) == parse_sto_text(MINIMAL)


@pytest.mark.parametrize(
    "text,line_no,message",
    [
        # a short label after the text and line number names each case
        pytest.param(text, line_no, message, id=f"{text}-{line_no}-{label}")
        for text, line_no, label, message in [
            ("WAT He 2 4.0", 1, "unknown directive", "unknown directive 'WAT'"),
            ("ORB 1s 2", 1, "ORB before any ATOM", "ORB before any ATOM header"),
            ("ORB 1s", 1, "ORB before any ATOM, a field short", "ORB before any ATOM header"),
            ("ATOM He 2 4.0\nPRM 1 2.0 1.0", 2, "PRM before any ORB", "PRM before any ORB line"),
            ("ATOM He 2", 1, "ATOM needs", "ATOM needs <symbol> <Z> <kinetic>, got 2 fields"),
            ("ATOM He 2 4.0\nORB 1s", 2, "ORB needs", "ORB needs <label> <occupation>, got 1 fields"),
            ("ATOM He 2 4.0\nORB 1s 2 3", 2, "ORB needs, a field over", "ORB needs <label> <occupation>, got 3 fields"),
            ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0", 3, "PRM needs", "PRM needs <n> <zeta> <coefficient>, got 2 fields"),
            ("ATOM He two 4.0", 1, "must be numeric", "atomic number must be numeric, got 'two'"),
            ("ATOM He 2.5 4.0", 1, "must be an integer", "atomic number must be an integer, got '2.5'"),
            ("ATOM He 2 4.0\nORB s1 2", 2, "label", "orbital label must look like 2p, got 's1'"),
            ("ATOM He 2 4.0\nORB 1k 2", 2, "angular letter", "unknown angular letter 'k' in '1k'"),
            ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 abc 1.0", 3, "must be numeric", "primitive exponent must be numeric, got 'abc'"),
        ]
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line_no: int, message: str) -> None:
    with pytest.raises(STOParseError) as excinfo:
        parse_sto_text(text)
    assert excinfo.value.line_no == line_no
    assert str(excinfo.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("token", ["2", "+2", "2.0", "0.02e2", "0" * 5000 + "2"],
                         ids=["digits", "signed", "float", "exponent", "5000-zeros"])
def test_integer_fields_read_integral_floats(token: str) -> None:
    # a float token of integral value reads as its value, and leading zeros,
    # which int() would count against its 4300-digit limit, are dropped
    (record,) = parse_sto_text(MINIMAL.replace("He 2", f"He {token}"))
    assert record.atomic_number == 2


def test_orbital_label_number_reads_like_an_integer_field() -> None:
    # the label's digits go through the same reader as every integer field:
    # leading zeros past int()'s 4300-digit limit are dropped, and a number
    # past that limit is a parse error that names its line and its length
    (record,) = parse_sto_text(MINIMAL.replace("1s", "0" * 4400 + "1s"))
    assert record.orbitals[0].label == "1s"
    (record,) = parse_sto_text(MINIMAL.replace("1s", "9" * 400 + "s"))
    assert record.orbitals[0].n == 10**400 - 1
    with pytest.raises(STOParseError) as excinfo:
        parse_sto_text(MINIMAL.replace("1s", "9" * 5000 + "s"))
    assert excinfo.value.line_no == 3
    assert str(excinfo.value) == "line 3: orbital n has 5000 significant digits, more than the 4300 read"



@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(MINIMAL.replace("4.0", "4_0.0"),
                     "line 2: reference kinetic energy must be numeric, got '4_0.0'", id="underscore"),
        pytest.param(MINIMAL.replace("He 2", "He \u0662"),
                     "line 2: atomic number must be numeric, got '\u0662'", id="arabic-indic-two"),
        pytest.param(MINIMAL.replace("2.0 1.0", "2.0 \uff11.0"),
                     "line 4: primitive coefficient must be numeric, got '\uff11.0'", id="fullwidth-one"),
        pytest.param(MINIMAL.replace("1s", "\u0661s"),
                     "line 3: orbital label must look like 2p, got '\u0661s'", id="arabic-indic-label"),
        pytest.param(MINIMAL.replace("He", "\u0397e"),
                     "line 2: element symbol must be ASCII letters, got '\u0397e'", id="greek-eta"),
    ],
)
def test_tokens_are_ascii(text: str, message: str) -> None:
    # float() and \d read underscores and any Unicode digit, and str.isalpha() any letter
    with pytest.raises(STODataError) as excinfo:
        parse_sto_text(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        # record faults at line 2 (a 1s norm integral of 1.21) and at line 3 (a negative exponent)
        ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.1\nORB 2s 0\nWAT", "line 5: unknown directive 'WAT'"),
        ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 -2.0 1.0\nWAT", "line 4: unknown directive 'WAT'"),
    ],
)
def test_structure_is_checked_before_any_record(text: str, message: str) -> None:
    # a structural fault anywhere wins over a record fault on an earlier line
    with pytest.raises(STOParseError) as excinfo:
        parse_sto_text(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_break_only_where_an_editor_breaks_them(separator: str) -> None:
    # str.splitlines() also breaks at these; LF, CR LF and CR alone end a line
    lines = [f"# page{separator}one", separator, *MINIMAL.splitlines()]
    for newline in ("\n", "\r\n", "\r"):
        assert parse_sto_text(newline.join(lines)) == parse_sto_text(MINIMAL)
        with pytest.raises(STOParseError) as excinfo:
            parse_sto_text(newline.join([*lines, "BAD"]))
        assert str(excinfo.value) == f"line {len(lines) + 1}: unknown directive 'BAD'"


def test_empty_input_rejected() -> None:
    with pytest.raises(STODataError, match="no ATOM records"):
        parse_sto_text("# only a comment\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        (MINIMAL.replace("ORB 1s 2", "ORB 1s 3"), "occupation"),
        (MINIMAL.replace("PRM 1 2.0 1.0", "PRM 1 -2.0 1.0"), "exponent"),
        (MINIMAL.replace("ATOM He 2 4.0", "ATOM He 3 4.0"), "charge mismatch"),
        (MINIMAL.replace("PRM 1 2.0 1.0", "PRM 1 2.0 1.1"), "norm integral"),
        (MINIMAL.replace("ATOM He 2 4.0", "ATOM He 2 -4.0"), "must be positive"),
        (MINIMAL.replace("ATOM He 2 4.0", "ATOM He 2 0.0"), "must be positive"),
        # (2 zeta)^3 overflows, or underflows to 0 and would divide the norm integral by 0
        (MINIMAL.replace("PRM 1 2.0", "PRM 1 1e160"), r"^line 4: primitive n=1 zeta=1e\+160 has a normalization"),
        (MINIMAL.replace("PRM 1 2.0", "PRM 1 1e-170"), r"^line 4: primitive n=1 zeta=1e-170 has a normalization"),
        (MINIMAL.replace("PRM 1 2.0", "PRM 1 1e-200"), r"^line 4: primitive n=1 zeta=1e-200 has a normalization"),
        # two valid primitives whose pair term (zeta_1 + zeta_2)^4 overflows
        (
            MINIMAL.replace("PRM 1 2.0 1.0", "PRM 1 4.4e78 1.0\nPRM 2 1e-60 1.0"),
            r"^line 3: orbital 1s has a norm integral outside",
        ),
        # inf - inf: a NaN norm must fail the unit-norm check
        (
            MINIMAL.replace("PRM 1 2.0 1.0", "PRM 1 1.0 1e200\nPRM 2 1.0 -1e200"),
            r"^line 3: orbital 1s has norm integral nan",
        ),
        # 2^53 + 1, which float() rounds to 2^53
        (MINIMAL.replace("He 2", "He 9007199254740993"), r"atomic number is 9007199254740993$"),
        (MINIMAL.replace("PRM 1", "PRM -9007199254740993"), r"positive integer, got -9007199254740993$"),
        (MINIMAL.replace("PRM 1", "PRM +9007199254740993"), r"^line 4: primitive n=9007199254740993 zeta"),
        # 400 digits, past the float range, which float() reads as inf; a
        # message names an integer of more than 100 digits by its digit count
        (MINIMAL.replace("He 2", "He " + "9" * 400), "^line 2: charge mismatch for He: .* is a 400-digit number$"),
        (MINIMAL.replace("1s 2", "1s " + "9" * 400),
         r"^line 3: occupation of 1s must be an integer in 0\.\.2, got a 400-digit number$"),
        (MINIMAL.replace("PRM 1", "PRM " + "9" * 400), "^line 4: primitive n=a 400-digit number zeta=2.0 has a normalization"),
    ],
)
def test_validation_failures_surface_through_parse(text: str, fragment: str) -> None:
    with pytest.raises(STOParseError, match=fragment) as excinfo:
        parse_sto_text(text)
    assert str(excinfo.value).startswith(f"line {excinfo.value.line_no}: ")


# --- direct construction invariants ----------------------------------------


def test_primitive_normalization_closed_form() -> None:
    assert STOPrimitive(1, 1.0, 1.0).normalization == pytest.approx(2.0, rel=1e-15)
    p = STOPrimitive(2, 1.5, 0.3)
    assert p.normalization == pytest.approx(math.sqrt(3.0**5 / 24.0), rel=1e-15)


def test_primitive_validation() -> None:
    with pytest.raises(STODataError, match="^primitive power must be a positive integer, got 0$"):
        STOPrimitive(0, 1.0, 1.0)
    with pytest.raises(STODataError, match="^primitive exponent must be positive, got 0.0$"):
        STOPrimitive(1, 0.0, 1.0)
    with pytest.raises(STODataError, match="^primitive exponent must be positive, got inf$"):
        STOPrimitive(1, math.inf, 1.0)
    with pytest.raises(STODataError, match="^primitive coefficient must be finite, got nan$"):
        STOPrimitive(1, 1.0, math.nan)


def test_power_past_the_factorial_range_is_rejected_before_the_factorial(monkeypatch) -> None:
    # 171! is past the float range, so every n >= 86 has no finite
    # normalization; (2n)! takes time superlinear in n and is never built
    factorial = math.factorial

    def float_range_factorial(k: int) -> int:
        if k > 170:
            raise AssertionError(f"factorial({k}) was built")
        return factorial(k)

    monkeypatch.setattr(math, "factorial", float_range_factorial)
    assert STOPrimitive(85, 0.5, 1.0).normalization == math.sqrt(1.0 / factorial(170))
    for n in (86, 100_000):
        with pytest.raises(STODataError, match=f"n={n} zeta=0.5 has a normalization outside the float range"):
            STOPrimitive(n, 0.5, 1.0)


def test_nan_norm_fails_the_unit_norm_check(monkeypatch) -> None:
    monkeypatch.setattr(STOOrbital, "norm_integral", lambda self: math.nan)
    with pytest.raises(STODataError, match="norm integral nan"):
        STOOrbital(1, 0, 2, (STOPrimitive(1, 2.0, 1.0),))


def test_orbital_validation() -> None:
    prim = (STOPrimitive(1, 2.0, 1.0),)
    with pytest.raises(STODataError, match="below n"):
        STOOrbital(1, 1, 2, prim)
    with pytest.raises(STODataError, match="no primitives"):
        STOOrbital(1, 0, 2, ())
    with pytest.raises(STODataError, match="occupation"):
        STOOrbital(2, 1, 7, (STOPrimitive(2, 2.0, 1.0),))
    assert STOOrbital(2, 1, 6, (STOPrimitive(2, 2.0, 1.0),)).max_occupation == 6


ONE_S = (STOPrimitive(1, 2.0, 1.0),)


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: STOPrimitive(True, 2.0, 1.0), "primitive power"),
        (lambda: STOOrbital(True, 0, 1, ONE_S), "orbital n"),
        (lambda: STOOrbital(1, False, 1, ONE_S), "orbital l"),
        (lambda: STOOrbital(1, 0, True, ONE_S), "occupation"),
        (lambda: STOAtomRecord("H", True, (STOOrbital(1, 0, 1, ONE_S),), 0.5), "atomic number"),
    ],
)
def test_integer_fields_reject_bool(build, fragment) -> None:
    # bool subclasses int, so True would pass an isinstance(..., int) check
    with pytest.raises(STODataError, match=fragment):
        build()


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_integer_fields_take_numpy_integers(integer) -> None:
    # the five integer fields take a numpy integer and store it as an int
    def build(i):
        orbital = STOOrbital(i(1), i(0), i(2), (STOPrimitive(i(1), 2.0, 1.0),))
        return STOAtomRecord("He", i(2), (orbital,), 4.0)

    record = build(integer)
    assert record == build(int)
    (orbital,) = record.orbitals
    fields = (orbital.primitives[0].n, orbital.n, orbital.l, orbital.occupation, record.atomic_number)
    assert [type(value) for value in fields] == [int] * 5


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: STOPrimitive(1, True, 1.0), "primitive exponent"),
        (lambda: STOPrimitive(1, 1.0, True), "primitive coefficient"),
        (lambda: STOAtomRecord("He", 2, (STOOrbital(1, 0, 2, ONE_S),), True), "reference kinetic energy"),
    ],
)
def test_float_fields_reject_bool(build, fragment) -> None:
    # True passes math.isfinite and compares above zero, so it needs its own check
    with pytest.raises(STODataError, match=fragment):
        build()


def test_only_one_helper_stores_integer_fields() -> None:
    # every integer record field goes through one rule: object.__setattr__(..., int(...))
    # appears in one function of atomic_data
    tree = ast.parse(Path(atomic_data.__file__).read_text(encoding="utf-8"))
    storers = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__setattr__"
        and len(node.args) == 3
        and isinstance(node.args[2], ast.Call)
        and ast.unparse(node.args[2].func) == "int"
    ]
    assert storers == ["_store_int"]


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: STOAtomRecord(5, 2, (), 1.0), "element symbol"),
        (lambda: STOPrimitive(1, "2.0", 1.0), "primitive exponent"),
        (lambda: STOPrimitive(1, 2.0, "1.0"), "primitive coefficient"),
        (lambda: STOAtomRecord("He", 2, (STOOrbital(1, 0, 2, ONE_S),), "4"), "reference kinetic energy"),
        (lambda: STOPrimitive(1, math.nan, 1.0), "primitive exponent"),
        (lambda: STOPrimitive(1, 10**400, 1.0), "primitive exponent"),
        (lambda: STOAtomRecord("He", 2, (STOOrbital(1, 0, 2, ONE_S),), math.nan), "reference kinetic energy"),
        (lambda: STOOrbital(1, 0, 2, 5), "primitives of 1s must be a tuple, got int"),
        (lambda: STOOrbital(1, 0, 2, list(ONE_S)), "primitives of 1s must be a tuple, got list"),
        (lambda: STOAtomRecord("He", 2, 5, 2.8), "orbitals of He must be a tuple, got int"),
        (lambda: STOAtomRecord("He", 2, [STOOrbital(1, 0, 2, ONE_S)], 2.8), "orbitals of He .* got list"),
        (lambda: STOOrbital(1, 0, 2, ((1, 2.0, 1.0),)),
         "^primitives of 1s must hold STOPrimitive records, got tuple$"),
        (lambda: STOAtomRecord("He", 2, ("x",), 2.8), "^orbitals of He must hold STOOrbital records, got str$"),
    ],
    ids=["element-int", "zeta-str", "coefficient-str", "reference-str", "zeta-nan",
         "zeta-past-float-range", "reference-nan", "primitives-int", "primitives-list",
         "orbitals-int", "orbitals-list", "primitive-tuple", "orbital-str"],
)
def test_wrongly_typed_fields_raise_validation_errors(build, fragment) -> None:
    # a caller that catches STODataError, as the command line does, sees these
    # too; NaN and an int past the float range are not finite reals either, and
    # a list would be accepted and then break hash() of the frozen record
    with pytest.raises(STODataError, match=fragment):
        build()


def test_atom_record_validation() -> None:
    orb = STOOrbital(1, 0, 2, (STOPrimitive(1, 2.0, 1.0),))
    with pytest.raises(STODataError, match="ASCII letters"):
        STOAtomRecord("X1", 2, (orb,), 4.0)
    assert STOAtomRecord("X" * 100, 2, (orb,), 4.0).element == "X" * 100
    with pytest.raises(STODataError, match="^element symbol must be at most 100 letters, got a 101-character token$"):
        STOAtomRecord("X" * 101, 2, (orb,), 4.0)
    with pytest.raises(STODataError, match="no orbitals"):
        STOAtomRecord("He", 2, (), 4.0)
    with pytest.raises(STODataError, match="charge mismatch"):
        STOAtomRecord("He", 4, (orb,), 4.0)
    with pytest.raises(STODataError, match="positive"):
        STOAtomRecord("He", 2, (orb,), 0.0)


def test_norm_integral_of_unit_primitive_is_exact() -> None:
    # the normalization constant is defined to make a lone primitive
    # unit-norm, so coefficient 1.0 must give exactly 1 up to rounding
    for n, zeta in [(1, 0.7), (2, 3.1), (3, 12.0)]:
        orb = STOOrbital(n, 0, 2, (STOPrimitive(n, zeta, 1.0),))
        assert orb.norm_integral() == pytest.approx(1.0, rel=1e-14)


# --- density assembly -------------------------------------------------------


def test_single_primitive_density_by_hand() -> None:
    (rec,) = parse_sto_text(MINIMAL)
    field = atom_density(rec)
    # rho = (occ / 4 pi) N^2 e^{-2 zeta r}; N^2 = (2 zeta)^3 / 2 = 32, zeta = 2
    n_sq = (2.0 * 2.0) ** 3 / 2.0
    coef = 2.0 * n_sq / (4.0 * math.pi)
    assert value(field, 0.0) == pytest.approx(coef, rel=1e-14)
    r = 0.7
    rho = coef * math.exp(-4.0 * r)
    assert value(field, r) == pytest.approx(rho, rel=1e-14)
    # rho' = -4 rho and rho'' = 16 rho
    got = field.profile(r)
    assert got == pytest.approx((rho, -4.0 * rho, 16.0 * rho), rel=1e-14)
    assert field.total_charge() == pytest.approx(2.0, rel=1e-13)


def test_density_matches_orbital_squares(bundled) -> None:
    # the kernel's evaluation against the direct occupation-weighted sum of
    # squared radial orbitals
    r = np.geomspace(1e-4, 30.0, 200)
    for symbol in ("He", "Ne", "Ar"):
        rec = bundled[symbol]
        direct = np.zeros_like(r)
        for orb in rec.orbitals:
            direct += orb.occupation * radial_value(orb, r) ** 2
        direct /= 4.0 * math.pi
        np.testing.assert_allclose(value(atom_density(rec), r), direct, rtol=1e-12)


def test_bundled_charges_integrate_to_z(bundled) -> None:
    for rec in bundled.values():
        assert atom_density(rec).total_charge() == pytest.approx(
            float(rec.atomic_number), abs=1e-4
        )


def test_bundled_densities_nonnegative(bundled) -> None:
    r = np.geomspace(1e-6, 60.0, 10000)
    for rec in bundled.values():
        assert np.all(value(atom_density(rec), r) >= 0.0), rec.element


def test_helium_nuclear_cusp(bundled) -> None:
    rho = atom_density(bundled["He"])
    cusp = -rho.profile(0.0)[1] / (2.0 * value(rho, 0.0))
    assert cusp == pytest.approx(2.0, rel=0.02)


# -rho'(0) / (2 rho(0)) of each bundled atom, in percent above Z, as
# data/SOURCES.txt lists them
CUSP_PERCENT_ABOVE_Z = {
    "He": 0.22, "Li": 0.57, "Be": 0.48, "B": 0.38, "C": 0.33, "N": 0.32,
    "O": 0.37, "F": 0.31, "Ne": 0.18, "Na": 0.11, "Mg": 0.10, "Si": 0.10,
    "P": 0.07, "Cl": 0.01, "Ar": 0.09, "Kr": -0.02, "Xe": -0.08,
}


def _cusp_ratio(rec: STOAtomRecord) -> float:
    """-rho'(0) / (2 rho(0)) in closed form from the record's primitives.

    Only s orbitals reach the nucleus: R(0) sums c N over the n = 1
    primitives, and R'(0) adds -zeta c N over those and c N over the n = 2
    ones.  rho(0) is then sum occ R(0)^2 and rho'(0) sum 2 occ R(0) R'(0),
    both over 4 pi.
    """
    at_zero = slope = 0.0
    for orb in rec.orbitals:
        if orb.l != 0:
            continue
        value0 = sum(p.coefficient * p.normalization for p in orb.primitives if p.n == 1)
        slope0 = sum(
            (1.0 if p.n == 2 else -p.zeta) * p.coefficient * p.normalization
            for p in orb.primitives
            if p.n <= 2
        )
        at_zero += orb.occupation * value0 * value0
        slope += orb.occupation * value0 * slope0
    return -slope / at_zero


def test_bundled_cusp_ratios(bundled) -> None:
    # the kernel at r = 0 agrees with the closed form, and a change of
    # transcription shows as a moved ratio
    assert sorted(CUSP_PERCENT_ABOVE_Z) == sorted(bundled)
    for symbol, rec in bundled.items():
        ratio = _cusp_ratio(rec)
        rho, deriv, _ = atom_density(rec).profile(0.0)
        assert -deriv / (2.0 * rho) == pytest.approx(ratio, rel=1e-13), symbol
        percent = 100.0 * (ratio / rec.atomic_number - 1.0)
        assert percent == pytest.approx(CUSP_PERCENT_ABOVE_Z[symbol], abs=0.01), symbol


def test_density_radius_checks_and_scalars(bundled) -> None:
    rho = atom_density(bundled["Ne"])
    with pytest.raises(ValueError, match="non-negative"):
        value(rho, -0.1)
    with pytest.raises(ValueError, match="non-negative"):
        rho.profile(np.array([0.5, -1e-9]))
    scalar = value(rho, 0.7)
    assert scalar.shape == ()
    profile = rho.profile(0.7)
    assert [v.shape for v in profile] == [()] * 3
    assert profile[0] == scalar
    rows = rho.profile(np.array([0.3, 0.7]))
    assert [row[1] for row in rows] == list(profile)


def test_density_ignores_empty_orbitals() -> None:
    (bare,) = parse_sto_text(MINIMAL)
    (padded,) = parse_sto_text(MINIMAL + "ORB 2s 0\nPRM 2 1.0 1.0\n")
    assert padded.orbitals[1].occupation == 0
    rho, ref = atom_density(padded), atom_density(bare)
    # the empty orbital's primitive is not a column of the density either
    assert rho.coefs.shape == ref.coefs.shape == (1, 1)
    r = np.geomspace(1e-4, 30.0, 50)
    assert np.array_equal(np.array(rho.profile(r)), np.array(ref.profile(r)))
    assert rho.total_charge() == ref.total_charge()


@pytest.mark.parametrize("atom", ["bundled", "padded"])
def test_density_rows_fold_the_occupations(bundled, atom) -> None:
    # row k is sqrt(occ_k / 4 pi) times orbital k's merged c_i N_i, computed
    # the same way bit for bit, so that rho is the sum of the rows' squares;
    # an orbital with zero occupation has no row
    if atom == "bundled":
        records = list(bundled.values())
    else:
        records = parse_sto_text(MINIMAL + "ORB 2s 0\nPRM 2 1.0 1.0\n")
    for record in records:
        density = atom_density(record)
        occupied = [orb for orb in record.orbitals if orb.occupation]
        columns = list(zip(density.powers.tolist(), density.exponents.tolist()))
        assert density.coefs.shape == (len(occupied), len(columns))
        for row, orb in zip(density.coefs, occupied):
            merged = np.zeros(len(columns))
            for p in orb.primitives:
                merged[columns.index((p.n - 1, p.zeta))] += p.coefficient * p.normalization
            scale = math.sqrt(orb.occupation / (4.0 * math.pi))
            assert row.tobytes() == (merged * scale).tobytes(), (record.element, orb.label)


# one primitive r^p e^{-zeta r} in one orbital: (exponents, powers, coefs)
# for the constructor checks below
ONE_PRIMITIVE = ([1.0], [1], [[1.0]])


def _density_with(**changes) -> STODensity:
    names = ("exponents", "powers", "coefs")
    args = [changes.get(name, value) for name, value in zip(names, ONE_PRIMITIVE)]
    return STODensity(*(np.array(a) for a in args), 1.0)


@pytest.mark.parametrize("powers", [[0.5], [-1], [np.nan], [np.inf]])
def test_density_rejects_non_integer_or_negative_powers(powers) -> None:
    # a power of 0.5 used to be truncated to 0: rho = r e^{-2r} gave
    # rho'(1) = -0.2707 instead of -e^{-2} = -0.1353
    with pytest.raises(ValueError, match="powers must be non-negative integers"):
        _density_with(powers=powers)


@pytest.mark.parametrize("exponents", [[0.0], [-1.0], [np.nan], [np.inf]])
def test_density_rejects_non_positive_exponents(exponents) -> None:
    # a negative exponent used to overflow to inf far out
    with pytest.raises(ValueError, match="exponents must be positive"):
        _density_with(exponents=exponents)


@pytest.mark.parametrize("coefs", [[[np.nan]], [[np.inf]], [[-np.inf]]])
def test_density_rejects_non_finite_coefficients(coefs) -> None:
    with pytest.raises(ValueError, match="coefficients must be finite"):
        _density_with(coefs=coefs)


def test_profile_is_zero_at_huge_finite_radii(bundled) -> None:
    # zeta r used to overflow in the kernel's exponent product once r passed
    # about 2.3e307 (He's largest zeta is 7.94), warning from inside numpy
    density = atom_density(bundled["He"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert density.profile(1e308) == (0.0, 0.0, 0.0)
        rows = density.profile(np.array([0.5, 1e308]))
    for k, near in enumerate(density.profile(0.5)):
        assert rows[k][0] == near
        assert rows[k][1] == 0.0


@pytest.mark.parametrize(
    "changes",
    [
        {"exponents": [1.0, 2.0]},
        {"powers": [1, 1]},
        {"coefs": [1.0]},
        {"coefs": [[1.0, 2.0]]},
        {"exponents": [[1.0]], "powers": [[1]]},
    ],
)
def test_density_rejects_mismatched_shapes(changes) -> None:
    with pytest.raises(ValueError, match="shapes must be"):
        _density_with(**changes)


def test_density_leaves_caller_arrays_writeable() -> None:
    args = [np.array(a, dtype=float) for a in ONE_PRIMITIVE]
    rho = STODensity(*args, 1.0)
    assert all(a.flags.writeable for a in args)
    # the density keeps read-only copies: the caller's writes do not reach it
    before = value(rho, 1.0)
    for a in args:
        a *= 2.0
    assert value(rho, 1.0) == before
    for a in (rho.exponents, rho.powers, rho.coefs):
        assert not a.flags.writeable


def test_density_charge_reuses_validated_norms(bundled, monkeypatch) -> None:
    expected = {
        symbol: sum(orb.occupation * orb.norm_integral() for orb in rec.orbitals)
        for symbol, rec in bundled.items()
    }

    def refuse(self):
        raise AssertionError("norm integral computed again")

    monkeypatch.setattr(STOOrbital, "norm_integral", refuse)
    for symbol, rec in bundled.items():
        assert atom_density(rec).total_charge() == expected[symbol]


def test_norm_integral_is_the_ordered_pair_sum(bundled) -> None:
    # every ordered pair (i, j), in 30-digit mpmath
    with mpmath.workdps(30):
        for symbol in ("Ne", "Xe"):
            for orb in bundled[symbol].orbitals:
                total = mpmath.mpf(0)
                for a in orb.primitives:
                    for b in orb.primitives:
                        za, zb = mpmath.mpf(a.zeta), mpmath.mpf(b.zeta)
                        na = mpmath.sqrt((2 * za) ** (2 * a.n + 1) / mpmath.factorial(2 * a.n))
                        nb = mpmath.sqrt((2 * zb) ** (2 * b.n + 1) / mpmath.factorial(2 * b.n))
                        power = a.n + b.n
                        total += (
                            mpmath.mpf(a.coefficient) * mpmath.mpf(b.coefficient) * na * nb
                            * mpmath.factorial(power) / (za + zb) ** (power + 1)
                        )
                assert orb.norm_integral() == pytest.approx(float(total), rel=1e-14, abs=0.0)


# --- the bundle -------------------------------------------------------------


def test_bundle_contents(bundled) -> None:
    assert len(bundled) == 17
    for symbol in ("He", "Be", "Ne", "Mg", "Ar", "Kr", "Xe"):
        assert symbol in bundled
    zs = [rec.atomic_number for rec in bundled.values()]
    assert zs == sorted(zs)
    for rec in bundled.values():
        assert rec.electron_count == rec.atomic_number
        assert rec.reference_hf_kinetic > 0.0


def test_bundle_supports_open_shells(bundled) -> None:
    labels = {orb.label: orb.occupation for orb in bundled["N"].orbitals}
    assert labels == {"1s": 2, "2s": 2, "2p": 3}


def test_bundled_files_are_canonical() -> None:
    # parse -> serialize reproduces each file byte for byte
    root = resources.files("tfshell") / "data"
    checked = 0
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".sto"):
            continue
        text = entry.read_text(encoding="utf-8")
        assert serialize_records(parse_sto_text(text)) == text, entry.name
        checked += 1
    assert checked == 17


def test_serialize_round_trip_identity(bundled) -> None:
    text = serialize_records(bundled.values())
    reparsed = parse_sto_text(text)
    assert reparsed == list(bundled.values())
    assert serialize_records(reparsed) == text


def test_serialize_empty_rejected() -> None:
    with pytest.raises(STODataError, match="no records"):
        serialize_records([])


def test_load_bundled_filter(bundled) -> None:
    # the command line's selection is the one filter over the bundled set
    assert list(bundled) == sorted(bundled, key=lambda sym: bundled[sym].atomic_number)
    chosen, missing = cli._select_records(["ne", "He", "Al"], bundled)
    assert [rec.element for rec in chosen] == ["Ne", "He"]
    assert chosen[0].atomic_number == 10
    assert missing == ["Al"]


def test_load_files_orders_by_charge_and_later_file_wins(tmp_path) -> None:
    first, second = tmp_path / "a.sto", tmp_path / "b.sto"
    first.write_text("ATOM Li 3 7.4\nORB 1s 2\nPRM 1 2.7 1.0\nORB 2s 1\nPRM 2 0.65 1.0\n"
                     "ATOM He 2 3.0\nORB 1s 2\nPRM 1 1.7 1.0\n")
    second.write_text("ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0 1.0\n")
    records = load_files([str(first), str(second)])
    assert list(records) == ["He", "Li"]
    assert records["He"].reference_hf_kinetic == 4.0


def test_load_files_skips_a_byte_order_mark(bundled, tmp_path) -> None:
    marked = tmp_path / "he.sto"
    marked.write_bytes(b"\xef\xbb\xbf" + (resources.files("tfshell") / "data" / "he.sto").read_bytes())
    assert load_files([str(marked)]) == {"He": bundled["He"]}


def test_norm_tolerance_is_needed_but_not_slack(bundled) -> None:
    # published coefficients are rounded to about five decimals; the worst
    # orbital norm misses unity by around 2e-5, so the gate must be looser
    # than that but still catch a typo-sized breach
    worst = max(
        abs(orb.norm_integral() - 1.0)
        for rec in bundled.values()
        for orb in rec.orbitals
    )
    assert 1e-5 < worst <= NORM_TOLERANCE
