"""Slater-orbital data: format, validation, and the assembled densities."""

import math
from importlib import resources

import mpmath
import numpy as np
import pytest

from densities import value
from orbitals import radial_value
from sto_text import serialize_records
from tfshell import cli
from tfshell.atomic_data import (
    NORM_TOLERANCE,
    STOAtomRecord,
    STODataError,
    STODensity,
    STOOrbital,
    STOParseError,
    STOPrimitive,
    STOValidationError,
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
    noisy = "\n# leading comment\n\n" + MINIMAL.replace("ORB 1s 2", "ORB 1s 2  # full shell")
    assert parse_sto_text(noisy) == parse_sto_text(MINIMAL)


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("WAT He 2 4.0", 1, "unknown directive"),
        ("ORB 1s 2", 1, "ORB before any ATOM"),
        ("ATOM He 2 4.0\nPRM 1 2.0 1.0", 2, "PRM before any ORB"),
        ("ATOM He 2", 1, "ATOM needs"),
        ("ATOM He 2 4.0\nORB 1s", 2, "ORB needs"),
        ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 2.0", 3, "PRM needs"),
        ("ATOM He two 4.0", 1, "must be numeric"),
        ("ATOM He 2.5 4.0", 1, "must be an integer"),
        ("ATOM He 2 4.0\nORB s1 2", 2, "label"),
        ("ATOM He 2 4.0\nORB 1k 2", 2, "angular letter"),
        ("ATOM He 2 4.0\nORB 1s 2\nPRM 1 abc 1.0", 3, "must be numeric"),
    ],
)
def test_parse_errors_carry_line_numbers(text: str, line_no: int, fragment: str) -> None:
    with pytest.raises(STOParseError, match=fragment) as excinfo:
        parse_sto_text(text)
    assert excinfo.value.line_no == line_no
    assert f"line {line_no}:" in str(excinfo.value)


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
    ],
)
def test_validation_failures_surface_through_parse(text: str, fragment: str) -> None:
    with pytest.raises(STOValidationError, match=fragment):
        parse_sto_text(text)


# --- direct construction invariants ----------------------------------------


def test_primitive_normalization_closed_form() -> None:
    assert STOPrimitive(1, 1.0, 1.0).normalization == pytest.approx(2.0, rel=1e-15)
    p = STOPrimitive(2, 1.5, 0.3)
    assert p.normalization == pytest.approx(math.sqrt(3.0**5 / 24.0), rel=1e-15)


def test_primitive_validation() -> None:
    with pytest.raises(STOValidationError):
        STOPrimitive(0, 1.0, 1.0)
    with pytest.raises(STOValidationError):
        STOPrimitive(1, 0.0, 1.0)
    with pytest.raises(STOValidationError):
        STOPrimitive(1, math.inf, 1.0)
    with pytest.raises(STOValidationError):
        STOPrimitive(1, 1.0, math.nan)


def test_nan_norm_fails_the_unit_norm_check(monkeypatch) -> None:
    monkeypatch.setattr(STOOrbital, "norm_integral", lambda self: math.nan)
    with pytest.raises(STOValidationError, match="norm integral nan"):
        STOOrbital(1, 0, 2, (STOPrimitive(1, 2.0, 1.0),))


def test_orbital_validation() -> None:
    prim = (STOPrimitive(1, 2.0, 1.0),)
    with pytest.raises(STOValidationError, match="below n"):
        STOOrbital(1, 1, 2, prim)
    with pytest.raises(STOValidationError, match="no primitives"):
        STOOrbital(1, 0, 2, ())
    with pytest.raises(STOValidationError, match="occupation"):
        STOOrbital(2, 1, 7, (STOPrimitive(2, 2.0, 1.0),))
    assert STOOrbital(2, 1, 6, (STOPrimitive(2, 2.0, 1.0),)).max_occupation == 6


def test_atom_record_validation() -> None:
    orb = STOOrbital(1, 0, 2, (STOPrimitive(1, 2.0, 1.0),))
    with pytest.raises(STOValidationError, match="alphabetic"):
        STOAtomRecord("X1", 2, (orb,), 4.0)
    with pytest.raises(STOValidationError, match="no orbitals"):
        STOAtomRecord("He", 2, (), 4.0)
    with pytest.raises(STOValidationError, match="charge mismatch"):
        STOAtomRecord("He", 4, (orb,), 4.0)
    with pytest.raises(STOValidationError, match="positive"):
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


def test_density_radius_checks_and_scalars(bundled) -> None:
    rho = atom_density(bundled["Ne"])
    with pytest.raises(ValueError, match="non-negative"):
        value(rho, -0.1)
    with pytest.raises(ValueError, match="non-negative"):
        rho.profile(np.array([0.5, -1e-9]))
    scalar = value(rho, 0.7)
    assert type(scalar) is float
    profile = rho.profile(0.7)
    assert [type(v) for v in profile] == [float] * 3
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


# one primitive r^p e^{-zeta r} in one orbital of weight 1: (exponents,
# powers, coefs, weights) for the constructor checks below
ONE_PRIMITIVE = ([1.0], [1], [[1.0]], [1.0])


def _density_with(**changes) -> STODensity:
    names = ("exponents", "powers", "coefs", "weights")
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


@pytest.mark.parametrize("weights", [[-0.5], [np.nan], [np.inf]])
def test_density_rejects_negative_weights(weights) -> None:
    # a negative weight used to give NaN through its square root
    with pytest.raises(ValueError, match="weights must be non-negative"):
        _density_with(weights=weights)


@pytest.mark.parametrize(
    "changes",
    [
        {"exponents": [1.0, 2.0]},
        {"powers": [1, 1]},
        {"coefs": [1.0]},
        {"coefs": [[1.0, 2.0]]},
        {"weights": [1.0, 1.0]},
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
    for a in (rho.exponents, rho.powers, rho.coefs, rho.weights):
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
