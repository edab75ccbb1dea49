"""Canonical .sto text from parsed records, for the round-trip tests."""

from __future__ import annotations

from typing import Iterable

from tfshell.atomic_data import STOAtomRecord, STODataError


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
