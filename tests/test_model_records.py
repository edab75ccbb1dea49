"""The closed-shell model as Slater-type records: the two kernels and ``table1`` end to end.

A model record (``model_records.model_record_text``) is the n_max-shell
density written orbital by orbital, so ``_kernels.orbital_profile`` on it
must give what ``_kernels.shell_profile`` sums in closed form, and
``table1 --data`` on it must print the model's exact energy n_max Z^2 as
its corrected column: at a filled-shell count the correction is the exact
deficit of the same density.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from model_records import model_record_text
from tfshell import _kernels, cli
from tfshell.atomic_data import atom_density, parse_sto_text
from tfshell.hydrogenic import electron_count
from tfshell.kedf import grid_for


@pytest.mark.parametrize("n_max", range(1, 7))
def test_orbital_kernel_matches_shell_kernel_on_model_records(n_max: int) -> None:
    (record,) = parse_sto_text(model_record_text(n_max))
    density = atom_density(record)
    nodes = grid_for(density).all_nodes()
    orbital = _kernels.orbital_profile(
        density.exponents, density.powers, density.coefs, density.weights, nodes
    )
    shell = _kernels.shell_profile(float(electron_count(n_max)), n_max, nodes)
    for name, got, want in zip(("rho", "rho'", "rho''"), orbital, shell):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, name


def test_table1_on_model_records_prints_the_exact_energy(tmp_path, capsys) -> None:
    data = tmp_path / "model.sto"
    data.write_text("".join(model_record_text(n_max) for n_max in range(1, 5)))
    assert cli.main(["table1", "--data", str(data), "--format", "jsonl"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["z"] for row in rows] == [2, 10, 28, 60]
    for n_max, row in enumerate(rows, start=1):
        exact = n_max * row["z"] ** 2
        assert row["reference_hf_kinetic"] == exact
        assert abs(row["corrected"] - exact) <= 1e-12 * exact
