"""The paper's numbers, as the CLI's REFERENCES table shows them, checked
against the exact classical bound and the quantum bound of H_(2^d)."""

import argparse
import json

import pytest

from bellbound import classical_bound, quantum_bound, tensor_power
from bellbound.cli import REFERENCES, run

EXACT_Q = "quantum maximum 2^(3d/2), as H H^T = 2^d I"


def applying(command, d):
    args = argparse.Namespace(commuting=False, normalized=False)
    return [
        (label, value(d, args))
        for cmd, applies, label, value in REFERENCES
        if cmd == command and applies(d, args)
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_classical_row_is_l_for_even_d_only(d):
    bound = classical_bound(tensor_power(d)).bound
    (_, reference), = applying("classical", d)
    if d == 1 or d % 2 == 0:
        assert reference == bound
    else:
        # L(H_8) = 20 < 2^4.5: Cauchy-Schwarz is not attained for odd d > 1.
        assert reference > bound


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_quantum_exact_row_is_q(d):
    objective = quantum_bound(tensor_power(d), seed=0).primal.objective
    rows = dict(applying("quantum", d))
    assert rows[EXACT_Q] == pytest.approx(objective, rel=1e-6)
    # The counting estimate, shown for d >= 2, is an upper estimate of Q.
    assert all(value >= objective for value in rows.values())
    assert len(rows) == (1 if d == 1 else 2)


def test_chsh_classical_row_is_two(tmp_path, capsys):
    # The CHSH report once compared L = 2 with 2^(3/2) = 2.83.
    path = str(tmp_path / "chsh.json")
    assert run(["generate", "--family", "chsh", "--out", path]) == 0
    capsys.readouterr()
    assert run(["classical", "--matrix", path]) == 0
    row, = json.loads(capsys.readouterr().out)["reference_comparison"]
    assert row["reference"] == 2.0
    assert row["abs_difference"] == 0.0
