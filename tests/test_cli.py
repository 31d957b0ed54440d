import argparse
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bellbound import (
    CoefficientMatrix,
    check_dual,
    load_certificate,
    load_matrix,
    quantum_bound,
    realization_to_json,
    realize,
    save_matrix,
    square_bell_operator,
    tensor_power,
)
from bellbound import cli, quantum
from bellbound.cli import run
from tests.test_quantum import Unspawnable
from tests.test_search import FORGED_LEDGER_LINES, ODD_LEDGER_LINES, ledger_line

REPORT_KEYS = {"command", "version", "inputs", "results"}


def refuse_constant(name):
    raise ValueError(f"report carries {name}, which is not JSON")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=refuse_constant)
    # Every report is one line of compact JSON.
    assert captured.out == json.dumps(report, separators=(",", ":")) + "\n"
    assert set(report) - {"reference_comparison"} == REPORT_KEYS
    assert "seed" in report["inputs"]
    return code, report


@pytest.fixture()
def chsh_file(tmp_path, capsys):
    path = str(tmp_path / "chsh.json")
    code, _ = invoke(capsys, ["generate", "--family", "chsh", "--out", path])
    assert code == 0
    return path


@pytest.fixture()
def tensor_file(tmp_path, capsys):
    path = str(tmp_path / "r4.json")
    code, _ = invoke(
        capsys, ["generate", "--family", "tensor", "--d", "2", "--out", path]
    )
    assert code == 0
    return path


def test_generate_writes_matrix(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    code, report = invoke(
        capsys, ["generate", "--family", "tensor", "--d", "3", "--out", path]
    )
    assert code == 0
    assert report["results"] == {"rows": 8, "cols": 8, "path": path}
    with open(path, "rb") as handle:
        matrix = load_matrix(handle)
    assert np.array_equal(matrix.entries, tensor_power(3).entries)


def test_classical_subcommand(tensor_file, capsys):
    code, report = invoke(capsys, ["classical", "--matrix", tensor_file])
    assert code == 0
    results = report["results"]
    assert results["bound"] == 8.0
    assert results["witness"]["value"] == 8.0
    assert sorted(map(abs, results["witness"]["s"])) == [1, 1, 1, 1]
    rows = report["reference_comparison"]
    assert rows[0]["reference"] == 8.0
    assert rows[0]["computed"] == 8.0


def test_quantum_subcommand_chsh(chsh_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, report = invoke(
        capsys,
        ["quantum", "--matrix", chsh_file, "--seed", "1", "--cert-out", cert_path],
    )
    assert code == 0
    results = report["results"]
    assert results["objective"] == pytest.approx(2.8284271, abs=1e-6)
    assert results["gap"] <= 1e-6
    assert results["converged"] is True
    row = report["reference_comparison"][0]
    assert row["reference"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    with open(cert_path, "rb") as handle:
        cert = load_certificate(handle)
    with open(chsh_file, "rb") as handle:
        matrix = load_matrix(handle)
    assert check_dual(matrix, cert, tol=1e-8)


def test_certificate_file_holds_the_weights_and_their_bound(chsh_file, tmp_path, capsys):
    # The file used to carry a min_eigenvalue too, which the loader trusted.
    cert_path = tmp_path / "cert.json"
    code, report = invoke(
        capsys, ["quantum", "--matrix", chsh_file, "--cert-out", str(cert_path)]
    )
    assert code == 0
    doc = json.loads(cert_path.read_bytes())
    assert list(doc) == ["u", "v", "upper_bound"]
    assert doc["upper_bound"] == report["results"]["upper_bound"]


def test_quantum_subcommand_displays_estimate_next_to_value(tensor_file, capsys):
    code, report = invoke(
        capsys, ["quantum", "--matrix", tensor_file, "--seed", "0"]
    )
    assert code == 0
    assert report["results"]["objective"] == pytest.approx(8.0, abs=1e-6)
    row = report["reference_comparison"][0]
    assert row["reference"] == pytest.approx(4.0 * math.sqrt(10.0), abs=1e-9)
    assert row["computed"] == pytest.approx(8.0, abs=1e-6)
    assert row["abs_difference"] > 4.0


def test_expand_subcommand(chsh_file, capsys):
    code, report = invoke(capsys, ["expand", "--matrix", chsh_file])
    assert code == 0
    expr = report["results"]["expression"]
    assert expr["identity"] == 4.0
    assert expr["commutators"] == [[[0, 1], [0, 1], -1.0]]
    assert expr["anticommutators"] == []
    assert report["results"]["norm_bound"] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )


def test_expand_commuting_drops_commutators(tensor_file, capsys):
    code, report = invoke(
        capsys, ["expand", "--matrix", tensor_file, "--commuting"]
    )
    assert code == 0
    assert report["results"]["norm_bound"] == 8.0
    assert report["results"]["expression"]["commutators"] == []
    assert len(report["results"]["expression"]["anticommutators"]) == 12


@pytest.mark.parametrize("name", [cli._SPLICE, f'x{cli._SPLICE}"\u00e9.json'],
                         ids=["marker", "marker-quote-accent"])
def test_expand_splice_survives_a_path_holding_the_marker(
    name, tmp_path, monkeypatch, capsys
):
    # The echoed path holds the placeholder's text (as a whole JSON string in
    # the first case); only the placeholder in the results is replaced.
    monkeypatch.chdir(tmp_path)
    with open(name, "wb") as handle:
        save_matrix(tensor_power(2), handle)
    code, report = invoke(capsys, ["expand", "--matrix", name, "--commuting"])
    assert code == 0
    assert report["inputs"]["matrix"] == name
    expected = square_bell_operator(tensor_power(2)).assuming_commuting()
    assert report["results"]["expression"] == expected.to_json_dict()


def test_estimate_normalized(capsys):
    code, report = invoke(capsys, ["estimate", "--d", "2", "--normalized"])
    assert code == 0
    assert report["results"]["estimate"] == pytest.approx(1.5811388, abs=1e-6)
    labels = [row["label"] for row in report["reference_comparison"]]
    assert any("1.58" in str(row["reference"]) or row["reference"] == 1.58
               for row in report["reference_comparison"])
    assert any("limit" in label for label in labels)


def test_estimate_raw_bounds(capsys):
    code, report = invoke(capsys, ["estimate", "--d", "2"])
    assert code == 0
    assert report["results"]["bound"] == pytest.approx(
        4.0 * math.sqrt(10.0), abs=1e-12
    )
    code, report = invoke(capsys, ["estimate", "--d", "2", "--commuting"])
    assert code == 0
    assert report["results"]["bound"] == 8.0


def test_estimate_domain_error_exit_code(capsys):
    code = run(["estimate", "--d", "1", "--commuting"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


@pytest.mark.parametrize(
    "argv", [["--d", "341"], ["--d", "342", "--commuting"], ["--d", "512"]]
)
def test_estimate_past_a_double_exits_3(capsys, argv):
    # These printed "bound":Infinity, which is not JSON, or an OverflowError.
    code = run(["estimate", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "range" in captured.err


def test_realize_subcommand(chsh_file, tmp_path, capsys):
    out = str(tmp_path / "real.json")
    code, report = invoke(
        capsys, ["realize", "--matrix", chsh_file, "--seed", "0", "--out", out]
    )
    assert code == 0
    results = report["results"]
    assert results["bell_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert results["value_error"] <= 1e-9
    assert results["max_correlation_error"] <= 1e-10
    with open(out, encoding="utf-8") as handle:
        dump = json.load(handle)
    assert dump["hilbert_dimension"] == 2
    assert dump["sites"] == {"x": 2, "y": 2}


def test_realize_odd_rank_gaussian(tmp_path, capsys):
    # Gram rank 9 fits on four qubits: the ladder closes with Z^(x)4.
    path = str(tmp_path / "gauss9.json")
    entries = np.random.default_rng(9).standard_normal((9, 9))
    with open(path, "wb") as handle:
        save_matrix(CoefficientMatrix(entries), handle)
    out = str(tmp_path / "real.json")
    code, report = invoke(
        capsys, ["realize", "--matrix", path, "--seed", "0", "--out", out]
    )
    assert code == 0
    results = report["results"]
    assert results["hilbert_dimension"] == 16
    assert results["value_error"] <= 1e-9
    assert results["max_correlation_error"] <= 1e-10
    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["hilbert_dimension"] == 16


def test_realize_size_guard_exit_code(tmp_path, capsys):
    # 1000 + 12 observables at D = 64 used to write a 62.5 MB file.
    path = str(tmp_path / "tall.json")
    entries = np.random.default_rng(0).standard_normal((1000, 12))
    with open(path, "wb") as handle:
        save_matrix(CoefficientMatrix(entries), handle)
    out = tmp_path / "real.json"
    code = run(["realize", "--matrix", path, "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "limit" in captured.err
    assert not out.exists()


def gaussian_file(tmp_path, n, m, seed):
    path = str(tmp_path / f"gauss{n}x{m}.json")
    entries = np.random.default_rng(seed).standard_normal((n, m))
    with open(path, "wb") as handle:
        save_matrix(CoefficientMatrix(entries), handle)
    return path


@pytest.mark.parametrize("n, dim", [(13, 64), (15, 128)])
def test_realize_past_twelve_generators(tmp_path, capsys, n, dim):
    # A cap of 12 generators refused these although the entry budget admits
    # them: (13 + 13) * 64^2 and (15 + 15) * 128^2 entries are within 2^19.
    out = tmp_path / "real.json"
    code, report = invoke(capsys, [
        "realize", "--matrix", gaussian_file(tmp_path, n, n, n), "--seed", "601",
        "--out", str(out),
    ])
    assert code == 0
    results = report["results"]
    assert results["hilbert_dimension"] == dim
    assert results["max_correlation_error"] <= 1e-12
    assert results["value_error"] <= 1e-9
    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["hilbert_dimension"] == dim


@pytest.mark.parametrize("n, m", [(1000, 12), (256, 256)])
def test_realize_refuses_before_solving(tmp_path, capsys, monkeypatch, n, m):
    # Both used to pay for a full quantum_bound solve before the refusal.
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the size guard")

    path = gaussian_file(tmp_path, n, m, 0)
    monkeypatch.setattr(cli, "quantum_bound", unreachable)
    out = tmp_path / "real.json"
    code = run(["realize", "--matrix", path, "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "entries, more than the 524288-entry limit" in captured.err
    assert not out.exists()


def test_quantum_refuses_huge_restarts_before_spawning(chsh_file, capsys, monkeypatch):
    # restarts=10**8 would spawn every child seed first: about 38 GB.
    monkeypatch.setattr(quantum.np.random, "SeedSequence", Unspawnable)
    code = run(["quantum", "--matrix", chsh_file, "--restarts", "100000000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "100000000 restarts exceed the limit" in captured.err


@pytest.fixture(scope="module")
def tall_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tall") / "tall.json")
    entries = np.random.default_rng(0).standard_normal((524287, 1))
    with open(path, "wb") as handle:
        save_matrix(CoefficientMatrix(entries), handle)
    return path


@pytest.mark.parametrize("command", ["quantum", "realize"])
def test_quantum_size_guard_exit_code(command, tall_file, tmp_path, capsys):
    # A Gaussian 524287 x 1 once died asking for a 2 TiB certificate matrix.
    out = tmp_path / "real.json"
    argv = [command, "--matrix", tall_file]
    code = run(argv + (["--out", str(out)] if command == "realize" else []))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "limit" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("family", ["chsh", "gauss8"])
def test_realize_out_matches_json_dump(family, chsh_file, tmp_path, capsys):
    # realize --out writes with json.dumps; the bytes must equal json.dump's.
    if family == "chsh":
        path = chsh_file
    else:
        path = str(tmp_path / "gauss8.json")
        entries = np.random.default_rng(8).standard_normal((8, 8))
        with open(path, "wb") as handle:
            save_matrix(CoefficientMatrix(entries), handle)
    out = tmp_path / "real.json"
    code, _ = invoke(
        capsys, ["realize", "--matrix", path, "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    with open(path, "rb") as handle:
        matrix = load_matrix(handle)
    primal = quantum_bound(matrix, seed=0).primal
    expected = io.StringIO()
    json.dump(realization_to_json(realize(matrix, primal)), expected)
    assert out.read_text(encoding="utf-8") == expected.getvalue()


def test_every_subcommand_prints_one_compact_line(chsh_file, tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    commands = [
        ["generate", "--family", "chsh", "--out", str(tmp_path / "m.json")],
        ["classical", "--matrix", chsh_file],
        ["quantum", "--matrix", chsh_file, "--seed", "1"],
        ["expand", "--matrix", chsh_file],
        ["estimate", "--d", "2", "--normalized"],
        ["realize", "--matrix", chsh_file, "--out", str(tmp_path / "r.json")],
        ["search", "--n", "2", "--m", "2", "--iters", "5", "--ledger", ledger],
        ["report", "--ledger", ledger],
    ]
    for argv in commands:
        code, report = invoke(capsys, argv)  # checks the line format
        assert code == 0
        assert report["command"] == argv[0]


def test_search_and_report(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    code, report = invoke(
        capsys,
        ["search", "--n", "2", "--m", "2", "--iters", "40", "--seed", "3",
         "--ledger", ledger],
    )
    assert code == 0
    assert report["results"]["best"]["ratio"] >= 1.0 - 1e-9

    code, summary = invoke(capsys, ["report", "--ledger", ledger])
    assert code == 0
    assert summary["results"]["count"] >= 1
    assert summary["results"]["best"]["ratio"] == pytest.approx(
        report["results"]["best"]["ratio"]
    )


@pytest.mark.parametrize("argv", [["--n", "13", "--m", "2", "--iters", "5"],
                                  ["--n", "2", "--m", "2", "--iters", "0"],
                                  ["--n", "2", "--m", "2", "--iters", "5", "--seed", "-1"]],
                         ids=["size", "budget", "seed"])
def test_refused_search_leaves_the_ledger_alone(tmp_path, capsys, argv):
    # A refused search used to create an empty ledger file.
    ledger = tmp_path / "ledger.jsonl"
    assert run(["search"] + argv + ["--ledger", str(ledger)]) == 3
    assert not ledger.exists()
    ledger.write_bytes(b"kept bytes\n")
    assert run(["search"] + argv + ["--ledger", str(ledger)]) == 3
    assert ledger.read_bytes() == b"kept bytes\n"
    assert capsys.readouterr().out == ""


def test_identical_invocations_identical_reports(capsys):
    run(["estimate", "--d", "4", "--normalized"])
    first = capsys.readouterr().out
    run(["estimate", "--d", "4", "--normalized"])
    second = capsys.readouterr().out
    assert first == second


def test_inputs_echo_every_parsed_argument(chsh_file, tmp_path, capsys):
    # A new flag cannot be left out of the report's inputs.
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    ledger = str(tmp_path / "runs.jsonl")
    argvs = {
        "generate": ["--family", "chsh", "--out", str(tmp_path / "g.json")],
        "classical": ["--matrix", chsh_file],
        "quantum": ["--matrix", chsh_file],
        "expand": ["--matrix", chsh_file],
        "estimate": ["--d", "2"],
        "realize": ["--matrix", chsh_file, "--out", str(tmp_path / "r.json")],
        "search": ["--n", "2", "--m", "2", "--iters", "2", "--ledger", ledger],
        "report": ["--ledger", ledger],
    }
    assert set(argvs) == set(sub.choices)
    for command, argv in argvs.items():
        code, report = invoke(capsys, [command] + argv)
        assert code == 0
        dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        assert set(report["inputs"]) == dests | {"seed"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["quantum", "--bogus-flag"])
    assert info.value.code == 2


def test_size_guard_exit_code(tmp_path, capsys):
    path = str(tmp_path / "never.json")
    code = run(["generate", "--family", "tensor", "--d", "13", "--out", path])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


def test_generate_refuses_an_order_no_command_accepts(tmp_path, capsys):
    # generate --d 12 used to write a 90 MB file near a 1 GB peak.
    path = tmp_path / "never.json"
    code = run(["generate", "--family", "tensor", "--d", "11", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "between 1 and 10" in captured.err
    assert not path.exists()


def test_expand_size_guard_exit_code(tmp_path, capsys):
    # 33 observables per site is one past the expansion cap.
    path = str(tmp_path / "big.json")
    entries = np.random.default_rng(33).integers(-1, 2, (33, 33))
    with open(path, "wb") as handle:
        save_matrix(CoefficientMatrix(entries), handle)
    code = run(["expand", "--matrix", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "cap" in captured.err


def test_missing_file_exit_code(capsys):
    code = run(["classical", "--matrix", "/nonexistent/matrix.json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


def test_strict_flags_non_convergence(chsh_file, capsys):
    code, report = invoke(
        capsys,
        ["quantum", "--matrix", chsh_file, "--restarts", "1", "--max-iters", "1",
         "--tol", "1e-15", "--strict"],
    )
    assert code == 4
    assert report["results"]["converged"] is False


def test_negative_sweep_budget_exit_code(chsh_file, capsys):
    # Used to exit 1 with a traceback from np.empty in the sweeps.
    code = run(["quantum", "--matrix", chsh_file, "--max-iters", "-1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "max_iters" in captured.err
    code, _ = invoke(capsys, ["quantum", "--matrix", chsh_file, "--max-iters", "0"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["quantum", "--seed", "-1"],
    ["realize", "--seed", "-1", "--out", "F"],
    ["quantum", "--tol", "nan", "--cert-out", "F"],
    ["quantum", "--tol", "inf", "--cert-out", "F"],
    ["quantum", "--tol", "-1", "--cert-out", "F"],
    ["estimate", "--d", "1"],
], ids=["quantum-seed", "realize-seed", "tol-nan", "tol-inf", "tol-negative", "estimate-d1"])
def test_out_of_domain_arguments_exit_3(chsh_file, tmp_path, capsys, argv):
    # Seeds used to exit 1 with numpy's traceback, tol printed NaN or
    # Infinity or ran the whole budget, and estimate --d 1 warned and printed 4.
    out = tmp_path / "F"
    argv = [str(out) if arg == "F" else arg for arg in argv]
    if argv[0] != "estimate":
        argv += ["--matrix", chsh_file]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_huge_sweep_budget_exit_code(chsh_file, capsys):
    # Used to exit 1 with a traceback: the sweeps preallocated 2 * 10**9 floats.
    code, report = invoke(capsys, ["quantum", "--matrix", chsh_file, "--max-iters", "1000000000"])
    assert code == 0
    assert report["results"]["converged"]


@pytest.mark.parametrize(
    "line, cause",
    [("not json", "JSONDecodeError"), ('{"n": 2}', "KeyError")]
    + [pytest.param(*case, id=name) for name, case in ODD_LEDGER_LINES.items()],
)
def test_malformed_ledger_line_exit_code(tmp_path, capsys, line, cause):
    # Each line used to exit 1 with a traceback from record_from_json.
    ledger = tmp_path / "bad.jsonl"
    ledger.write_text(line + "\n", encoding="utf-8")
    code = run(["report", "--ledger", str(ledger)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert repr(line) in captured.err
    assert cause in captured.err


@pytest.mark.parametrize(
    "ratio, classical, objective, cause", FORGED_LEDGER_LINES, ids=["ratio", "zero"]
)
def test_forged_ledger_ratio_exit_code(tmp_path, capsys, ratio, classical, objective, cause):
    ledger = tmp_path / "forged.jsonl"
    ledger.write_text(ledger_line(ratio, classical, objective) + "\n", encoding="utf-8")
    code = run(["report", "--ledger", str(ledger)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert cause in captured.err


def test_quantum_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["quantum", "--matrix", "m.json"])
    assert (args.restarts, args.max_iters, args.tol) == (
        quantum.DEFAULT_RESTARTS,
        quantum.DEFAULT_MAX_ITERS,
        quantum.DEFAULT_TOL,
    )


def test_module_entry_point(tmp_path):
    # one end-to-end process run through python -m
    result = subprocess.run(
        [sys.executable, "-m", "bellbound", "estimate", "--d", "2", "--normalized"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["command"] == "estimate"
    assert report["results"]["estimate"] == pytest.approx(1.5811388, abs=1e-6)


@pytest.mark.parametrize(
    "entries, command",
    [
        # 10**400 used to exit 1 with OverflowError from the loader.
        ("1" + "0" * 400, "classical"),
        # Finite entries whose sum overflows: classical printed "bound":Infinity
        # (not JSON) and quantum exited 1 from eigvalsh.
        ("1e308, 1e308", "classical"),
        ("1e308, 1e308", "quantum"),
    ],
)
def test_out_of_range_matrix_exit_code(tmp_path, capsys, entries, command):
    path = tmp_path / "huge.json"
    cols = entries.count(",") + 1
    path.write_text(f'{{"rows": 1, "cols": {cols}, "entries": [[{entries}]]}}')
    code = run([command, "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error" in captured.err


def _python(args, blas_threads):
    # A fresh interpreter with OPENBLAS_NUM_THREADS unset or set.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable] + args, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_one_blas_thread_by_default():
    # OpenBLAS used to start one spinning worker per extra core.
    probe = ("import os, bellbound.cli; "
             "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert _python(["-c", probe], None).split() == ["1", "1"]
    # A value the caller set is kept.
    assert _python(["-c", probe], "2").split()[1] == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_test_process_runs_one_blas_thread():
    # The test modules load numpy before bellbound, so tests/conftest.py
    # pins the thread count; unpinned, this matmul leaves a worker per core.
    np.ones((64, 64)) @ np.ones((64, 64))
    assert len(os.listdir("/proc/self/task")) == 1


def test_quantum_report_independent_of_blas_threads(tmp_path):
    # On 2 CPUs the 128x128 min_eigenvalue used to differ in its last digits
    # between the default thread count and OPENBLAS_NUM_THREADS=1.
    path = tmp_path / "gauss128.json"
    with open(path, "wb") as f:
        save_matrix(CoefficientMatrix(np.random.default_rng(0).standard_normal((128, 128))), f)
    argv = ["-m", "bellbound", "quantum", "--seed", "601", "--matrix", str(path)]
    assert _python(argv, None) == _python(argv, "1")
