"""Command-line contract: parsing, outputs, exit codes, determinism."""

import cmath
import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entsup
from entsup import linops, quantifiers, sdpcore
from entsup.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    StateFileError,
    _consume_sweep,
    load_state_file,
    main,
    parse_state_document,
)
from entsup.linops import single_cut_partitions
from entsup.qstate import Ket, Register, basis_ket, density, ghz, qubit_register
from entsup.quantifiers import (
    QuantifierConfig,
    RobustnessBounds,
    pt_profile,
    rg_lower_pure,
    rg_lower_via_witness,
    rg_ppt_sdp,
)
from entsup.sdpcore import MAX_DIMENSION, SolverFailureError
from entsup.supbound import BoundViolationError, SweepColumns, sweep_blocks
from entsup.witnesses import DEFAULT_SEED

from conftest import ket_to_state_document, random_pure_amplitudes, traced_peak, unit_kets
from oracles import maxent_cut_witness, svd_spectra


def write_state(tmp_path, name, ket):
    path = tmp_path / name
    path.write_text(json.dumps(ket_to_state_document(ket)))
    return str(path)


def count_solves(monkeypatch):
    """Record (name, argument shape) of every later eigh, eigvalsh and svd call."""
    solves = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            solves.append((_name, a.shape))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return solves


def schmidt_oracle(ket):
    """Singular values of the amplitudes across each single cut, by plain numpy."""
    t = ket.amplitudes.reshape(ket.register.dims)
    return [
        np.linalg.svd(np.moveaxis(t, q, 0).reshape(ket.register.dims[q], -1), compute_uv=False)
        for q in range(ket.register.nsub)
    ]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_quantify_ghz3_negativity(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.0))
    code, report = run_cli(
        capsys, "quantify", path, "--quantifier", "negativity", "--partition", "0"
    )
    assert code == EXIT_OK
    entry = report["results"]["negativity"][0]
    assert entry["partition"] == [0]
    assert entry["value"] == pytest.approx(0.5, abs=1e-9)


def test_quantify_product_state_all_zero(tmp_path, capsys):
    doc = {"dims": [2, 2], "amplitudes": [{"basis": "01", "amp": [1.0, 0.0]}]}
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "quantify", str(path))
    assert code == EXIT_OK
    for entry in report["results"]["negativity"]:
        assert entry["value"] == pytest.approx(0.0, abs=1e-9)
    rob = report["results"]["robustness"]
    assert rob["lower"] == pytest.approx(0.0, abs=1e-9)
    assert rob["upper"] == pytest.approx(0.0, abs=1e-9)
    assert rob["ppt_sdp"] == pytest.approx(0.0, abs=1e-5)


def test_quantify_ghz4_robustness_sandwich(tmp_path, capsys):
    path = write_state(tmp_path, "ghz4.json", ghz(4, 0.0))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == EXIT_OK
    rob = report["results"]["robustness"]
    assert rob["lower"] == pytest.approx(1.0, abs=1e-9)
    assert rob["upper"] == pytest.approx(1.0, abs=1e-9)
    assert rob["upper_certified"] is True
    assert rob["ppt_sdp"] == pytest.approx(1.0, abs=1e-5)


def test_quantify_missing_file(capsys):
    code = main(["quantify", "/nonexistent/state.json"])
    assert code == EXIT_INPUT


def test_quantify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "amplitudes": [[1.0, 0.0]]}')
    assert main(["quantify", str(path)]) == EXIT_INPUT
    path.write_text("{not json")
    assert main(["quantify", str(path)]) == EXIT_INPUT
    good = write_state(tmp_path, "bell.json", ghz(2, 0.0))
    assert main(["quantify", good, "--seed", "1"]) == EXIT_INPUT  # flag removed
    capsys.readouterr()
    dense = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    bad_docs = [
        ('{"dims": [2.7, 2], "amplitudes": %s}' % json.dumps(dense), "dims"),
        ('{"dims": "22", "amplitudes": %s}' % json.dumps(dense), "dims"),
        ('{"dims": [2, 2], "amplitudes": [["a", 0], [0, 0], [0, 0], [0, 0]]}',
         r"amplitudes\[0\]"),
        ('{"dims": [2, 2], "amplitudes": [[1, 0], [NaN, 0], [0, 0], [0, 0]]}',
         r"amplitudes\[1\]"),
        ('{"dims": [2, 2], "amplitudes": [{"basis": "00", "amp": [1, 0]}, '
         '{"basis": "11", "amp": ["a", 0]}]}', r"amplitudes\[1\]"),
    ]
    for text, location in bad_docs:
        path.write_text(text)
        assert main(["quantify", str(path)]) == EXIT_INPUT
        error = json.loads(capsys.readouterr().err)["error"]
        assert re.match(rf"{re.escape(str(path))}: {location}", error), error
    # Bytes that are not UTF-8, and a ket too small to renormalize (norm^2 = 1e-14).
    tiny = [[1e-7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for content, reason in (
        (b"\xff\xfe{}", "not UTF-8 text"),
        (json.dumps({"dims": [2, 2], "amplitudes": tiny}).encode(), r"squared norm (\S+):"),
    ):
        path.write_bytes(content)
        assert main(["quantify", str(path)]) == EXIT_INPUT
        error = json.loads(capsys.readouterr().err)["error"]
        found = re.match(rf"{re.escape(str(path))}: {reason}", error)
        assert found, error
    assert float(found[1]) == pytest.approx(1e-14, rel=1e-12)


def test_ghz_saturation_command(capsys):
    code, report = run_cli(capsys, "ghz-saturation", "--n", "3", "--phi", "0.0")
    assert code == EXIT_OK
    body = report["results"]["report"]
    assert body["saturated"] is True
    assert abs(body["gap"]) <= 1e-6

    code, report = run_cli(capsys, "ghz-saturation", "--n", "2", "--phi", str(math.pi))
    assert code == EXIT_OK
    assert report["results"]["report"]["saturated"] is True


def test_ghz_saturation_violation_exit_code(monkeypatch, capsys):
    # The GHZ gap is about 0, so with the tolerance at -3 the bound reads violated.
    import entsup.cli as cli_mod

    monkeypatch.setattr(cli_mod.supbound, "VIOLATION_TOL", -3.0)
    code, report = run_cli(capsys, "ghz-saturation", "--n", "3")
    assert code == 5
    assert report["config"] == {"n": 3, "phi": 0.0}
    assert set(report["results"]) == {"error", "instance"}
    instance = report["results"]["instance"]
    assert list(instance) == ["dims", "psi", "phi", "a", "b", "k", "lhs", "rhs", "gap"]
    assert instance["dims"] == [2, 2, 2]
    assert instance["psi"] == [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    assert instance["phi"] == [[0.0, 0.0]] * 7 + [[1.0, 0.0]]
    assert instance["k"] == 1.0 and instance["gap"] == instance["rhs"] - instance["lhs"]


@pytest.mark.parametrize(
    "name, value",
    [
        ("l1_bound", lambda amplitudes: 2.0),  # the bounds do not meet
        ("REFLECTION_CLASS", (2.0, 2.0)),  # the cross term doubles: not saturated
    ],
)
def test_ghz_saturation_failure_exit_code(monkeypatch, capsys, name, value):
    import entsup.cli as cli_mod

    monkeypatch.setattr(cli_mod.supbound, name, value)
    code, report = run_cli(capsys, "ghz-saturation", "--n", "3")
    assert code == 4
    results = report["results"]
    assert set(results) == {"error", "lower", "upper"}
    assert results["lower"] == pytest.approx(1.0, abs=1e-12)
    assert results["upper"] == (2.0 if name == "l1_bound" else pytest.approx(1.0, abs=1e-12))


def test_ghz_saturation_usage_error(capsys):
    assert main(["ghz-saturation", "--n", "1"]) == EXIT_INPUT
    assert main(["ghz-saturation", "--n", "3", "--seed", "1"]) == EXIT_INPUT  # flag removed
    capsys.readouterr()
    for phi in ("nan", "inf"):
        assert main(["ghz-saturation", "--n", "3", "--phi", phi]) == EXIT_INPUT
        assert "--phi" in json.loads(capsys.readouterr().err)["error"]


def test_sweep_deterministic_csv(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        code, report = run_cli(
            capsys,
            "sweep",
            "--samples", "25",
            "--qubits", "2",
            "--seed", "7",
            "--csv", str(target),
        )
        assert code == EXIT_OK
        assert report["results"]["violations"] == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "index,abs_a,abs_b,lhs,rhs,gap"


# sha256 of the seed-1 sweep CSVs of 300 samples, as written with every
# one-qubit cut's Schmidt coefficients in closed form. The test below checks
# the same rows against one SVD per ket and cut.
SEED_1_CSV_SHA256 = {
    ("negativity", 2): "4a0d36a5c15ed259c751f9db31b853e83e463770ca9f420e204eb8223e25d0c4",
    ("negativity", 3): "26aa12cc869c3c00c4a37aa6bdbfe7776972c35288ac985664a2718f4b280327",
    ("negativity", 5): "4a5883eeb9f3c13dd61a9d1dc150d09ec72c2d3a2f6134e78009217e9a6c7758",
    ("robustness", 2): "fcfb50cf45cea02a973097eb6f512694d8cb7916e73be5968e4220c3c28d40c6",
    ("robustness", 3): "e92508e34391075dcdce628cbded3c5e3626686d7037b13f1ee459b6d289aafd",
    ("robustness", 5): "35fc6dde9f5cc65e07c82e626dca7386a67641db391fa872f661b08bb212b3e6",
}


def _seed_1_csv(tmp_path, capsys, quantifier, qubits):
    target = tmp_path / "rows.csv"
    code, _ = run_cli(
        capsys, "sweep", "--quantifier", quantifier, "--qubits", str(qubits),
        "--samples", "300", "--seed", "1", "--csv", str(target),
    )
    assert code == EXIT_OK
    return target


@pytest.mark.parametrize(("quantifier", "qubits"), sorted(SEED_1_CSV_SHA256))
def test_seed_1_sweep_csvs_are_pinned(tmp_path, capsys, quantifier, qubits):
    target = _seed_1_csv(tmp_path, capsys, quantifier, qubits)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SEED_1_CSV_SHA256[quantifier, qubits]


@pytest.mark.parametrize(("quantifier", "qubits"), sorted(SEED_1_CSV_SHA256))
def test_seed_1_sweep_rows_match_the_svd_oracle(tmp_path, capsys, monkeypatch, quantifier, qubits):
    # The draws and coefficients are exact; only the values read off Schmidt
    # coefficients (lhs, rhs, gap) may differ from the SVD route, by rounding.
    rows = np.loadtxt(_seed_1_csv(tmp_path, capsys, quantifier, qubits), delimiter=",", skiprows=1)
    monkeypatch.setattr(linops, "schmidt_spectra", svd_spectra)
    kind = "negativity" if quantifier == "negativity" else "generalized_robustness"
    blocks = sweep_blocks(QuantifierConfig(kind=kind), qubits, 300, 1)
    oracle = np.column_stack([np.concatenate(column) for column in zip(*blocks)])
    assert np.array_equal(rows[:, :3], oracle[:, :3])
    assert np.max(np.abs(rows[:, 3:] - oracle[:, 3:])) <= 1e-14


def test_a_wrong_bulk_seeding_is_not_an_input_error(tmp_path, monkeypatch):
    import entsup.cli as cli_mod

    bulk = cli_mod.supbound._pcg64_states

    def shifted(seed, indices):
        return [{**s, "state": {**s["state"], "state": s["state"]["state"] ^ 1}}
                for s in bulk(seed, indices)]

    monkeypatch.setattr(cli_mod.supbound, "_pcg64_states", shifted)
    target = tmp_path / "rows.csv"
    with pytest.raises(RuntimeError, match="differs from default_rng") as caught:
        main(["sweep", "--samples", "5", "--csv", str(target)])  # raised, not exit 2
    assert not isinstance(caught.value, (ValueError, BoundViolationError))
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor its .part file


def in_new_interpreter(*args):
    """Run ``python *args`` in a new interpreter that imports entsup from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(entsup.__file__))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def fresh_process(*argv):
    """Exit code, report without ``duration_s``, and stderr of ``entsup`` in a new interpreter."""
    done = in_new_interpreter("-m", "entsup.cli", *argv)
    return done.returncode, _without_duration(done.stdout), done.stderr


def _without_duration(out):
    report = json.loads(out) if out.strip() else None
    if report:
        del report["duration_s"]
    return report


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    import entsup.cli as cli_mod

    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.0))
    calls = [
        ("quantify", path, "--quantifier", "negativity", "--partition", "0"),
        ("quantify", path, "--quantifier", "negativity"),  # every single cut again
        ("sweep", "--samples", "many"),  # an argparse usage error
        ("sweep", "--samples", "5", "--qubits", "3", "--seed", "4"),
    ]
    main(["ghz-saturation", "--n", "2"])  # the parser exists before the calls
    capsys.readouterr()
    builds = cli_mod._parser.cache_info().misses
    seen = []
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        seen.append((code, _without_duration(captured.out), captured.err))
    assert cli_mod._parser.cache_info().misses == builds
    assert [code for code, _, _ in seen] == [EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK]
    assert [seen[i][1]["config"]["partitions"] for i in (0, 1)] == [[[0]], [[0], [1], [2]]]
    assert "invalid int value: 'many'" in seen[2][2]
    assert seen == [fresh_process(*argv) for argv in calls]


def test_importing_the_cli_builds_no_parser_and_loads_no_numpy_random():
    # The CLI's import time is a benchmark metric; numpy.random loads on the first draw,
    # and the one-qubit cuts' gather index is built on the first read of a cut.
    probe = (
        "import sys, entsup.cli as c; print('numpy.random' in sys.modules, "
        "c.linops._two_row_index.cache_info().currsize, c._parser.cache_info())"
    )
    done = in_new_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(" ", 2) == [
        "False", "0", "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)\n"
    ]


def test_importing_entsup_loads_no_scipy():
    # numpy is the one runtime dependency in pyproject.toml; scipy may be installed
    # alongside it, and an import of it would go unnoticed everywhere else.
    probe = "import sys, entsup, entsup.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = in_new_interpreter("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_sweep_csv_is_streamed(tmp_path):
    # Joined into one string, these 40 000 rows peaked at 14 MiB; written block
    # by block as they are formatted, the peak stays near one block's rows.
    rng = np.random.default_rng(5)
    values = rng.standard_normal((40_000, 5))

    def blocks():
        for start in range(0, len(values), 1000):
            rows = values[start : start + 1000]
            yield SweepColumns(np.arange(start, start + len(rows)), *rows.T)

    target = tmp_path / "rows.csv"
    gaps, peak = traced_peak(lambda: _consume_sweep(blocks(), str(target)))
    assert peak < 2**20
    np.testing.assert_array_equal(np.concatenate(gaps), values[:, 4])
    rows = [
        f"{i},{a!r},{b!r},{lhs!r},{rhs!r},{gap!r}"
        for i, (a, b, lhs, rhs, gap) in enumerate(values.tolist())
    ]
    expected = "\n".join(["index,abs_a,abs_b,lhs,rhs,gap"] + rows) + "\n"
    assert target.read_bytes() == expected.encode("utf-8")
    assert list(tmp_path.iterdir()) == [target]


def test_sweep_usage_error(tmp_path, capsys):
    assert main(["sweep", "--samples", "0"]) == EXIT_INPUT
    assert main(["sweep", "--samples", "5", "--threads", "4"]) == EXIT_INPUT  # flag removed
    assert main(["sweep", "--samples", "5", "--renormalize"]) == EXIT_INPUT  # flag removed
    assert main(["sweep", "--samples", "5", "--no-renormalize"]) == EXIT_INPUT  # flag removed
    capsys.readouterr()
    for qubits in ("1", "0"):
        assert main(["sweep", "--samples", "5", "--qubits", qubits]) == EXIT_INPUT
        assert "--qubits" in json.loads(capsys.readouterr().err)["error"]
    target = tmp_path / "rows.csv"
    assert main(["sweep", "--samples", "5", "--seed", "-1", "--csv", str(target)]) == EXIT_INPUT
    assert "--seed" in json.loads(capsys.readouterr().err)["error"]
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor its .part file


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_quantify_rejects_bad_tolerance(tmp_path, capsys, monkeypatch, value):
    import entsup.cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the SDP ran on a rejected tolerance")

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", unreachable)
    path = write_state(tmp_path, "bell.json", ghz(2, 0.0))
    for quantifier in ("negativity", "all"):
        code = main(["quantify", path, "--quantifier", quantifier, "--tolerance", value])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "--tolerance" in json.loads(captured.err)["error"]


def test_sweep_violation_exit_code(tmp_path, monkeypatch, capsys):
    # On two qubits every right side is at most (|a| + |b|)^2 <= 2, so with the
    # tolerance at -3 the first row violates, on the batched path itself.
    import entsup.cli as cli_mod

    monkeypatch.setattr(cli_mod.supbound, "VIOLATION_TOL", -3.0)
    target = tmp_path / "rows.csv"
    for quantifier, key in (("negativity", "partition"), ("robustness", "k")):
        code, report = run_cli(
            capsys, "sweep", "--quantifier", quantifier, "--samples", "5", "--csv", str(target)
        )
        assert code == 5
        instance = report["results"]["instance"]
        assert set(instance) == {
            "dims", "psi", "phi", "a", "b", key, "lhs", "rhs", "gap", "sample_index", "seed"
        }
        assert instance["sample_index"] == 0 and instance["seed"] == DEFAULT_SEED
        assert instance["gap"] == instance["rhs"] - instance["lhs"] < 3.0
        assert not target.exists() and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("quantifier", ["negativity", "robustness"])
def test_failed_sweep_reports_the_passed_config(monkeypatch, capsys, quantifier):
    import entsup.cli as cli_mod

    argv = ("sweep", "--quantifier", quantifier, "--qubits", "3", "--samples", "4", "--seed", "2")
    code, passed = run_cli(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.setattr(cli_mod.supbound, "VIOLATION_TOL", -3.0)
    code, failed = run_cli(capsys, *argv)
    assert code == 5
    assert failed["config"] == passed["config"] == passed["results"]["config"]
    assert list(failed["config"]) == ["kind", "qubits", "partitions"]
    assert failed["seed"] == passed["seed"] == 2


@pytest.mark.parametrize("quantifier", ["negativity", "robustness"])
def test_sweep_csv_and_violations_cross_block_boundaries(tmp_path, monkeypatch, capsys, quantifier):
    # With 8 amplitudes a block two qubits hold 2 samples, so 7 samples make
    # three full blocks and a partial last one.
    import entsup.cli as cli_mod

    argv = ("sweep", "--quantifier", quantifier, "--samples", "7", "--seed", "3")
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    code, single = run_cli(capsys, *argv, "--csv", str(whole))
    assert code == EXIT_OK
    monkeypatch.setattr(cli_mod.supbound, "SWEEP_BLOCK_AMPLITUDES", 8)
    code, report = run_cli(capsys, *argv, "--csv", str(blocked))
    assert code == EXIT_OK and report["results"] == single["results"]
    assert blocked.read_bytes() == whole.read_bytes()

    # Lower the tolerance so that the first row to fall below every earlier gap
    # after the first block is the first violation.
    rows = [line.split(",") for line in whole.read_text().splitlines()[1:]]
    gaps = [float(row[5]) for row in rows]
    first = next(i for i in range(4, len(gaps)) if gaps[i] < min(gaps[:i]))
    monkeypatch.setattr(cli_mod.supbound, "VIOLATION_TOL", -min(gaps[:first]))
    target = tmp_path / "violated.csv"
    code, report = run_cli(capsys, *argv, "--csv", str(target))
    assert code == 5
    instance = report["results"]["instance"]
    assert instance["sample_index"] == int(rows[first][0]) >= 2
    assert instance["gap"] == gaps[first]
    if quantifier == "negativity":
        assert instance["partition"] == [first % 2]
    assert not target.exists() and sorted(tmp_path.iterdir()) == [blocked, whole]


def test_sweep_unwritable_csv_fails_before_sampling(tmp_path, monkeypatch, capsys):
    import entsup.cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was drawn for an unwritable --csv")

    monkeypatch.setattr(cli_mod.supbound, "_draw_block", unreachable)
    target = tmp_path / "no" / "such" / "dir" / "rows.csv"
    code = main(["sweep", "--samples", "5", "--csv", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert str(target) in error and "No such file or directory" in error


def test_sweep_csv_move_failure_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    # The rows are all written; moving PATH.part onto PATH fails as on a full disk.
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full_disk)
    target = tmp_path / "rows.csv"
    target.write_text("old rows\n")
    code = main(["sweep", "--samples", "5", "--csv", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert json.loads(captured.err)["error"] == f"--csv {target}: No space left on device"
    assert list(tmp_path.iterdir()) == [target]  # no rows.csv.part
    assert target.read_text() == "old rows\n"


def test_the_module_entry_point_keeps_the_exit_code_contract(tmp_path):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.0))
    done = in_new_interpreter("-m", "entsup.cli", "quantify", path)
    assert done.returncode == EXIT_OK and done.stderr == ""
    [line] = done.stdout.splitlines()
    assert json.loads(line)["results"]["negativity"][0]["value"] == pytest.approx(0.5)
    missing = str(tmp_path / "missing.json")
    done = in_new_interpreter("-m", "entsup.cli", "quantify", missing)
    assert done.returncode == EXIT_INPUT and done.stdout == ""
    assert missing in json.loads(done.stderr)["error"]


def test_quantify_solver_failure_partial_results(tmp_path, monkeypatch, capsys):
    import entsup.cli as cli_mod

    def stall(*args, **kwargs):
        raise SolverFailureError("stopped at max_iter", best_value=0.97)

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", stall)
    # W3's bracket is open (lower 2 sqrt(2)/3, upper 2), so the solver is reached.
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / math.sqrt(3)
    path = write_state(tmp_path, "w3.json", Ket(qubit_register(3), amps))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == 3
    rob = report["results"]["robustness"]
    assert rob["ppt_sdp"] is None
    assert rob["ppt_sdp_best"] == 0.97
    assert rob["exact"] is False
    assert rob["lower"] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)  # partial results intact


def test_rg_ppt_sdp_failure_carries_the_best_primal(tmp_path, monkeypatch, capsys):
    # 25 iterations leave this state at a gap of about 0.03, far from 1e-12, so
    # rg_ppt_sdp itself raises. (Bell is certified to 1e-15 within 25.)
    monkeypatch.setattr(sdpcore, "MAX_ITERATIONS", 25)
    rng = np.random.default_rng([7, 3, 0])
    ket = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    parts = single_cut_partitions(ket.register)
    stopped = sdpcore.solve(sdpcore.build_robustness_sdp(ket, parts), tol=1e-12)
    assert stopped.status == "max_iter"
    with pytest.raises(SolverFailureError) as failure:
        rg_ppt_sdp(ket, parts, tol=1e-12)
    assert failure.value.best_value == stopped.primal_value
    path = write_state(tmp_path, "random3.json", ket)
    code, report = run_cli(
        capsys, "quantify", path, "--quantifier", "robustness", "--tolerance", "1e-12"
    )
    assert code == EXIT_SOLVER
    rob = report["results"]["robustness"]
    assert rob["ppt_sdp"] is None and rob["ppt_sdp_best"] == stopped.primal_value


def test_quantify_renormalizes_a_scaled_state(tmp_path, capsys):
    # Dyadic amplitudes with squared norm exactly 1, so halving the doubled
    # file's amplitudes gives back the unit file's amplitudes bit for bit.
    unit = Ket(qubit_register(3), [0.5, 0.5j, -0.25, 0.25, 0.25j, 0.25, 0.0, -0.5])
    doubled_ket = Ket(unit.register, 2 * unit.amplitudes)
    reports = []
    for name, ket in (("unit.json", unit), ("doubled.json", doubled_ket)):
        code, report = run_cli(capsys, "quantify", write_state(tmp_path, name, ket))
        assert code == EXIT_OK
        reports.append(report)
    unit_report, doubled = reports
    assert unit_report["config"]["renormalized_input"] is False
    assert doubled["config"]["renormalized_input"] is True
    for old, new in zip(unit_report["results"]["negativity"], doubled["results"]["negativity"]):
        assert new["partition"] == old["partition"]
        assert new["value"] == pytest.approx(old["value"], abs=1e-12)
    rob, old_rob = doubled["results"]["robustness"], unit_report["results"]["robustness"]
    assert list(rob) == list(old_rob)
    for key in ("lower", "upper", "ppt_sdp"):
        assert rob[key] == pytest.approx(old_rob[key], abs=1e-12)


@pytest.mark.parametrize(
    ("document", "argv", "message"),
    [
        ([[1.0, 0.0]] * 4, [], "expected an object with dims and amplitudes"),
        ({"dims": [2, 2], "amplitudes": []}, [], "amplitudes must be a nonempty list"),
        (
            {"dims": [2, 2], "amplitudes": [{"basis": "00", "amp": [1, 0]}, {"basis": "11"}]},
            [],
            "amplitudes[1]: need basis and amp",
        ),
        (None, ["--partition", "a"], "bad partition 'a'"),
        # An amplitude is a list of two real numbers: no string, bool, or other 2-iterable.
        ({"dims": [2], "amplitudes": [[0.6, 0.0], "10"]}, [], "amplitudes[1]: need an [re, im]"),
        ({"dims": [2], "amplitudes": [[True, False], [0.0, 0.0]]}, [], "amplitudes[0]: need"),
        ({"dims": [2], "amplitudes": [["0.6", "0"], [0.8, 0.0]]}, [], "amplitudes[0]: need"),
        ({"dims": [2], "amplitudes": [[0.6, 0.0], {"re": 0.8}]}, [], "amplitudes[1]: need"),
        (
            {"dims": [2], "amplitudes": [{"basis": "0", "amp": "10"}]},
            [],
            "amplitudes[0]: need an [re, im]",
        ),
        (
            {
                "dims": [2],
                "amplitudes": [{"basis": "0", "amp": [0.6, 0]}, {"basis": "1", "amp": [0.8, False]}],
            },
            [],
            "amplitudes[1]: need",
        ),
        (
            {"dims": [2], "amplitudes": [{"basis": "1", "amp": ["0.8", 0]}]},
            [],
            "amplitudes[0]: need",
        ),
        # A basis label is a JSON string: the number 11 does not read as |11>.
        (
            {
                "dims": [2, 2],
                "amplitudes": [{"basis": "00", "amp": [0.6, 0]}, {"basis": 11, "amp": [1, 0]}],
            },
            [],
            "amplitudes[1]: basis must be a string of digits, got 11",
        ),
        (
            {"dims": [2], "amplitudes": [{"basis": ["1"], "amp": [1, 0]}]},
            [],
            "amplitudes[0]: basis must be a string",
        ),
    ],
)
def test_quantify_parse_errors_name_their_source(tmp_path, capsys, document, argv, message):
    path = tmp_path / "state.json"
    if document is None:
        document = ket_to_state_document(ghz(2, 0.0))
    path.write_text(json.dumps(document))
    code = main(["quantify", str(path), *argv])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert message in error
    if not argv:
        assert error.startswith(f"{path}: ")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])


@st.composite
def _kets(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    reg = Register(dims)
    parts = st.one_of(_finite, _edge)
    pairs = draw(st.lists(st.tuples(parts, parts), min_size=reg.size, max_size=reg.size))
    amps = np.array([complex(re, im) for re, im in pairs])
    assume(np.any(amps))
    return Ket(reg, amps)


@given(ket=_kets())
@settings(max_examples=200, deadline=None)
def test_state_document_round_trip_is_identity(ket):
    doc = json.loads(json.dumps(ket_to_state_document(ket)))
    back = parse_state_document(doc)
    assert back.register == ket.register
    assert back.amplitudes.tobytes() == ket.amplitudes.tobytes()  # -0.0 kept too


_part = st.one_of(_finite, _edge, st.integers(-(2**1023), 2**1023))


@given(pairs=st.lists(st.tuples(_part, _part), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_dense_lists_convert_in_bulk_as_the_loop_does(pairs):
    # Tuple entries, as Python callers may pass them, take the per-entry loop;
    # the same values as JSON lists take the bulk conversion. Both give the same bits.
    assume(any(re or im for re, im in pairs))
    bulk = parse_state_document({"dims": [2] * 4, "amplitudes": [list(p) for p in pairs]})
    loop = parse_state_document({"dims": [2] * 4, "amplitudes": pairs})
    want = np.array([complex(float(re), float(im)) for re, im in pairs])
    assert bulk.amplitudes.tobytes() == loop.amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("pos", [0, 199, 255])
@pytest.mark.parametrize(
    "bad",
    ["true", "[true, 0.0]", '"1"', "null", "[1.0, 0.0, 0.0]", "[[1.0], 0.0]", "[NaN, 0.0]",
     "[0.0, Infinity]", f"[{2**1100}, 0.0]"],
)
def test_dense_lists_name_their_first_bad_entry(pos, bad):
    entries = ["[0.0625, 0.0]"] * 256
    entries[pos] = bad
    doc = json.loads(f'{{"dims": {[2] * 8}, "amplitudes": [{", ".join(entries)}]}}')
    with pytest.raises(StateFileError) as err:
        parse_state_document(doc, where="s.json")
    assert str(err.value) == (
        f"s.json: amplitudes[{pos}]: need an [re, im] pair of finite numbers, "
        f"got {json.loads(bad)!r}"
    )


def test_state_round_trip(tmp_path, rng):
    reg = qubit_register(3)
    ket = Ket(reg, random_pure_amplitudes(rng, 8))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(ket_to_state_document(ket)))
    back = load_state_file(str(path))
    assert back.register == reg
    assert np.array_equal(back.amplitudes, ket.amplitudes)


def test_sparse_state_document():
    doc = {
        "dims": [2, 2, 2],
        "amplitudes": [
            {"basis": "000", "amp": [1 / math.sqrt(2), 0.0]},
            {"basis": "111", "amp": [0.0, 1 / math.sqrt(2)]},
        ],
    }
    ket = parse_state_document(doc)
    assert ket.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert ket.amplitudes[7] == pytest.approx(1j / math.sqrt(2))


def test_sparse_state_document_errors(tmp_path):
    with pytest.raises(ValueError):
        parse_state_document(
            {"dims": [2, 2], "amplitudes": [{"basis": "02", "amp": [1, 0]}]}
        )
    with pytest.raises(ValueError):
        parse_state_document(
            {"dims": [2, 2], "amplitudes": [{"basis": "0", "amp": [1, 0]}]}
        )
    with pytest.raises(ValueError):
        parse_state_document({"dims": [2], "amplitudes": [[0.0, 0.0], [0.0, 0.0]]})
    for dims in ([2.7, 2], "22", [2, True]):
        with pytest.raises(StateFileError, match=r"^s\.json: dims must be a list of integers"):
            parse_state_document({"dims": dims, "amplitudes": [[1, 0]] * 4}, where="s.json")
    for bad in (["a", 0], [float("nan"), 0], [0, float("inf")], [1], None):
        for doc in (
            {"dims": [2], "amplitudes": [[0.6, 0.0], bad]},
            {"dims": [2], "amplitudes": [{"basis": "0", "amp": [0.6, 0]},
                                         {"basis": "1", "amp": bad}]},
        ):
            with pytest.raises(StateFileError, match=r"^s\.json: amplitudes\[1\]: "):
                parse_state_document(doc, where="s.json")
    for second in ("0x", "00"):  # a non-digit label, then a repeated label
        doc = {
            "dims": [2, 2],
            "amplitudes": [
                {"basis": "00", "amp": [0.6, 0.0]},
                {"basis": second, "amp": [0.8, 0.0]},
            ],
        }
        with pytest.raises(StateFileError, match=r"^s\.json: amplitudes\[1\]: "):
            parse_state_document(doc, where="s.json")
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        assert main(["quantify", str(path)]) == EXIT_INPUT


def test_quantify_negativity_solves_each_cut_once(tmp_path, capsys, monkeypatch, rng):
    path = write_state(
        tmp_path, "q3.json", Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    )
    solves = count_solves(monkeypatch)
    code, _ = run_cli(capsys, "quantify", path, "--quantifier", "negativity")
    assert code == EXIT_OK
    # Each cut splits off one qubit, so its two Schmidt coefficients come in closed
    # form from the two rows of the 2 x 4 amplitude matrix: no SVD and no eigensolve.
    assert solves == []


def test_negativity_sweep_solves_no_register_sized_matrix(capsys, monkeypatch):
    # Every sweep cut splits off one qubit: its Schmidt coefficients come in closed
    # form and its witness norm from the one pair-graph edge, so no block solves
    # anything, whether its rows are gathered in one chunk (few samples), in
    # several (many), or read in place (13 qubits, above GATHER_LIMIT).
    solves = count_solves(monkeypatch)
    for qubits, samples in [*itertools.product((2, 3), (5, 50, 5000)), (13, 2)]:
        code, _ = run_cli(capsys, "sweep", "--qubits", str(qubits), "--samples", str(samples))
        assert code == EXIT_OK
        assert solves == [], (qubits, samples)


def test_oversized_registers_are_refused_before_allocation(tmp_path, capsys):
    sparse = tmp_path / "wide.json"
    sparse.write_text(json.dumps(
        {"dims": [2] * 30, "amplitudes": [{"basis": "0" * 30, "amp": [1.0, 0.0]}]}
    ))
    for argv in (
        ["sweep", "--qubits", "21", "--samples", "1"],
        ["sweep", "--quantifier", "robustness", "--qubits", "1000000000", "--samples", "1"],
        ["sweep", "--qubits", "3", "--samples", "100000000"],
        ["ghz-saturation", "--n", "21"],
        ["quantify", str(sparse)],
    ):
        code, peak = traced_peak(lambda: main(argv))
        captured = capsys.readouterr()
        assert code == EXIT_INPUT, argv
        assert peak < 2**20, (argv, peak)
        assert "exceeds the limit" in json.loads(captured.err)["error"], argv


def test_report_is_json_with_metadata(tmp_path, capsys):
    # Only the sweep draws random numbers, so only its report carries a seed.
    path = write_state(tmp_path, "bell.json", ghz(2, 0.0))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "negativity")
    assert code == EXIT_OK
    assert report["command"] == "quantify"
    assert report["version"]
    assert "seed" not in report and "duration_s" in report
    code, report = run_cli(capsys, "ghz-saturation", "--n", "3")
    assert code == EXIT_OK and "seed" not in report
    code, report = run_cli(capsys, "sweep", "--samples", "2", "--seed", "7")
    assert code == EXIT_OK and report["seed"] == 7


def _w_state_in_local_frame(rng, n):
    """W_n with a Haar unitary on every qubit and the qubits permuted."""
    amps = np.zeros(2**n, dtype=complex)
    amps[[2**q for q in range(n)]] = 1 / math.sqrt(n)
    t = amps.reshape((2,) * n)
    for q in range(n):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
    t = t.transpose(rng.permutation(n))
    return Ket(qubit_register(n), np.ascontiguousarray(t).reshape(-1))


def test_lower_witness_cut_ties_keep_the_lowest_cut(tmp_path, capsys):
    # Every single cut of a W state has the same Schmidt coefficients, so the
    # witness values tie up to rounding and the report must name cut [0].
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for _ in range(8):
            ket = _w_state_in_local_frame(rng, n)
            lower, cut = rg_lower_pure(ket)
            assert cut == [0]
            assert lower == pytest.approx((math.sqrt(1 - 1 / n) + math.sqrt(1 / n)) ** 2 - 1)
    path = write_state(tmp_path, "w3.json", _w_state_in_local_frame(rng, 3))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == EXIT_OK
    assert report["results"]["robustness"]["lower_witness_cut"] == [0]


def test_upper_path_solves_only_site_sized_matrices(tmp_path, capsys, monkeypatch, rng):
    # The lower bound reads each cut's Schmidt coefficients in closed form and
    # the l1 upper bound diagonalises one 2 x 2 reduced density per qubit, so
    # with the SDP stubbed out a robustness report solves nothing else. With
    # all quantifiers the negativity's closed form solves nothing either.
    import entsup.cli as cli_mod

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", lambda *args, **kwargs: 0.0)
    solves = count_solves(monkeypatch)
    random3 = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    for ket, quantifier in itertools.product((ghz(3, 0.4), random3), ("robustness", "all")):
        solves.clear()
        path = write_state(tmp_path, "state.json", ket)
        code, report = run_cli(capsys, "quantify", path, "--quantifier", quantifier)
        assert code == EXIT_OK
        assert solves == [("eigh", (2, 2))] * 3
        rob = report["results"]["robustness"]
        assert list(rob) == [
            "lower", "lower_witness_cut", "upper", "upper_certified", "upper_candidate", "ppt_sdp",
            "exact",
        ]
        assert rob["upper_certified"] is True


def test_quantify_random_state_has_certified_upper(tmp_path, capsys, rng):
    ket = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    path = write_state(tmp_path, "q3.json", ket)
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == EXIT_OK
    rob = report["results"]["robustness"]
    assert math.isfinite(rob["upper"]) and rob["upper_certified"] is True
    assert rob["upper_candidate"] in ("l1-computational", "l1-local")
    assert rob["lower"] <= rob["ppt_sdp"] + 1e-6 <= rob["upper"] + 2e-6


def two_qubit_draws(count):
    """The first ``count`` random complex two-qubit unit kets of ``default_rng(0)``."""
    gen = np.random.default_rng(0)
    for _ in range(count):
        v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        yield Ket(qubit_register(2), v / np.linalg.norm(v))


def test_two_qubit_upper_never_prints_below_lower():
    # On two qubits lower and upper are both (s_1 + s_2)^2 - 1 and differ by
    # rounding only: the library's upper came out below its lower on 76 of these
    # 667 kets, by up to 4 eps max(1, lower). RobustnessBounds lifts it to lower.
    lifted = 0
    for ket in two_qubit_draws(667):
        lower, upper = rg_lower_pure(ket)[0], quantifiers.rg_upper_pure(ket)[0]
        bounds = RobustnessBounds(lower, upper)
        assert bounds.lower == lower <= bounds.upper
        lifted += bounds.upper == lower > upper
    assert lifted == 76


def test_two_qubit_crossings_past_4_eps_still_report(tmp_path, capsys):
    # Draws 12 167 and 12 379 put upper 5.0 and 4.5 eps max(1, lower) below
    # lower, past a 4 eps margin that once made quantify fail with exit 1.
    kets = list(two_qubit_draws(12380))
    for index, want_lower in ((12167, 0.8812490631059962), (12379, 0.8337492198869491)):
        path = write_state(tmp_path, f"draw{index}.json", kets[index])
        ket = load_state_file(path)
        upper = quantifiers.rg_upper_pure(ket)[0]
        assert want_lower - upper > 4 * sys.float_info.epsilon * max(1.0, want_lower)
        code, report = run_cli(capsys, "quantify", path)
        rob = report["results"]["robustness"]
        assert code == EXIT_OK
        assert rob["lower"] == rob["upper"] == want_lower
        assert rob["lower_witness_cut"] == [0] and rob["upper_certified"] is True


def test_an_upper_bound_far_below_lower_is_an_internal_fault(tmp_path, monkeypatch):
    import entsup.cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the SDP ran after the bounds crossed")

    monkeypatch.setattr(cli_mod.quantifiers, "rg_upper_pure", lambda ket: (0.5, "l1-local"))
    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", unreachable)
    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.0))
    with pytest.raises(RuntimeError, match="upper bound 0.5 below lower bound"):
        main(["quantify", path, "--quantifier", "robustness"])


def test_an_eigensolver_fault_is_an_internal_fault(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is neither an input error (exit 2)
    # nor the SDP's partial result: main lets it through, wherever it was raised.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    ket = Ket(qubit_register(3), random_pure_amplitudes(np.random.default_rng(3), 8))
    path = write_state(tmp_path, "q3.json", ket)
    monkeypatch.setattr(sdpcore, "solve", no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        main(["quantify", path])
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)  # rg_upper_pure's local bases
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        main(["quantify", path, "--quantifier", "robustness"])


def test_single_subsystem_register_is_an_input_error(tmp_path, capsys, monkeypatch):
    import entsup.cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("work ran on a register with no bipartition")

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", unreachable)
    monkeypatch.setattr(cli_mod.quantifiers, "rg_upper_pure", unreachable)
    monkeypatch.setattr(cli_mod.quantifiers, "pt_profile", unreachable)
    path = write_state(tmp_path, "qubit.json", Ket(qubit_register(1), [0.6, 0.8]))
    for quantifier in ("negativity", "robustness", "all"):
        code = main(["quantify", path, "--quantifier", quantifier])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "proper subset" in json.loads(captured.err)["error"]


def _dense_best_witness_lower(ket):
    """The witness lower bound through dense witnesses and Tr(W rho), same tie rule."""
    rho = density(ket)
    best, best_cut = 0.0, None
    for cut in single_cut_partitions(ket.register):
        lower = rg_lower_via_witness(rho, maxent_cut_witness(ket, cut)).lower
        margin = 0.0 if best_cut is None else 1e-12 * max(1.0, best)
        if lower > best + margin:
            best, best_cut = lower, sorted(cut.transposed)
    return best, best_cut


@given(ket=unit_kets())
@settings(max_examples=200, deadline=None)
def test_best_witness_lower_matches_dense_witnesses(ket):
    lower, cut = rg_lower_pure(ket)
    dense_lower, dense_cut = _dense_best_witness_lower(ket)
    assert lower == pytest.approx(dense_lower, abs=1e-12)
    assert cut == dense_cut


@pytest.mark.parametrize("n", [7, 9])
def test_quantify_above_sdp_limit_is_a_partial_result(tmp_path, capsys, n):
    # Every value but the SDP comes from the ket; the SDP refuses the
    # dimension before any d x d density exists.
    ket = Ket(qubit_register(n), random_pure_amplitudes(np.random.default_rng(n), 2**n))
    path = write_state(tmp_path, f"q{n}.json", ket)
    code, peak = traced_peak(lambda: main(["quantify", path, "--quantifier", "all"]))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert peak < 16 * 2**20, peak
    results = report["results"]
    sums = [float(np.sum(s)) for s in schmidt_oracle(ket)]
    for q, (neg, ppt) in enumerate(zip(results["negativity"], results["ppt"])):
        assert neg["value"] == pytest.approx((sums[q] ** 2 - 1) / 2, abs=1e-12)
        assert ppt["ppt"] is False
    rob = results["robustness"]
    oracle_lower = max(float(s[0] + s[1]) ** 2 - 1 for s in schmidt_oracle(ket))
    assert rob["lower"] == pytest.approx(oracle_lower, abs=1e-12)
    assert rob["upper_certified"] is True and rob["upper"] >= rob["lower"]
    assert rob["ppt_sdp"] is None
    assert f"limited to dimension {MAX_DIMENSION}, got {2**n}" in rob["ppt_sdp_error"]
    assert "ppt_sdp_best" not in rob


def test_quantify_negativity_at_fourteen_qubits(tmp_path, capsys):
    ket = Ket(qubit_register(14), random_pure_amplitudes(np.random.default_rng(14), 2**14))
    path = write_state(tmp_path, "q14.json", ket)
    code, peak = traced_peak(lambda: main(["quantify", path, "--quantifier", "negativity"]))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert peak < 64 * 2**20, peak
    values = [entry["value"] for entry in report["results"]["negativity"]]
    oracle = [(float(np.sum(s)) ** 2 - 1) / 2 for s in schmidt_oracle(ket)]
    assert values == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n, peak_limit", [(14, 64 * 2**20), (20, 3 * 16 * 2**20)], ids=["14", "20"])
def test_ghz_saturation_at_scale(monkeypatch, capsys, n, peak_limit):
    # README advertises --n up to 20, whose ket takes 16 MiB. The l1 upper bound is
    # read in the computational basis, so neither the per-site basis search nor any
    # other eigensolve runs.
    def no_search(psi):
        raise AssertionError("ghz-saturation ran the basis search")

    monkeypatch.setattr(quantifiers, "rg_upper_pure", no_search)
    solves = count_solves(monkeypatch)
    code, peak = traced_peak(lambda: main(["ghz-saturation", "--n", str(n)]))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert peak < peak_limit, peak
    assert solves == []
    body = report["results"]["report"]
    assert body["saturated"] is True and body["lhs"] == pytest.approx(1.0, abs=1e-12)


def test_quantify_keeps_a_ket_inside_the_density_band(tmp_path, capsys):
    # norm^2 = 1 + 5e-10 lies inside DENSITY_TOL: no renormalization, exit 0,
    # and the ket path reports what the dense path computes for that ket.
    base = random_pure_amplitudes(np.random.default_rng(4), 8)
    ket = Ket(qubit_register(3), base * math.sqrt(1 + 5e-10))
    assert abs(ket.norm() ** 2 - 1 - 5e-10) < 1e-15
    path = write_state(tmp_path, "q3.json", ket)
    code, report = run_cli(capsys, "quantify", path)
    assert code == EXIT_OK
    assert report["config"]["renormalized_input"] is False
    dense = pt_profile(density(ket), single_cut_partitions(ket.register))
    results = report["results"]
    for entry, ppt, (value, flag) in zip(results["negativity"], results["ppt"], dense):
        assert entry["value"] == pytest.approx(value, abs=1e-12)
        assert ppt["ppt"] is flag
    lower, cut = _dense_best_witness_lower(ket)
    assert results["robustness"]["lower"] == pytest.approx(lower, abs=1e-12)
    assert results["robustness"]["lower_witness_cut"] == cut
    assert results["robustness"]["ppt_sdp"] is not None


def _no_solve(*args, **kwargs):
    raise AssertionError("a closed bracket needs no SDP")


def _tightness_ket(n, theta, phi):
    """cos(theta)|0...0> + e^{i phi} sin(theta)|1...1>, the class on which the bound is tight."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)
    return Ket(qubit_register(n), amps)


@pytest.mark.parametrize("n", range(2, 11))
def test_quantify_reads_the_tightness_class_as_exact_without_a_solve(
    tmp_path, capsys, monkeypatch, n
):
    # lower (the cut witness) and upper (l1 in the computational basis) are both
    # sin 2 theta, so ppt_sdp is read off the bracket; from n = 7 on that is above
    # MAX_DIMENSION, where an open bracket reports ppt_sdp null.
    monkeypatch.setattr(quantifiers, "rg_ppt_sdp", _no_solve)
    frame = np.random.default_rng(n)
    cases = [
        (_tightness_ket(n, theta, phi), math.sin(2 * theta))
        for theta in (0.03, 0.4, math.pi / 4, 1.2, math.pi / 2 - 0.03)
        for phi in (0.0, 0.7)
    ]
    product = np.ones(1)
    for _ in range(n):  # a product of random one-qubit kets
        product = np.kron(product, random_pure_amplitudes(frame, 2))
    cases += [(basis_ket(qubit_register(n), [q % 2 for q in range(n)]), 0.0)]
    cases += [(Ket(qubit_register(n), product), 0.0)]
    for ket, truth in cases:
        path = write_state(tmp_path, "state.json", ket)
        code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
        assert code == EXIT_OK
        rob = report["results"]["robustness"]
        assert rob["exact"] is True and "ppt_sdp_error" not in rob
        for key in ("lower", "upper", "ppt_sdp"):
            assert rob[key] == pytest.approx(truth, abs=1e-12), (key, rob)
        assert rob["ppt_sdp"] == rob["upper"]


def test_a_repeated_partition_is_an_input_error(tmp_path, capsys):
    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.0))
    code = main(["quantify", path, "--partition", "0,1", "--partition", "2", "--partition", "1,0"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert json.loads(captured.err) == {"error": "--partition[2] '1,0' repeats --partition[0]"}
    code, report = run_cli(capsys, "quantify", path, "--partition", "0,1", "--partition", "1")
    assert code == EXIT_OK
    assert report["config"]["partitions"] == [[0, 1], [1]]


def test_a_closed_bracket_off_the_sdp_cuts_still_solves(tmp_path, capsys, monkeypatch):
    # GHZ3's bracket is closed at 1, on the witness cut [0]. Over the cut [1] alone
    # that witness is not a dual point of the program, so the solver runs.
    calls = []

    def solve(*args, **kwargs):
        calls.append(args[1])
        return rg_ppt_sdp(*args, **kwargs)

    monkeypatch.setattr(quantifiers, "rg_ppt_sdp", solve)
    path = write_state(tmp_path, "ghz3.json", ghz(3, 0.7))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness", "--partition", "1")
    rob = report["results"]["robustness"]
    assert code == EXIT_OK and len(calls) == 1
    assert rob["lower_witness_cut"] == [0] and rob["exact"] is False
    assert rob["upper"] - rob["lower"] <= 1e-12
    assert rob["ppt_sdp"] == pytest.approx(1.0, abs=1e-6)
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness", "--partition", "0")
    assert code == EXIT_OK and len(calls) == 1
    assert report["results"]["robustness"]["exact"] is True


def test_exact_follows_the_tolerance_in_effect(tmp_path, capsys, monkeypatch):
    # GHZ3 plus a little |001>: upper - lower is about 2.0e-3, between the two tolerances.
    amps = np.zeros(8)
    amps[[0, 7, 1]] = 1.0, 1.0, 1e-3
    path = write_state(tmp_path, "near.json", Ket(qubit_register(3), amps / np.linalg.norm(amps)))
    runs = [
        run_cli(capsys, "quantify", path, "--quantifier", "robustness", "--tolerance", tol)
        for tol in ("1e-2", "1e-3")
    ]
    assert [code for code, _ in runs] == [EXIT_OK, EXIT_OK]
    wide, tight = (report["results"]["robustness"] for _, report in runs)
    assert 1e-3 < wide["upper"] - wide["lower"] < 1e-2
    assert wide["exact"] is True and wide["ppt_sdp"] == wide["upper"]
    assert tight["exact"] is False
    assert tight["lower"] - 1e-3 <= tight["ppt_sdp"] <= tight["upper"] + 1e-3


@st.composite
def _two_and_three_qubit_kets(draw):
    """A random ket, or a tightness-class ket in a random local frame, on 2 or 3 qubits."""
    n = draw(st.sampled_from([2, 3]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return Ket(qubit_register(n), random_pure_amplitudes(gen, 2**n))
    amps = _tightness_ket(n, gen.uniform(0.05, math.pi / 2 - 0.05), gen.uniform(0, 2 * math.pi))
    amps = amps.amplitudes.reshape((2,) * n)
    for site in range(n):
        z = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        u = np.linalg.qr(z)[0]
        amps = np.moveaxis(np.tensordot(u, amps, axes=([1], [site])), 0, site)
    return Ket(qubit_register(n), amps.ravel())


@given(ket=_two_and_three_qubit_kets())
@settings(max_examples=16, deadline=None)
def test_quantify_brackets_its_ppt_sdp_and_says_exact_when_closed(tmp_path_factory, ket):
    # At the default tolerance (1e-6 at d <= 16) over every single cut: the SDP's
    # value lies in the bracket, exact means the bracket closed, and two qubits,
    # where PPT is separable, close (a generic ket has distinct Schmidt coefficients).
    tol = sdpcore.default_tolerance(ket.register.size)
    path = str(tmp_path_factory.mktemp("bracket") / "state.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ket_to_state_document(ket), handle)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["quantify", path, "--quantifier", "robustness"])
    rob = json.loads(out.getvalue())["results"]["robustness"]
    assert code == EXIT_OK
    assert rob["lower"] - tol <= rob["ppt_sdp"] <= rob["upper"] + tol
    assert rob["exact"] is (rob["upper"] - rob["lower"] <= tol)
    assert rob["exact"] or ket.register.nsub == 3
