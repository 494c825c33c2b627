"""Command-line contract: parsing, outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entsup.cli import (
    EXIT_INPUT,
    EXIT_OK,
    StateFileError,
    _best_mixing_upper,
    _best_witness_lower,
    ket_to_state_document,
    load_state_file,
    main,
    parse_state_document,
)
from entsup.qstate import Ket, Register, density, ghz, qubit_register

from conftest import random_pure_amplitudes


def write_state(tmp_path, name, ket):
    path = tmp_path / name
    path.write_text(json.dumps(ket_to_state_document(ket)))
    return str(path)


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


def test_ghz_saturation_command(capsys):
    code, report = run_cli(capsys, "ghz-saturation", "--n", "3", "--phi", "0.0")
    assert code == EXIT_OK
    body = report["results"]["report"]
    assert body["saturated"] is True
    assert abs(body["gap"]) <= 1e-6

    code, report = run_cli(capsys, "ghz-saturation", "--n", "2", "--phi", str(math.pi))
    assert code == EXIT_OK
    assert report["results"]["report"]["saturated"] is True


def test_ghz_saturation_usage_error(capsys):
    assert main(["ghz-saturation", "--n", "1"]) == EXIT_INPUT
    capsys.readouterr()


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


def test_sweep_usage_error(capsys):
    assert main(["sweep", "--samples", "0"]) == EXIT_INPUT
    assert main(["sweep", "--samples", "5", "--threads", "4"]) == EXIT_INPUT  # flag removed
    capsys.readouterr()


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


def test_sweep_violation_exit_code(monkeypatch, capsys):
    import entsup.cli as cli_mod
    from entsup.supbound import BoundViolationError

    def explode(*args, **kwargs):
        raise BoundViolationError("bound violated", instance={"sample_index": 3})

    monkeypatch.setattr(cli_mod.supbound, "random_sweep", explode)
    code, report = run_cli(capsys, "sweep", "--samples", "5")
    assert code == 5
    assert report["results"]["instance"]["sample_index"] == 3


def test_quantify_solver_failure_partial_results(tmp_path, monkeypatch, capsys):
    import entsup.cli as cli_mod
    from entsup.sdpcore import SolverFailureError

    def stall(*args, **kwargs):
        raise SolverFailureError("stopped at max_iter", best_value=0.97)

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", stall)
    path = write_state(tmp_path, "bell.json", ghz(2, 0.0))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == 3
    rob = report["results"]["robustness"]
    assert rob["ppt_sdp"] is None
    assert rob["ppt_sdp_best"] == 0.97
    assert rob["lower"] == pytest.approx(1.0, abs=1e-9)  # partial results intact


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
    solves = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            solves.append(a.shape)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, _ = run_cli(capsys, "quantify", path, "--quantifier", "negativity")
    assert code == EXIT_OK
    assert solves == [(8, 8)] * 3  # one partial-transpose spectrum per cut


def test_report_is_json_with_metadata(tmp_path, capsys):
    path = write_state(tmp_path, "bell.json", ghz(2, 0.0))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "negativity")
    assert code == EXIT_OK
    assert report["command"] == "quantify"
    assert report["version"]
    assert "seed" in report and "duration_s" in report


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
            lower, cut = _best_witness_lower(ket, density(ket))
            assert cut == [0]
            assert lower == pytest.approx((math.sqrt(1 - 1 / n) + math.sqrt(1 / n)) ** 2 - 1)
    path = write_state(tmp_path, "w3.json", _w_state_in_local_frame(rng, 3))
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == EXIT_OK
    assert report["results"]["robustness"]["lower_witness_cut"] == [0]


def test_best_mixing_upper_solves_one_spectrum(monkeypatch, rng):
    # Only the coherence partner is diagonalised: rho = |psi><psi| and I/d carry
    # their spectra, and the partner's is cached for its density check.
    solves = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            solves.append(a.shape)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    ghz3 = ghz(3, 0.4)
    random3 = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    for ket, expected in ((ghz3, (1.0, "coherence-partner", True, 1.0)), (random3, None)):
        solves.clear()
        best = _best_mixing_upper(density(ket), ket.register)
        assert solves == [(8, 8)]
        if expected is not None:
            assert best == expected
