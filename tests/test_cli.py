"""Command-line contract: parsing, outputs, exit codes, determinism."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entsup.cli import (
    EXIT_INPUT,
    EXIT_OK,
    StateFileError,
    _write_csv,
    ket_to_state_document,
    load_state_file,
    main,
    parse_state_document,
)
from entsup.linops import single_cut_partitions
from entsup.qstate import Ket, Register, density, ghz, qubit_register
from entsup.quantifiers import pt_profile, rg_lower_pure, rg_lower_via_witness
from entsup.sdpcore import MAX_DIMENSION
from entsup.supbound import SweepRecord, SweepSummary

from conftest import random_pure_amplitudes, unit_kets
from oracles import maxent_cut_witness


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


def traced_peak(call):
    """Run call() under tracemalloc; return its result and the peak traced bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    assert main(["ghz-saturation", "--n", "3", "--seed", "1"]) == EXIT_INPUT  # flag removed
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


def test_sweep_csv_is_streamed(tmp_path):
    # Joined into one string, these 40 000 rows peaked at 14 MiB; written as
    # they are formatted, the peak stays near the file buffer.
    rng = np.random.default_rng(5)
    values = rng.standard_normal((40_000, 5))
    records = tuple(SweepRecord(i, *map(float, row)) for i, row in enumerate(values))
    summary = SweepSummary(len(records), 0.0, 0.0, 0, 0, {}, records)
    target = tmp_path / "rows.csv"
    _, peak = traced_peak(lambda: _write_csv(str(target), summary))
    assert peak < 2**20
    rows = [f"{r.index},{r.abs_a!r},{r.abs_b!r},{r.lhs!r},{r.rhs!r},{r.gap!r}" for r in records]
    expected = "\n".join(["index,abs_a,abs_b,lhs,rhs,gap"] + rows) + "\n"
    assert target.read_bytes() == expected.encode("utf-8")


def test_sweep_usage_error(capsys):
    assert main(["sweep", "--samples", "0"]) == EXIT_INPUT
    assert main(["sweep", "--samples", "5", "--threads", "4"]) == EXIT_INPUT  # flag removed
    assert main(["sweep", "--samples", "5", "--renormalize"]) == EXIT_INPUT  # flag removed
    assert main(["sweep", "--samples", "5", "--no-renormalize"]) == EXIT_INPUT  # flag removed
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
    # One SVD of the 2 x 4 amplitude matrix per cut, and no 8 x 8 matrix at all.
    assert solves == [("svd", (2, 4))] * 3


def test_negativity_sweep_solves_no_register_sized_matrix(capsys, monkeypatch):
    # Per sample and cut: one SVD each of psi, phi and gamma across the cut, and
    # one eigensolve of gamma's r x r pair graph, r <= 2 for a single qubit.
    solves = count_solves(monkeypatch)
    for qubits in (2, 3):
        solves.clear()
        code, _ = run_cli(capsys, "sweep", "--qubits", str(qubits), "--samples", "5")
        assert code == EXIT_OK
        assert {shape for name, shape in solves if name == "svd"} == {(2, 2 ** (qubits - 1))}
        eigen = [shape for name, shape in solves if name != "svd"]
        assert len(eigen) == 5 * qubits and set(eigen) == {(2, 2)}


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
    # The lower bound takes one SVD of the 2 x 4 amplitude matrix per cut and
    # the l1 upper bound diagonalises one 2 x 2 reduced density per qubit, so
    # with the SDP stubbed out a robustness report solves nothing larger. With
    # all quantifiers the negativity reads the same three SVDs.
    import entsup.cli as cli_mod

    monkeypatch.setattr(cli_mod.quantifiers, "rg_ppt_sdp", lambda *args, **kwargs: 0.0)
    solves = count_solves(monkeypatch)
    random3 = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    for ket, quantifier in itertools.product((ghz(3, 0.4), random3), ("robustness", "all")):
        solves.clear()
        path = write_state(tmp_path, "state.json", ket)
        code, report = run_cli(capsys, "quantify", path, "--quantifier", quantifier)
        assert code == EXIT_OK
        assert solves == [("svd", (2, 4))] * 3 + [("eigh", (2, 2))] * 3
        rob = report["results"]["robustness"]
        assert rob["upper_certified"] is True and rob["s_star"] == rob["upper"]


def test_quantify_random_state_has_certified_upper(tmp_path, capsys, rng):
    ket = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    path = write_state(tmp_path, "q3.json", ket)
    code, report = run_cli(capsys, "quantify", path, "--quantifier", "robustness")
    assert code == EXIT_OK
    rob = report["results"]["robustness"]
    assert math.isfinite(rob["upper"]) and rob["upper_certified"] is True
    assert rob["upper_candidate"] in ("l1-computational", "l1-local")
    assert rob["s_star"] == rob["upper"]
    assert rob["lower"] <= rob["ppt_sdp"] + 1e-6 <= rob["upper"] + 2e-6


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


def test_ghz_saturation_at_fourteen_qubits(capsys):
    code, peak = traced_peak(lambda: main(["ghz-saturation", "--n", "14"]))
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert peak < 64 * 2**20, peak
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
