"""Superposition bound checks, the GHZ experiment, and random sweeps."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsup import supbound
from entsup.linops import part, single_cut_partitions
from entsup.qstate import (
    Ket,
    Register,
    RegisterMismatchError,
    SuperposCoeffs,
    basis_ket,
    density,
    ghz,
    qubit_register,
    superpose,
)
from entsup.quantifiers import QuantifierConfig, negativity
from entsup.supbound import (
    BoundViolationError,
    SweepColumns,
    check_bound_k,
    check_bound_negativity,
    ghz_saturation_experiment,
    random_sweep,
    rhs_from_witness,
    sweep_blocks,
)
from entsup.witnesses import ghz_witness

from conftest import random_pure_amplitudes
from oracles import dense_negativity_report, dense_robustness_report

REPORT_FIELDS = ("lhs", "term_psi", "term_phi", "cross_term", "rhs", "gap", "gamma_norm")


def _robustness_report(psi, phi, coeffs):
    """Class-k bound at the best single cut's maximally entangled witness."""
    cuts = single_cut_partitions(psi.register)
    return supbound._instance_report("generalized_robustness", psi, phi, coeffs, cuts)


def test_rhs_from_witness_norm_examples():
    c = SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert rhs_from_witness(c, 0.0, 0.0, 0.5) == pytest.approx(0.5)
    c2 = SuperposCoeffs(0.9, 0.0)
    assert rhs_from_witness(c2, 0.7, 3.0, 1.0) == pytest.approx(0.81 * 0.7)
    c3 = SuperposCoeffs(0.6, 0.8)
    assert rhs_from_witness(c3, 1.0, 1.0, 1.0) == pytest.approx(1.96)
    for args in ((-0.1, 0.0, 0.5), (0.0, -0.1, 0.5), (0.0, 0.0, -0.5)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            rhs_from_witness(c, *args)


def test_rhs_from_witness_class_examples():
    c = SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert rhs_from_witness(c, 0.0, 0.0, 1.0) == pytest.approx(1.0)
    c2 = SuperposCoeffs(0.6, 0.8)
    assert rhs_from_witness(c2, 0.5, 0.25, 0.0) == pytest.approx(
        0.36 * 0.5 + 0.64 * 0.25
    )
    c3 = SuperposCoeffs(1.0, 0.0)
    assert rhs_from_witness(c3, 0.77, 0.0, 1.0) == pytest.approx(0.77)


def test_rhs_monotone_in_witness_norm():
    c = SuperposCoeffs(0.6, 0.8)
    lo = rhs_from_witness(c, 0.3, 0.4, 0.5)
    hi = rhs_from_witness(c, 0.3, 0.4, 0.9)
    assert hi > lo


def test_two_qubit_saturation_family():
    reg = qubit_register(2)
    one_one = basis_ket(reg, (1, 1))
    zero_zero = basis_ket(reg, (0, 0))
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 20):
        a, b = math.cos(theta), math.sin(theta)
        report = check_bound_negativity(
            one_one, zero_zero, SuperposCoeffs(a, b), part(0)
        )
        assert report.lhs == pytest.approx(a * b, abs=1e-10)
        assert report.rhs == pytest.approx(a * b, abs=1e-10)
        assert report.saturated
        assert report.gamma_norm == pytest.approx(1.0, abs=1e-12)


def test_saturation_scales_with_the_coefficients():
    # (0.06, 0.08) is (0.6, 0.8) scaled by 1/10: gamma = 0.06|11> + 0.08|00> has
    # ||gamma||^2 = 0.01, so both sides are 0.48 / 100.
    reg = qubit_register(2)
    one_one, zero_zero = basis_ket(reg, (1, 1)), basis_ket(reg, (0, 0))
    for a, b, value in ((0.06, 0.08, 0.0048), (6.0, 8.0, 48.0)):
        report = check_bound_negativity(one_one, zero_zero, SuperposCoeffs(a, b), part(0))
        assert report.lhs == pytest.approx(value, rel=1e-12)
        assert report.rhs == pytest.approx(value, rel=1e-12)
        assert report.gamma_norm == pytest.approx(a * a + b * b, rel=1e-12)
        assert report.saturated


@given(
    qubits=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.05, math.pi / 2 - 0.05),
    chi=st.floats(0.0, 2 * math.pi),
    log_scale=st.floats(math.log(1e-3), math.log(1e3)),
)
@settings(max_examples=60, deadline=None)
def test_reports_scale_quadratically_with_the_coefficients(qubits, seed, theta, chi, log_scale):
    gen = np.random.default_rng(seed)
    reg = qubit_register(qubits)
    psi = Ket(reg, random_pure_amplitudes(gen, reg.size))
    phi = Ket(reg, random_pure_amplitudes(gen, reg.size))
    a, b = math.cos(theta), cmath.exp(1j * chi) * math.sin(theta)
    lam = math.exp(log_scale)
    unit, scaled = SuperposCoeffs(a, b), SuperposCoeffs(lam * a, lam * b)
    for report in (
        lambda c: check_bound_negativity(psi, phi, c, part(qubits - 1)),
        lambda c: _robustness_report(psi, phi, c),
    ):
        base, got = report(unit), report(scaled)
        for field in ("lhs", "rhs", "gap"):
            want = lam**2 * getattr(base, field)
            assert abs(getattr(got, field) - want) <= 1e-9 * lam**2 * base.rhs, field


def test_single_branch_case():
    bell = ghz(2, 0.0)
    report = check_bound_negativity(bell, bell, SuperposCoeffs(1.0, 0.0), part(0))
    assert report.term_phi == 0.0
    assert report.cross_term == 0.0  # b = 0 kills the interference term
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.lhs == pytest.approx(report.term_psi, abs=1e-12)
    assert report.saturated
    assert report.gap >= -1e-12


def test_random_negativity_instances_hold(rng):
    reg = qubit_register(2)
    for _ in range(200):
        psi = Ket(reg, random_pure_amplitudes(rng, 4))
        phi = Ket(reg, random_pure_amplitudes(rng, 4))
        theta = rng.uniform(0, math.pi / 2)
        chi = rng.uniform(0, 2 * math.pi)
        coeffs = SuperposCoeffs(math.cos(theta), cmath.exp(1j * chi) * math.sin(theta))
        report = check_bound_negativity(psi, phi, coeffs, part(0))
        assert report.gap >= -1e-8


def test_lhs_is_gamma_norm_times_unit_negativity(rng):
    reg = qubit_register(2)
    psi = Ket(reg, random_pure_amplitudes(rng, 4))
    phi = Ket(reg, random_pure_amplitudes(rng, 4))
    coeffs = SuperposCoeffs(0.8, 0.6j)
    report = check_bound_negativity(psi, phi, coeffs, part(0))
    gamma = superpose(coeffs, psi, phi)
    assert report.gamma_norm == pytest.approx(gamma.norm() ** 2, abs=1e-14)
    dense = negativity(density(gamma.normalized()), part(0))
    assert report.lhs == pytest.approx(report.gamma_norm * dense, abs=1e-12)


def test_check_bound_k_ghz_instance():
    reg = qubit_register(3)
    report = check_bound_k(
        basis_ket(reg, (0, 0, 0)),
        basis_ket(reg, (1, 1, 1)),
        SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2)),
        ghz_witness(3, 0.0),
        0.0,
        0.0,
        1.0,
    )
    assert abs(report.gap) <= 1e-9
    assert report.saturated
    assert report.inequality_kind == "witness-class"


def test_check_bound_k_separable_superposition():
    reg = qubit_register(2)
    report = check_bound_k(
        basis_ket(reg, (0, 0)),
        basis_ket(reg, (0, 1)),
        SuperposCoeffs(0.6, 0.8),
        ghz_witness(2, 0.0),
        0.3,
        0.4,
        0.0,
    )
    assert report.lhs == 0.0
    assert report.gap == pytest.approx(report.rhs)


def test_check_bound_k_equality_beyond_symmetric_point():
    reg = qubit_register(2)
    report = check_bound_k(
        basis_ket(reg, (0, 0)),
        basis_ket(reg, (1, 1)),
        SuperposCoeffs(0.6, 0.8),
        ghz_witness(2, 0.0),
        0.0,
        0.0,
        0.96,
    )
    assert report.cross_term == pytest.approx(0.96, abs=1e-12)
    assert abs(report.gap) <= 1e-12


def _violation_instance(check):
    with pytest.raises(BoundViolationError) as err:
        check()
    return err.value.instance


def test_check_bound_k_flags_violation_payload(monkeypatch):
    reg = qubit_register(2)
    zero, one = basis_ket(reg, (0, 0)), basis_ket(reg, (1, 1))
    coeffs = SuperposCoeffs(0.9, math.sqrt(1 - 0.81))
    # An absurd caller-supplied value must trip the canary at the real tolerance.
    canary = _violation_instance(
        lambda: check_bound_k(zero, one, coeffs, ghz_witness(2, 0.0), 0.0, 0.0, 5.0)
    )
    assert canary["lhs"] == 5.0 and canary["gap"] == canary["rhs"] - 5.0
    # With the tolerance at -3 every bound reads violated, so each one-row path
    # reports its instance: the inputs in README order, then both sides.
    monkeypatch.setattr(supbound, "VIOLATION_TOL", -3.0)
    psi, phi = ghz(2, 0.4), Ket(reg, np.array([0.6, 0.0, 0.0, 0.8j]))
    coeffs = SuperposCoeffs(0.6, cmath.exp(0.3j) * 0.8)
    inputs = {
        "dims": [2, 2],
        "psi": [[z.real, z.imag] for z in psi.amplitudes],
        "phi": [[z.real, z.imag] for z in phi.amplitudes],
        "a": [0.6, 0.0],
        "b": [coeffs.b.real, coeffs.b.imag],
    }
    checks = [
        (lambda: check_bound_negativity(psi, phi, coeffs, part(1)), "partition", [1]),
        (lambda: _robustness_report(psi, phi, coeffs), "k", 1.0),
        (lambda: check_bound_k(psi, phi, coeffs, ghz_witness(2, 0.0), 0.0, 0.0, 5.0), "k", 1.0),
    ]
    for check, extra, value in checks:
        instance = _violation_instance(check)
        assert list(instance) == [*inputs, extra, "lhs", "rhs", "gap"]
        assert {key: instance[key] for key in inputs} == inputs
        assert instance[extra] == value
        assert instance["gap"] == instance["rhs"] - instance["lhs"]
    assert list(canary) == list(instance) and canary["k"] == 1.0


def test_ghz_saturation_experiment_examples():
    for n, phi in ((3, 0.0), (2, math.pi), (8, math.pi / 4)):
        report = ghz_saturation_experiment(n, phi)
        assert report.lhs == pytest.approx(1.0, abs=1e-9)
        assert report.rhs == pytest.approx(1.0, abs=1e-9)
        assert report.saturated
    with pytest.raises(ValueError, match="^GHZ states need at least 2 qubits, got 1$"):
        ghz_saturation_experiment(1)


def test_robustness_report_matches_dense_witnesses(rng):
    reg = qubit_register(3)
    zero, one = basis_ket(reg, (0, 0, 0)), basis_ket(reg, (1, 1, 1))
    cases = [
        (zero, one, SuperposCoeffs(0.6, 0.8)),  # entangled superposition: k = 1
        (zero, basis_ket(reg, (0, 0, 1)), SuperposCoeffs(0.6, 0.8)),  # product: k = 0
        (one, one, SuperposCoeffs(1.0, -1.0)),  # branches cancel: k = 0
    ]
    for _ in range(20):
        psi = Ket(reg, random_pure_amplitudes(rng, 8))
        phi = Ket(reg, random_pure_amplitudes(rng, 8))
        cases.append((psi, phi, SuperposCoeffs(0.8, cmath.exp(0.3j) * 0.6)))
    for psi, phi, coeffs in cases:
        got = _robustness_report(psi, phi, coeffs)
        want = dense_robustness_report(psi, phi, coeffs)
        for field in REPORT_FIELDS:
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)
        assert got.saturated == want.saturated


def test_scalar_checks_match_the_dense_oracles(rng):
    # The single cuts of a (2, 2, 3) register have 2, 2 and 3 Schmidt
    # coefficients, so the robustness stacks padded spectra; part(0, 2) splits 6 | 2.
    reg = Register((2, 2, 3))
    coeffs = SuperposCoeffs(0.8, cmath.exp(0.3j) * 0.6)
    for _ in range(10):
        psi, phi = (Ket(reg, random_pure_amplitudes(rng, reg.size)) for _ in range(2))
        pairs = [
            (check_bound_negativity(psi, phi, coeffs, cut),
             dense_negativity_report(psi, phi, coeffs, cut))
            for cut in (part(0), part(2), part(0, 2))
        ]
        pairs.append(
            (_robustness_report(psi, phi, coeffs), dense_robustness_report(psi, phi, coeffs))
        )
        for got, want in pairs:
            for field in REPORT_FIELDS:
                assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)
            assert got.saturated == want.saturated


def test_scalar_checks_keep_every_input_check():
    reg = qubit_register(2)
    psi, phi = ghz(2, 0.0), basis_ket(reg, (0, 1))
    coeffs = SuperposCoeffs(0.6, 0.8)
    for cut in (part(), part(0, 1)):
        with pytest.raises(ValueError, match="^entanglement tests need a nonempty proper subset"):
            check_bound_negativity(psi, phi, coeffs, cut)
    with pytest.raises(ValueError, match="^subsystem index 5 invalid for a 2-part register$"):
        check_bound_negativity(psi, phi, coeffs, part(5))
    long = Ket(reg, 1.1 * psi.amplitudes)
    for branches in ((long, phi), (psi, long)):
        with pytest.raises(ValueError, match="^state trace .* is not 1$"):
            check_bound_negativity(*branches, coeffs, part(0))
    # (2, 3) and (3, 2) have equal sizes, so their amplitudes alone would stack.
    same_size = tuple(Ket(Register(dims), np.eye(6)[0]) for dims in ((2, 3), (3, 2)))
    for pair in ((psi, ghz(3, 0.0)), same_size):
        with pytest.raises(RegisterMismatchError):
            check_bound_negativity(*pair, coeffs, part(0))
        with pytest.raises(RegisterMismatchError):
            _robustness_report(*pair, coeffs)


def test_ghz_saturation_experiment_builds_no_dense_operator():
    # At n = 10 one 1024 x 1024 complex matrix takes 16 MiB; the kets take 16 KiB.
    ghz_saturation_experiment(10, 0.3)  # warm-up: one-time allocations stay out
    tracemalloc.start()
    try:
        report = ghz_saturation_experiment(10, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert report.saturated and report.lhs == pytest.approx(1.0, abs=1e-12)


def test_ghz_saturation_experiment_peaks_at_six_kets():
    # At n = 18 a ket takes 4 MiB. Building the two branch kets as well as GHZ
    # and its working copies peaked at 28 MiB; the run needs no more than 24.
    ghz_saturation_experiment(3)  # warm-up: one-time allocations stay out
    tracemalloc.start()
    try:
        report = ghz_saturation_experiment(18, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**22, peak / 2**20
    assert report.saturated


def test_passing_ghz_run_builds_no_branch_kets(monkeypatch):
    # The branches are basis kets, so only a violation's payload needs them.
    def unreachable(*args, **kwargs):
        raise AssertionError("a passing GHZ run built a branch ket or certificate")

    monkeypatch.setattr(supbound, "basis_ket", unreachable)
    monkeypatch.setattr(supbound.quantifiers, "separability_certificate_diagonal", unreachable)
    for n in (2, 5):
        assert ghz_saturation_experiment(n, 1.0).saturated


def test_phase_invariance_of_reports():
    reg = qubit_register(2)
    gen = np.random.default_rng(11)
    psi = Ket(reg, random_pure_amplitudes(gen, 4))
    phi = Ket(reg, random_pure_amplitudes(gen, 4))
    theta = 0.8
    base = check_bound_negativity(
        psi, phi, SuperposCoeffs(math.cos(theta), math.sin(theta)), part(0)
    )
    for global_phase in (0.4, 2.0):
        rotated_a = math.cos(theta) * cmath.exp(1j * global_phase)
        rotated_psi = Ket(reg, psi.amplitudes * cmath.exp(-1j * global_phase))
        other = check_bound_negativity(
            rotated_psi, phi, SuperposCoeffs(rotated_a, math.sin(theta)), part(0)
        )
        for field in ("lhs", "term_psi", "term_phi", "cross_term", "rhs", "gap"):
            assert getattr(other, field) == pytest.approx(
                getattr(base, field), abs=1e-12
            )


def _sweep_rows(config, qubits, samples, seed):
    """Every row of a sweep: the columns of its blocks, concatenated."""
    return SweepColumns(*map(np.concatenate, zip(*sweep_blocks(config, qubits, samples, seed))))


def _assert_same_rows(one, two):
    for name, x, y in zip(SweepColumns._fields, one, two):
        assert np.array_equal(x, y), name


def test_sweep_negativity_small():
    config = QuantifierConfig(kind="negativity")
    summary = random_sweep(config, qubits=2, samples=100, seed=42)
    assert summary.violations == 0
    assert summary.min_gap >= -1e-8
    assert summary.samples == 100
    rows = _sweep_rows(config, 2, 100, 42)
    assert len(rows.gap) == 200  # two single cuts per sample
    assert summary.min_gap == rows.gap.min()


def test_sweep_single_sample_echoes_gap():
    config = QuantifierConfig(kind="negativity")
    summary = random_sweep(config, qubits=2, samples=1, seed=5)
    rows = _sweep_rows(config, 2, 1, 5)
    assert rows.index.tolist() == [0, 0]  # the two single cuts
    gaps = rows.gap.tolist()
    assert summary.min_gap == min(gaps)
    assert summary.mean_gap == pytest.approx(sum(gaps) / 2, abs=1e-15)
    assert summary.config["partitions"] == [[0], [1]]


def test_sweep_deterministic_and_thread_safe():
    config = QuantifierConfig(kind="generalized_robustness")
    one = random_sweep(config, qubits=3, samples=40, seed=9)
    two = random_sweep(config, qubits=3, samples=40, seed=9)
    assert one == two
    _assert_same_rows(_sweep_rows(config, 3, 40, 9), _sweep_rows(config, 3, 40, 9))


def _sweep_instance(seed, index, qubits):
    """Sample ``index`` of a sweep, redrawn one ket at a time from its own substream."""
    rng = np.random.default_rng([seed, index])
    reg = qubit_register(qubits)
    psi, phi = (Ket(reg, random_pure_amplitudes(rng, reg.size)) for _ in range(2))
    theta = rng.uniform(0.0, math.pi / 2)
    chi = rng.uniform(0.0, 2 * math.pi)
    return psi, phi, SuperposCoeffs(math.cos(theta), cmath.exp(1j * chi) * math.sin(theta))


@pytest.mark.parametrize("kind", ["negativity", "generalized_robustness"])
@pytest.mark.parametrize("qubits", [2, 3])
def test_sweep_rows_match_the_scalar_bound(kind, qubits):
    # Each row against the dense oracles, which share no code with the sweep's evaluation.
    samples = 20
    for seed in range(3):
        rows = _sweep_rows(QuantifierConfig(kind=kind), qubits, samples, seed)
        want = []
        for index in range(samples):
            psi, phi, coeffs = _sweep_instance(seed, index, qubits)
            if kind == "negativity":
                reports = [
                    dense_negativity_report(psi, phi, coeffs, p)
                    for p in single_cut_partitions(psi.register)
                ]
            else:
                reports = [dense_robustness_report(psi, phi, coeffs)]
            want += [(index, abs(coeffs.a), abs(coeffs.b), r.lhs, r.rhs, r.gap) for r in reports]
        got = list(zip(*(column.tolist() for column in rows)))
        assert [row[:3] for row in got] == [row[:3] for row in want]
        np.testing.assert_allclose(
            [row[3:] for row in got], [row[3:] for row in want], rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("qubits", [12, 13])
def test_scalar_negativity_check_is_the_sweep_row_bit_for_bit(qubits):
    # The scalar check reads one cut and the sweep all of them. Twelve qubits'
    # cut rows are gathered and thirteen's read in place, whichever call reads them.
    reg = qubit_register(qubits)
    cuts = single_cut_partitions(reg)
    rows = _sweep_rows(QuantifierConfig(kind="negativity"), qubits, 2, 5)
    kets, a, b = supbound._draw_block(reg.size, range(2), 5)
    for i in range(2):
        psi, phi, coeffs = Ket(reg, kets[0, i]), Ket(reg, kets[1, i]), SuperposCoeffs(a[i], b[i])
        for j, cut in enumerate(cuts):
            report = check_bound_negativity(psi, phi, coeffs, cut)
            row = i * len(cuts) + j
            assert (report.lhs, report.rhs, report.gap) == (rows.lhs[row], rows.rhs[row], rows.gap[row])


@pytest.mark.parametrize("kind", ["negativity", "generalized_robustness"])
@pytest.mark.parametrize("qubits", [2, 3])
def test_sweep_blocks_do_not_change_rows(monkeypatch, kind, qubits):
    # 8 amplitudes a block hold 2 samples on two qubits and 1 on three, so
    # 7 samples end on a partial block or run one sample per block.
    config = QuantifierConfig(kind=kind)
    whole, summary = _sweep_rows(config, qubits, 7, 11), random_sweep(config, qubits, 7, 11)
    monkeypatch.setattr(supbound, "SWEEP_BLOCK_AMPLITUDES", 8)
    blocks = sweep_blocks(config, qubits, 7, 11)
    sizes = [len(set(block.index.tolist())) for block in blocks]
    assert sizes == ([2, 2, 2, 1] if qubits == 2 else [1] * 7)
    _assert_same_rows(_sweep_rows(config, qubits, 7, 11), whole)
    assert random_sweep(config, qubits, 7, 11) == summary


def _assert_draws_match_default_rng(kets, a, b, seed, indices):
    """Each drawn sample, bit for bit, against a redraw on its ``default_rng([seed, index])``."""
    size = kets.shape[-1]
    for row, index in enumerate(indices):
        rng = np.random.default_rng([seed, index])
        normals = rng.standard_normal((4, size))
        theta = rng.uniform(0.0, math.pi / 2)
        chi = rng.uniform(0.0, 2 * math.pi)
        for branch, (re, im) in enumerate((normals[:2], normals[2:])):
            ket = re + 1j * im
            np.testing.assert_array_equal(kets[branch, row], ket / supbound._norms(ket))
        assert a[row] == math.cos(theta)
        assert b[row] == cmath.exp(1j * chi) * math.sin(theta)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63])
@pytest.mark.parametrize(
    "indices", [range(0, 3), range(999_997, 1_000_000), range(2**32 - 2, 2**32 + 1)]
)
def test_draws_keep_every_default_rng_substream(monkeypatch, seed, indices):
    # Below 2**32 the states are seeded in bulk and only the check seeds through
    # numpy; the seed 2**32 and up, and an index there, take numpy's own seeding.
    seeded = []

    def counted(entropy, _default_rng=np.random.default_rng):
        seeded.append(entropy)
        return _default_rng(entropy)

    monkeypatch.setattr(np.random, "default_rng", counted)
    kets, a, b = supbound._draw_block(4, indices, seed)
    monkeypatch.undo()
    bulk = max(seed, indices[-1]) < 2**32
    assert len(seeded) == (1 if bulk else 1 + len(indices))
    _assert_draws_match_default_rng(kets, a, b, seed, indices)


def test_draws_keep_every_substream_across_block_edges(monkeypatch):
    # 8 amplitudes a block hold 2 samples on two qubits: 7 samples make 4 blocks.
    draws = []

    def recorded(size, indices, seed):
        drawn = draw(size, indices, seed)
        draws.append((indices, tuple(x.copy() for x in drawn)))
        return drawn

    draw = supbound._draw_block
    monkeypatch.setattr(supbound, "_draw_block", recorded)
    monkeypatch.setattr(supbound, "SWEEP_BLOCK_AMPLITUDES", 8)
    random_sweep(QuantifierConfig(), 2, 7, 1)
    assert [list(indices) for indices, _ in draws] == [[0, 1], [2, 3], [4, 5], [6]]
    for indices, drawn in draws:
        _assert_draws_match_default_rng(*drawn, 1, indices)


def test_sweep_row_limit_counts_rows_per_sample(monkeypatch):
    monkeypatch.setattr(supbound, "MAX_SWEEP_ROWS", 6)
    assert len(_sweep_rows(QuantifierConfig(), 3, 2, 0).gap) == 6
    robustness = QuantifierConfig(kind="generalized_robustness")
    assert len(_sweep_rows(robustness, 3, 6, 0).gap) == 6
    with pytest.raises(ValueError, match="exceeds the limit"):
        random_sweep(QuantifierConfig(), qubits=3, samples=3)
    with pytest.raises(ValueError, match="exceeds the limit"):
        random_sweep(robustness, qubits=3, samples=7)


def test_sweep_validates_sample_count():
    with pytest.raises(ValueError):
        random_sweep(QuantifierConfig(), qubits=2, samples=0)


def test_sweep_checks_its_seed_before_sampling(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was drawn for a negative seed")

    monkeypatch.setattr(supbound, "_draw_block", unreachable)
    for sweep in (sweep_blocks, random_sweep):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            sweep(QuantifierConfig(), 2, 5, -1)


@pytest.mark.parametrize("qubits", [1, 0, -2])
def test_sweep_checks_its_qubit_count_before_sampling(monkeypatch, qubits):
    def unreachable(*args, **kwargs):
        raise AssertionError("a sample was drawn for fewer than 2 qubits")

    monkeypatch.setattr(supbound, "_draw_block", unreachable)
    message = f"^a sweep needs at least 2 qubits, got {qubits}$"
    for kind in ("negativity", "generalized_robustness"):
        for sweep in (sweep_blocks, random_sweep):
            with pytest.raises(ValueError, match=message):
                sweep(QuantifierConfig(kind=kind), qubits, 5, 0)


def test_quantifier_config_accepts_only_the_sweep_kinds():
    for kind in ("negativity", "generalized_robustness"):
        assert QuantifierConfig(kind=kind).kind == kind
    for kind in ("robustness", "bogus"):
        with pytest.raises(ValueError, match="'negativity' or 'generalized_robustness'"):
            QuantifierConfig(kind=kind)


def test_random_sweep_keeps_no_per_row_objects(monkeypatch):
    # 4 000 two-qubit samples give 8 000 rows. Their gap column takes 63 KiB and
    # one block of 256 samples a few more; an object per row would take megabytes.
    monkeypatch.setattr(supbound, "SWEEP_BLOCK_AMPLITUDES", 2**10)
    random_sweep(QuantifierConfig(), 2, 300, 1)  # warm-up: one-time allocations stay out
    tracemalloc.start()
    try:
        summary = random_sweep(QuantifierConfig(), 2, 4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert summary.samples == 4000 and summary.min_gap >= -1e-8


@given(
    x=st.floats(-1e6, 1e6, allow_nan=False),
    y=st.floats(-1e6, 1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_scalar_splitting_lemma(x, y):
    assert max(0.0, x + y) <= max(0.0, x) + max(0.0, y) + 1e-9
