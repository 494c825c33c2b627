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
from entsup.qstate import Ket, SuperposCoeffs, basis_ket, density, ghz, qubit_register, superpose
from entsup.quantifiers import QuantifierConfig, negativity
from entsup.supbound import (
    BoundViolationError,
    _robustness_report,
    check_bound_k,
    check_bound_negativity,
    ghz_saturation_experiment,
    random_sweep,
    rhs_from_witness_class,
    rhs_from_witness_norm,
)
from entsup.witnesses import eval_witness, ghz_witness, zero_witness

from conftest import random_pure_amplitudes
from oracles import maxent_cut_witness


def test_rhs_from_witness_norm_examples():
    c = SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert rhs_from_witness_norm(c, 0.0, 0.0, 0.5) == pytest.approx(0.5)
    c2 = SuperposCoeffs(0.9, 0.0)
    assert rhs_from_witness_norm(c2, 0.7, 3.0, 1.0) == pytest.approx(0.81 * 0.7)
    c3 = SuperposCoeffs(0.6, 0.8)
    assert rhs_from_witness_norm(c3, 1.0, 1.0, 1.0) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        rhs_from_witness_norm(c, -0.1, 0.0, 0.5)


def test_rhs_from_witness_class_examples():
    c = SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert rhs_from_witness_class(c, 0.0, 0.0, 1.0) == pytest.approx(1.0)
    c2 = SuperposCoeffs(0.6, 0.8)
    assert rhs_from_witness_class(c2, 0.5, 0.25, 0.0) == pytest.approx(
        0.36 * 0.5 + 0.64 * 0.25
    )
    c3 = SuperposCoeffs(1.0, 0.0)
    assert rhs_from_witness_class(c3, 0.77, 0.0, 1.0) == pytest.approx(0.77)


def test_rhs_monotone_in_witness_norm():
    c = SuperposCoeffs(0.6, 0.8)
    lo = rhs_from_witness_norm(c, 0.3, 0.4, 0.5)
    hi = rhs_from_witness_norm(c, 0.3, 0.4, 0.9)
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


def test_check_bound_k_flags_violation_payload():
    reg = qubit_register(2)
    with pytest.raises(BoundViolationError) as err:
        check_bound_k(
            basis_ket(reg, (0, 0)),
            basis_ket(reg, (1, 1)),
            SuperposCoeffs(0.9, math.sqrt(1 - 0.81)),
            ghz_witness(2, 0.0),
            0.0,
            0.0,
            5.0,  # absurd caller-supplied value: must trip the canary
        )
    assert "lhs" in err.value.instance and "gap" in err.value.instance


def test_ghz_saturation_experiment_examples():
    for n, phi in ((3, 0.0), (2, math.pi), (8, math.pi / 4)):
        report = ghz_saturation_experiment(n, phi)
        assert report.lhs == pytest.approx(1.0, abs=1e-9)
        assert report.rhs == pytest.approx(1.0, abs=1e-9)
        assert report.saturated
    with pytest.raises(ValueError):
        ghz_saturation_experiment(1)


def _dense_robustness_report(psi, phi, coeffs):
    """The sweep's robustness report through dense cut witnesses and check_bound_k."""
    def best(ket):
        value, witness = 0.0, zero_witness(ket.register)
        for cut in single_cut_partitions(ket.register):
            w = maxent_cut_witness(ket, cut)
            v = max(0.0, -eval_witness(w, ket))
            if v > value:
                value, witness = v, w
        return value, witness

    gamma = superpose(coeffs, psi, phi)
    norm = gamma.norm() ** 2
    e_gamma, w = 0.0, zero_witness(psi.register)
    if norm >= 1e-12:
        e_hat, w = best(gamma.normalized())
        e_gamma = norm * e_hat
    return check_bound_k(psi, phi, coeffs, w, best(psi)[0], best(phi)[0], e_gamma)


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
        want = _dense_robustness_report(psi, phi, coeffs)
        for field in ("lhs", "term_psi", "term_phi", "cross_term", "rhs", "gap", "gamma_norm"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)
        assert got.saturated == want.saturated


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


def test_sweep_negativity_small():
    summary = random_sweep(
        QuantifierConfig(kind="negativity"), qubits=2, samples=100, seed=42
    )
    assert summary.violations == 0
    assert summary.min_gap >= -1e-8
    assert summary.samples == 100
    assert len(summary.records) == 200  # two single cuts per sample


def test_sweep_single_sample_echoes_gap():
    summary = random_sweep(QuantifierConfig(kind="negativity"), qubits=2, samples=1, seed=5)
    assert [r.index for r in summary.records] == [0, 0]  # the two single cuts
    gaps = [r.gap for r in summary.records]
    assert summary.min_gap == min(gaps)
    assert summary.mean_gap == pytest.approx(sum(gaps) / 2, abs=1e-15)
    assert summary.config["partitions"] == [[0], [1]]


def test_sweep_deterministic_and_thread_safe():
    config = QuantifierConfig(kind="generalized_robustness")
    one = random_sweep(config, qubits=3, samples=40, seed=9)
    two = random_sweep(config, qubits=3, samples=40, seed=9)
    assert one == two


def test_sweep_forms_gamma_once_per_sample(monkeypatch):
    calls = []

    def counted(*args, _superposition=supbound._superposition):
        calls.append(args)
        return _superposition(*args)

    monkeypatch.setattr(supbound, "_superposition", counted)
    for kind in ("negativity", "generalized_robustness"):
        calls.clear()
        summary = random_sweep(QuantifierConfig(kind=kind), qubits=3, samples=5, seed=3)
        assert len(calls) == 5, kind
        assert len(summary.records) == (15 if kind == "negativity" else 5)


def test_sweep_row_limit_counts_rows_per_sample(monkeypatch):
    monkeypatch.setattr(supbound, "MAX_SWEEP_ROWS", 6)
    assert len(random_sweep(QuantifierConfig(), qubits=3, samples=2).records) == 6
    robustness = QuantifierConfig(kind="generalized_robustness")
    assert len(random_sweep(robustness, qubits=3, samples=6).records) == 6
    with pytest.raises(ValueError, match="exceeds the limit"):
        random_sweep(QuantifierConfig(), qubits=3, samples=3)
    with pytest.raises(ValueError, match="exceeds the limit"):
        random_sweep(robustness, qubits=3, samples=7)


def test_sweep_validates_sample_count():
    with pytest.raises(ValueError):
        random_sweep(QuantifierConfig(), qubits=2, samples=0)


@given(
    x=st.floats(-1e6, 1e6, allow_nan=False),
    y=st.floats(-1e6, 1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_scalar_splitting_lemma(x, y):
    assert max(0.0, x + y) <= max(0.0, x) + max(0.0, y) + 1e-9
