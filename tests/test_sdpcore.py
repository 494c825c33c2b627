"""The dense SDP kernel against an independent bisection-feasibility oracle."""

import numpy as np
import pytest

from entsup.linops import HermOp, part, single_cut_partitions
from entsup.qstate import Ket, Register, basis_ket, density, ghz, qubit_register
from entsup.sdpcore import (
    CHECK_EVERY,
    SdpSolution,
    build_robustness_sdp,
    check_certificate,
    solve,
)

from conftest import loop_partial_transpose, random_density_matrix, random_pure_amplitudes
from oracles import robustness_by_bisection


def bell_problem():
    return build_robustness_sdp(density(ghz(2, 0.0)), [part(0)])


def test_build_robustness_sdp_shapes():
    problem = bell_problem()
    assert problem.variable_dim == 4
    assert problem.transposed == ((), (0,))
    assert problem.offsets.shape == (2, 4, 4)

    ghz3 = density(ghz(3, 0.0))
    problem = build_robustness_sdp(ghz3, single_cut_partitions(ghz3.register))
    assert problem.variable_dim == 8
    assert problem.transposed == ((), (0,), (1,), (2,))

    with pytest.raises(ValueError):
        build_robustness_sdp(ghz3, [])


def test_gather_is_each_cones_partial_transpose(rng):
    reg = Register((2, 3, 2))
    rho = HermOp(reg, random_density_matrix(rng, 12))
    problem = build_robustness_sdp(rho, [part(0), part(1), part(0, 2)])
    stack = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    moved = problem.transpose(stack)
    for i, t in enumerate(problem.transposed):
        assert np.array_equal(moved[i], loop_partial_transpose(stack[i], reg.dims, t))
    assert np.array_equal(problem.transpose(moved), stack)
    assert np.array_equal(problem.offsets[0], np.zeros((12, 12)))
    assert all(np.array_equal(o, rho.matrix) for o in problem.offsets[1:])


def test_solve_bell_state():
    solution = solve(bell_problem(), tol=1e-6)
    assert solution.status == "optimal"
    assert solution.primal_value == pytest.approx(1.0, abs=1e-5)
    assert solution.gap <= 1e-6


def test_solve_product_state():
    rho = density(basis_ket(qubit_register(2), (0, 1)))
    solution = solve(build_robustness_sdp(rho, [part(0)]), tol=1e-6)
    assert solution.status == "optimal"
    assert solution.primal_value == pytest.approx(0.0, abs=1e-6)


def test_solve_unbalanced_pure_state():
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = 0.6, 0.8
    rho = density(Ket(qubit_register(2), amps))
    solution = solve(build_robustness_sdp(rho, [part(0)]), tol=1e-6)
    assert solution.primal_value == pytest.approx(0.96, abs=1e-4)


def test_weak_duality_and_feasibility():
    for phi in (0.0, 1.0):
        rho = density(ghz(2, phi))
        problem = build_robustness_sdp(rho, [part(0)])
        solution = solve(problem, tol=1e-6)
        assert solution.dual_value <= solution.primal_value + 1e-8
        for cone in problem.cones(solution.x_opt):
            assert np.linalg.eigvalsh(cone)[0] >= -1e-7


def test_constraint_order_invariance():
    rho = density(ghz(3, 0.3))
    cuts = single_cut_partitions(rho.register)
    a = solve(build_robustness_sdp(rho, cuts), tol=1e-6).primal_value
    b = solve(build_robustness_sdp(rho, cuts[::-1]), tol=1e-6).primal_value
    assert a == pytest.approx(b, abs=2e-6)


def test_certificate_accepts_optimal_solution():
    problem = bell_problem()
    solution = solve(problem, tol=1e-6)
    assert check_certificate(problem, solution, tol=1e-6)


def test_certificate_rejects_violated_constraint():
    problem = bell_problem()
    solution = solve(problem, tol=1e-6)
    spoiled = SdpSolution(
        x_opt=solution.x_opt - 0.1 * np.eye(4),
        primal_value=solution.primal_value - 0.4,
        dual_value=solution.dual_value - 0.4,
        gap=solution.gap,
        iterations=solution.iterations,
        status="optimal",
    )
    assert not check_certificate(problem, spoiled, tol=1e-6)


def test_certificate_rejects_large_gap():
    problem = bell_problem()
    solution = solve(problem, tol=1e-6)
    wide = SdpSolution(
        x_opt=solution.x_opt,
        primal_value=solution.primal_value,
        dual_value=solution.primal_value - 1e-5,
        gap=1e-5,
        iterations=solution.iterations,
        status="optimal",
    )
    assert not check_certificate(problem, wide, tol=1e-6)


def test_max_iter_status():
    solution = solve(bell_problem(), tol=1e-12, max_iter=30)
    assert solution.status == "max_iter"
    assert solution.dual_value <= solution.primal_value + 1e-8


def test_solve_matches_bisection_oracle(rng):
    reg = qubit_register(2)
    for trial in range(50):
        rho = density(Ket(reg, random_pure_amplitudes(rng, 4)))
        problem = build_robustness_sdp(rho, [part(0)])
        ours = solve(problem, tol=1e-6).primal_value
        oracle = robustness_by_bisection(rho.matrix, (2, 2), [[0]])
        assert ours == pytest.approx(oracle, abs=1e-4), f"trial {trial}"


def test_oracle_matches_schmidt_formula(rng):
    # Sanity-check the oracle itself: for two-qubit pure states the optimum
    # equals twice the product of the Schmidt coefficients.
    reg = qubit_register(2)
    for _ in range(5):
        amps = random_pure_amplitudes(rng, 4)
        rho = density(Ket(reg, amps))
        s = np.linalg.svd(amps.reshape(2, 2), compute_uv=False)
        expected = 2.0 * s[0] * s[1]
        oracle = robustness_by_bisection(rho.matrix, (2, 2), [[0]])
        assert oracle == pytest.approx(expected, abs=5e-5)


def _single_cut_oracle(amps, n):
    """Largest (sum of Schmidt coefficients)^2 - 1 over single-qubit cuts."""
    t = amps.reshape((2,) * n)
    return max(
        np.linalg.svd(np.moveaxis(t, q, 0).reshape(2, -1), compute_uv=False).sum() ** 2 - 1
        for q in range(n)
    )


@pytest.mark.parametrize("n", [2, 3])
def test_certificate_holds_on_random_states(n):
    rng = np.random.default_rng([7, n])
    reg = qubit_register(n)
    for trial in range(4):
        if trial % 2 == 0:
            amps = random_pure_amplitudes(rng, 2**n)
            rho = density(Ket(reg, amps))
        else:
            rho = HermOp(reg, random_density_matrix(rng, 2**n, rank=2))
        problem = build_robustness_sdp(rho, single_cut_partitions(reg))
        solution = solve(problem, tol=1e-6)
        assert check_certificate(problem, solution, tol=1e-6), f"trial {trial}"
        if trial % 2 == 0:
            assert solution.primal_value >= _single_cut_oracle(amps, n) - 1e-6


def test_one_batched_eigensolve_per_iteration(monkeypatch):
    rho = density(ghz(3, 0.4))
    problem = build_robustness_sdp(rho, single_cut_partitions(rho.register))
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        def counted(a, *args, _solve=getattr(np.linalg, name), _log=calls[name], **kwargs):
            _log.append(a.shape)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    solution = solve(problem, tol=1e-6)
    assert solution.status == "optimal"
    checks = -(-solution.iterations // CHECK_EVERY)
    assert calls["eigh"] == [(4, 8, 8)] * solution.iterations
    # Per certificate check: the stacked cones of the lift, then the dual scale.
    assert calls["eigvalsh"] == [(4, 8, 8), (8, 8)] * checks
    calls["eigvalsh"].clear()
    assert check_certificate(problem, solution, tol=1e-6)
    assert calls["eigvalsh"] == [(4, 8, 8)]


def test_max_iter_must_be_positive():
    with pytest.raises(ValueError):
        solve(bell_problem(), max_iter=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        solve(bell_problem(), tol=tol)


def test_dimension_limit_is_checked_before_building():
    rho = density(ghz(9, 0.0))
    with pytest.raises(ValueError, match="limited to dimension 256"):
        build_robustness_sdp(rho, [part(0)])
