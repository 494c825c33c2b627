"""The dense SDP kernel against an independent bisection-feasibility oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsup import sdpcore
from entsup.linops import HermOp, part, single_cut_partitions
from entsup.qstate import Ket, Register, basis_ket, density, ghz, qubit_register
from entsup.sdpcore import (
    CHECK_EVERY,
    MAX_DIMENSION,
    SdpProblem,
    SdpSolution,
    build_robustness_sdp,
    check_certificate,
    solve,
)

from conftest import loop_partial_transpose, random_density_matrix, random_pure_amplitudes
from oracles import graph_state, robustness_by_bisection


def check_iterations(iterations, budget):
    """The iterations at which a solve of ``iterations`` checks its certificate.

    Iteration i is checked once i - (last check) >= max(CHECK_EVERY, isqrt(last
    check)), and the budget's last iteration always is.
    """
    checks, last = [], 0
    for i in range(1, iterations + 1):
        if i - last >= max(CHECK_EVERY, math.isqrt(last)) or i == budget:
            checks.append(i)
            last = i
    return checks


def bell_problem():
    return build_robustness_sdp(density(ghz(2, 0.0)), [part(0)])


def random3_problem():
    """A random 3-qubit ket over all single cuts, slow enough to stop on a budget.

    Bell is certified to a gap of 1e-15 within 25 iterations. This state is left
    at a gap of about 0.034 after 25 iterations and 0.020 after 30; at tolerance
    1e-6 it is certified with a gap of 8e-7, far above the 1e-9 value check.
    """
    rng = np.random.default_rng([7, 3, 0])
    ket = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    return build_robustness_sdp(ket, single_cut_partitions(ket.register))


def test_build_robustness_sdp_shapes():
    problem = bell_problem()
    assert problem.variable_dim == 4
    assert problem.offsets.shape == (2, 4, 4)

    ghz3 = density(ghz(3, 0.0))
    problem = build_robustness_sdp(ghz3, single_cut_partitions(ghz3.register))
    assert problem.variable_dim == 8
    assert problem.offsets.shape == (4, 8, 8)

    with pytest.raises(ValueError):
        build_robustness_sdp(ghz3, [])


def test_gather_is_each_cones_partial_transpose(rng):
    reg = Register((2, 3, 2))
    rho = HermOp(reg, random_density_matrix(rng, 12))
    problem = build_robustness_sdp(rho, [part(0), part(1), part(0, 2)])
    stack = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    moved = problem.transpose(stack)
    for i, t in enumerate([(), (0,), (1,), (0, 2)]):
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
        dual_stack=solution.dual_stack,
        primal_value=solution.primal_value - 0.4,
        dual_value=solution.dual_value - 0.4,
        gap=solution.gap,
        iterations=solution.iterations,
        status="optimal",
    )
    assert not check_certificate(problem, spoiled, tol=1e-6)


def test_certificate_rejects_large_gap(monkeypatch):
    problem = random3_problem()
    solution = solve(problem, tol=1e-6)
    wide = SdpSolution(
        x_opt=solution.x_opt,
        dual_stack=solution.dual_stack,
        primal_value=solution.primal_value,
        dual_value=solution.primal_value - 1e-5,
        gap=1e-5,
        iterations=solution.iterations,
        status="optimal",
    )
    assert not check_certificate(problem, wide, tol=1e-6)
    monkeypatch.setattr(sdpcore, "MAX_ITERATIONS", 25)
    stopped = solve(problem, tol=1e-12)
    assert stopped.gap > 1e-6
    assert not check_certificate(problem, replace(stopped, gap=0.0), tol=1e-6)


def test_certificate_rejects_a_tampered_dual():
    problem = random3_problem()
    solution = solve(problem, tol=1e-6)
    z = solution.dual_stack
    # Cone 0 (X >= 0) has offset 0, so moving Z_0 along I keeps the dual value
    # and breaks only sum_i Z_i^{T_i} <= I, or only Z_0 >= 0.
    shift = np.zeros_like(z)
    shift[0] = np.eye(problem.variable_dim)
    tampered = [
        replace(solution, dual_stack=2.0 * z),
        replace(solution, dual_value=solution.primal_value, gap=0.0),
        replace(solution, dual_stack=z + shift),
        replace(solution, dual_stack=z - shift),
    ]
    for bad in tampered:
        assert not check_certificate(problem, bad, tol=1e-6)


def test_max_iter_status(monkeypatch):
    monkeypatch.setattr(sdpcore, "MAX_ITERATIONS", 30)
    solution = solve(random3_problem(), tol=1e-12)
    assert solution.status == "max_iter"
    assert solution.dual_value <= solution.primal_value + 1e-8


def test_a_budget_stop_checks_its_last_iteration_off_the_schedule(monkeypatch):
    # Iteration 30 is off the schedule (8, 16, 24, 32, ...), yet a budget of 30
    # checks it: four checks of two eigvalsh calls each, after the step's one.
    problem = random3_problem()
    assert 30 not in check_iterations(40, budget=None)
    assert check_iterations(30, budget=30) == [8, 16, 24, 30]
    monkeypatch.setattr(sdpcore, "MAX_ITERATIONS", 30)
    calls = []

    def counted(a, *args, _solve=np.linalg.eigvalsh, **kwargs):
        calls.append(a.shape)
        return _solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    solution = solve(problem, tol=1e-12)
    assert solution.status == "max_iter" and solution.iterations == 30
    assert calls == [(4, 8, 8)] + [(4, 8, 8), (8, 8)] * 4
    # The last check at 30 is the best one, since its gap is below the gap at 24.
    monkeypatch.setattr(sdpcore, "MAX_ITERATIONS", 24)
    assert solution.gap < solve(problem, tol=1e-12).gap


def test_the_slowest_measured_solve_fits_the_budget():
    # A random 4-qubit ket over all single cuts needs about 4 100 iterations at
    # 1e-6, the most of any measured solve; MAX_ITERATIONS must leave it room.
    ket = Ket(qubit_register(4), random_pure_amplitudes(np.random.default_rng(0), 16))
    problem = build_robustness_sdp(ket, single_cut_partitions(ket.register))
    solution = solve(problem, tol=1e-6)
    assert solution.status == "optimal"
    assert solution.primal_value == pytest.approx(2.0189389, abs=1e-6)
    assert check_certificate(problem, solution, tol=1e-6)


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


def test_iteration_count_on_random_pure_states():
    # The accelerated solver needs 772 iterations on these ten states, and 850
    # with a check every 25 iterations. The plain ADMM with the step set from
    # the cut negativities needed 2 925, and with residual balancing of the step 6 350.
    total = 0
    for s in range(10):
        rng = np.random.default_rng([7, 3, s])
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ket = Ket(qubit_register(3), v / np.linalg.norm(v))
        problem = build_robustness_sdp(ket, single_cut_partitions(ket.register))
        solution = solve(problem, tol=1e-6)
        assert solution.status == "optimal" and check_certificate(problem, solution, tol=1e-6)
        total += solution.iterations
    assert total <= 800


def test_iterations_on_the_benchmark_quantify_states():
    # The six random 3-qubit base states of perfbench's quantify workload
    # (seed [0, 3, index]) and GHZ_3 and GHZ_4, all single cuts at 1e-6. A
    # check every 25 iterations stopped them at 75, 75, 75, 100, 75, 75, 25
    # and 25 (525 in all), though they are first certifiable at 52-93, 8 and 9.
    kets = []
    for index in range(6):
        rng = np.random.default_rng([0, 3, index])
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        kets.append(Ket(qubit_register(3), v / np.linalg.norm(v)))
    kets += [ghz(3, 1.0), ghz(4, 1.0)]
    iterations = []
    for ket in kets:
        problem = build_robustness_sdp(ket, single_cut_partitions(ket.register))
        solution = solve(problem, tol=1e-6)
        assert solution.status == "optimal" and check_certificate(problem, solution, tol=1e-6)
        iterations.append(solution.iterations)
    assert iterations == [56, 56, 72, 97, 56, 56, 8, 16]


def test_near_product_states_are_certified_quickly():
    # |00> + eps|11> has optimum 2 eps / (1 + eps^2). A step of 1 needs about
    # 1/eps iterations (28 125 at eps = 1e-4); residual balancing needed
    # 3 325 over these six states, the step set from the negativity 325, and
    # that step with acceleration 150.
    total = 0
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = 1.0, eps
        ket = Ket(qubit_register(2), amps / np.linalg.norm(amps))
        problem = build_robustness_sdp(ket, [part(0), part(1)])
        solution = solve(problem, tol=1e-6)
        assert solution.status == "optimal" and check_certificate(problem, solution, tol=1e-6)
        assert solution.primal_value == pytest.approx(2 * eps / (1 + eps**2), abs=1e-6)
        total += solution.iterations
    assert total <= 300


def test_safeguard_keeps_extrapolation_from_stalling():
    # Acceptance criterion 7's third state. The safeguard drops one extrapolated
    # point on the way; at tolerance 1e-12 the solver without it needed 50.
    gen = np.random.default_rng(707)
    for _ in range(3):
        amps = random_pure_amplitudes(gen, 4)
    problem = build_robustness_sdp(density(Ket(qubit_register(2), amps)), [part(0)])
    for tol, budget in ((1e-6, 100), (1e-12, 25)):
        solution = solve(problem, tol=tol)
        assert solution.status == "optimal" and solution.iterations <= budget, tol
        assert check_certificate(problem, solution, tol=tol)


@given(
    n=st.integers(2, 3),
    rank=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.none(), st.integers(25, 50)),
)
@settings(max_examples=40, deadline=None)
def test_every_solve_return_carries_its_certificate(n, rank, seed, budget):
    # Kets (rank 0) and rank-r densities over all single cuts; a certified stop
    # and a budget stop alike return points that check_certificate accepts.
    rng = np.random.default_rng(seed)
    reg = qubit_register(n)
    if rank == 0:
        state = Ket(reg, random_pure_amplitudes(rng, 2**n))
    else:
        state = HermOp(reg, random_density_matrix(rng, 2**n, rank=rank))
    problem = build_robustness_sdp(state, single_cut_partitions(reg))
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(sdpcore, "MAX_ITERATIONS", budget)
        solution = solve(problem, tol=1e-6)
    assert solution.status == "optimal" or solution.iterations == budget
    assert check_certificate(problem, solution, tol=max(1e-6, solution.gap))


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
    checks = check_iterations(solution.iterations, sdpcore.MAX_ITERATIONS)
    assert checks[-1] == solution.iterations
    checks = len(checks)
    assert calls["eigh"] == [(4, 8, 8)] * solution.iterations
    # The cones at X = 0 set the step; then, per certificate check, the stacked
    # cones of the lift and the dual scale.
    assert calls["eigvalsh"] == [(4, 8, 8)] + [(4, 8, 8), (8, 8)] * checks
    calls["eigvalsh"].clear()
    assert check_certificate(problem, solution, tol=1e-6)
    # The primal cones, the dual stack and its summed pull-back.
    assert calls["eigvalsh"] == [(4, 8, 8), (4, 8, 8), (8, 8)]


def _pair(theta):
    return np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])


# Kets with real densities: GHZ at phi = 0 and pi, Schmidt pairs and a product
# of two, and the graph states of the 3- and 4-qubit line and the 4-qubit ring.
REAL_KETS = {
    **{f"ghz{n}{sign}": ghz(n, orthogonal=sign == "-") for n in (2, 3, 4) for sign in "+-"},
    "pair-0.3": Ket(qubit_register(2), _pair(0.3)),
    "pair-0.05": Ket(qubit_register(2), _pair(0.05)),
    "pairs-0.2-0.7": Ket(qubit_register(4), np.kron(_pair(0.2), _pair(0.7))),
    "line-3": Ket(qubit_register(3), graph_state(3, [(0, 1), (1, 2)])),
    "line-4": Ket(qubit_register(4), graph_state(4, [(0, 1), (1, 2), (2, 3)])),
    "ring-4": Ket(qubit_register(4), graph_state(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
}


@pytest.mark.parametrize("name", REAL_KETS)
def test_a_real_state_solves_in_real_arithmetic(name):
    ket = REAL_KETS[name]
    problem = build_robustness_sdp(ket, single_cut_partitions(ket.register))
    assert problem.offsets.dtype == np.float64
    as_complex = SdpProblem(problem.offsets.astype(np.complex128), problem.gather)
    real, full = solve(problem, tol=1e-6), solve(as_complex, tol=1e-6)
    assert real.status == full.status == "optimal"
    assert real.x_opt.dtype == real.dual_stack.dtype == np.float64
    assert real.primal_value == pytest.approx(full.primal_value, abs=1e-6)
    assert check_certificate(problem, real, tol=1e-6)
    assert check_certificate(as_complex, real, tol=1e-6)


def test_a_complex_state_keeps_complex_arithmetic():
    # ghz(2, pi) carries an imaginary part of about 1e-16, so it stays complex.
    for state in (ghz(2, math.pi), density(ghz(3, 0.4))):
        problem = build_robustness_sdp(state, single_cut_partitions(state.register))
        assert problem.offsets.dtype == np.complex128


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        solve(bell_problem(), tol=tol)


def test_dimension_limit_is_checked_before_building():
    rho = density(ghz(9, 0.0))
    with pytest.raises(ValueError, match=f"limited to dimension {MAX_DIMENSION},"):
        build_robustness_sdp(rho, [part(0)])
