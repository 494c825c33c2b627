"""Negativity, Peres tests, mixing, and robustness bounds."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entsup import linops, quantifiers, sdpcore
from entsup.linops import (
    PSD_TOL,
    HermOp,
    Partition,
    part,
    single_cut_partitions,
)
from entsup.qstate import (
    Ket,
    Register,
    RegisterMismatchError,
    basis_ket,
    density,
    ghz,
    qubit_register,
)
from entsup.quantifiers import (
    DIAGONAL_TOL,
    RobustnessBounds,
    l1_bound,
    mix,
    negativity,
    ppt_check,
    pt_profile,
    rg_bounds_pure,
    rg_lower_pure,
    rg_lower_via_witness,
    rg_ppt_sdp,
    rg_upper_pure,
    rg_upper_via_mixing,
    separability_certificate_diagonal,
)
from entsup.witnesses import (
    WitnessClassError,
    Witness,
    ghz_witness,
    negativity_optimal_witness,
    zero_witness,
)

from conftest import cut_spectrum, loop_partial_transpose, random_pure_amplitudes, unit_kets
from oracles import diagonal_mixing_scan, local_frame, schmidt_decomposition, tensor


def two_qubit_pure(a, b):
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = a, b
    return density(Ket(qubit_register(2), amps))


def test_negativity_examples():
    # Oracle: explicit matrix + loop transpose + direct eigensolve.
    rho = two_qubit_pure(0.8, 0.6)  # 0.8|00> + 0.6|11>
    rt = loop_partial_transpose(rho.matrix, (2, 2), [0])
    oracle = float(np.sum(np.clip(-np.linalg.eigvalsh(rt), 0, None)))
    assert oracle == pytest.approx(0.48, abs=1e-12)
    assert negativity(rho, part(0)) == pytest.approx(oracle, abs=1e-12)

    assert negativity(density(basis_ket(qubit_register(2), (0, 1))), part(0)) == 0.0

    for n in range(2, 7):
        rho = density(ghz(n, 0.3))
        for cut in single_cut_partitions(rho.register):
            assert negativity(rho, cut) == pytest.approx(0.5, abs=1e-12)


def test_negativity_requires_proper_partition():
    rho = density(ghz(2, 0.0))
    with pytest.raises(ValueError):
        negativity(rho, part())
    with pytest.raises(ValueError):
        negativity(rho, part(0, 1))


def test_negativity_matches_witness_value(rng):
    reg = qubit_register(2)
    for _ in range(100):
        rho = density(Ket(reg, random_pure_amplitudes(rng, 4)))
        w = negativity_optimal_witness(rho, part(0))
        lhs = negativity(rho, part(0))
        rhs = -float(np.trace(w.op.matrix @ rho.matrix).real)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_negativity_zero_iff_ppt(rng):
    reg = qubit_register(2)
    tol = 1e-9
    for _ in range(40):
        if rng.uniform() < 0.5:
            rho = density(Ket(reg, random_pure_amplitudes(rng, 4)))
        else:
            # random diagonal-product mixture: separable, hence PPT
            probs = rng.dirichlet(np.ones(4))
            rho = HermOp(reg, np.diag(probs.astype(complex)))
        for cut in single_cut_partitions(reg):
            n_val = negativity(rho, cut)
            ppt = ppt_check(rho, [cut])[0]
            assert (n_val <= tol) == ppt


def test_ppt_profile_of_ghz_mixture():
    grid = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1)
    for n in range(2, 7):
        rho = density(ghz(n, 0.4))
        pi = density(ghz(n, 0.4, orthogonal=True))
        cuts = single_cut_partitions(rho.register)
        for s in grid:
            sigma = mix(rho, pi, s)
            flags = ppt_check(sigma, cuts)
            assert all(flags) == (s == 1.0)
            # minimum PT eigenvalue = -|1-s| / (2(1+s)), via the loop oracle
            rt = loop_partial_transpose(sigma.matrix, rho.register.dims, [0])
            lowest = float(np.linalg.eigvalsh(rt)[0])
            assert lowest == pytest.approx(-abs(1 - s) / (2 * (1 + s)), abs=1e-9)


def test_ppt_check_product_state():
    rho = density(basis_ket(qubit_register(3), (0, 1, 0)))
    assert ppt_check(rho, single_cut_partitions(rho.register)) == [True] * 3


def test_mix_examples(rng):
    rho = density(ghz(3, 0.8))
    pi = density(ghz(3, 0.8, orthogonal=True))
    assert np.array_equal(mix(rho, pi, 0.0).matrix, rho.matrix)

    sigma = mix(rho, pi, 1.0)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(sigma.matrix, expected, atol=1e-15)

    for _ in range(5):
        s = rng.uniform(0, 10)
        rho2 = density(Ket(qubit_register(2), random_pure_amplitudes(rng, 4)))
        pi2 = density(Ket(qubit_register(2), random_pure_amplitudes(rng, 4)))
        out = mix(rho2, pi2, s)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12

    with pytest.raises(ValueError):
        mix(rho, pi, -0.1)
    with pytest.raises(RegisterMismatchError):
        mix(rho, density(ghz(2, 0.8)), 1.0)


def test_diagonal_certificate():
    rho = density(ghz(4, 0.2))
    pi = density(ghz(4, 0.2, orthogonal=True))
    assert separability_certificate_diagonal(mix(rho, pi, 1.0))
    assert not separability_certificate_diagonal(rho)
    d = rho.register.size
    maxmix = HermOp(rho.register, np.eye(d, dtype=complex) / d)
    assert separability_certificate_diagonal(maxmix)


def test_rg_upper_via_mixing_ghz_exact():
    for n in (2, 5):
        for phi in (0.0, math.pi / 4, math.pi):
            rho = density(ghz(n, phi))
            pi = density(ghz(n, phi, orthogonal=True))
            bounds = rg_upper_via_mixing(rho, pi)
            assert bounds.upper == pytest.approx(1.0, abs=1e-9)
            assert bounds.certified_upper


def test_rg_upper_trivial_and_unknown():
    reg = qubit_register(2)
    diag = HermOp(reg, np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    pi = density(ghz(2, 0.0))
    assert rg_upper_via_mixing(diag, pi).upper == 0.0

    rho = density(ghz(2, 0.0))
    self_mix = rg_upper_via_mixing(rho, rho)
    assert self_mix.upper is None
    assert not self_mix.certified_upper
    with pytest.raises(RegisterMismatchError):
        rg_upper_via_mixing(rho, density(ghz(3, 0.0)))


def test_rg_upper_closed_form_special_cases():
    bell = density(ghz(2, 0.3))
    assert rg_upper_via_mixing(bell, bell).upper is None
    assert diagonal_mixing_scan(bell.matrix, bell.matrix, DIAGONAL_TOL, 4.0) is None

    for n in (2, 3, 5):
        for phi in (0.0, 0.7, math.pi):
            rho = density(ghz(n, phi))
            pi = density(ghz(n, phi, orthogonal=True))
            assert rg_upper_via_mixing(rho, pi).upper == 1.0


def opposed_coherence_pair(rng, eps, kappa, noise):
    """Diagonally dominant rho = P + eps*C and pi = Q - kappa*C + noise*N on two qubits.

    C and N are off-diagonal Hermitian with entries of modulus at most 1, so
    both are densities (Gershgorin) and, without noise, rho + s*pi is
    diagonal exactly at s = eps / kappa.
    """
    def off_diagonal():
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        m = (m + m.conj().T) / 2
        np.fill_diagonal(m, 0.0)
        return m / np.max(np.abs(m))

    p, q, c = rng.dirichlet([50.0] * 4), rng.dirichlet([50.0] * 4), off_diagonal()
    reg = qubit_register(2)
    rho = HermOp(reg, np.diag(p) + eps * c)
    pi = HermOp(reg, np.diag(q) - kappa * c + noise * off_diagonal())
    return rho, pi


def test_rg_upper_via_mixing_least_squares_weight(rng):
    for _ in range(50):
        eps, kappa = rng.uniform(0.005, 0.03), rng.uniform(0.01, 0.03)
        rho, pi = opposed_coherence_pair(rng, eps, kappa, 0.0)
        bounds = rg_upper_via_mixing(rho, pi)
        assert bounds.upper == pytest.approx(eps / kappa, rel=1e-12)
    # Coherences proportional only up to a perturbation the 1e-10 certificate absorbs.
    for _ in range(20):
        rho, pi = opposed_coherence_pair(rng, 0.01, 0.02, 5e-11)
        s = rg_upper_via_mixing(rho, pi).upper
        assert s == pytest.approx(0.5, rel=1e-8)
        assert separability_certificate_diagonal(mix(rho, pi, s))


def l1_certificate(psi, frames):
    """Dense D = ||c||_1 U diag(|c|) U^dag, where c = U^dag psi and U = kron(frames)."""
    u = functools.reduce(np.kron, frames)
    c = u.conj().T @ psi.amplitudes
    return np.sum(np.abs(c)) * (u * np.abs(c)) @ u.conj().T


def site_eigenbases(rho):
    """Eigenvectors of every site's reduced density, by tracing out the others."""
    dims = rho.register.dims
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    frames = []
    for q in range(n):
        cols = [n + k if k == q else k for k in range(n)]
        reduced = np.einsum(t, list(range(n)) + cols, [q, n + q])
        frames.append(np.linalg.eigh(reduced)[1])
    return frames


def check_l1_upper(ket, tol):
    """The l1 bound dominates the PPT SDP and every single-cut value, with D >= rho."""
    upper, basis = rg_upper_pure(ket)
    rho = density(ket)
    cuts = single_cut_partitions(ket.register)
    assert upper >= rg_ppt_sdp(rho, cuts, tol=tol) - tol
    assert upper >= max(np.sum(schmidt_decomposition(ket, p)[0]) ** 2 - 1 for p in cuts) - 1e-12
    computational = [np.eye(d) for d in ket.register.dims]
    traces = []
    for frames in (computational, site_eigenbases(rho)):
        d_op = l1_certificate(ket, frames)
        assert np.linalg.eigvalsh(d_op - rho.matrix)[0] >= -1e-12
        traces.append(np.trace(d_op).real - 1)
    assert basis in ("l1-computational", "l1-local")
    assert upper <= max(0.0, traces[0]) + 1e-12
    return upper, basis, traces


_amplitude = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@given(amps=st.lists(_amplitude, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_rg_upper_pure_is_sound_on_two_qubits(amps):
    v = np.array(amps)
    assume(np.linalg.norm(v) > 0.1)
    check_l1_upper(Ket(qubit_register(2), v / np.linalg.norm(v)), 1e-6)


def _in_random_local_frame(rng, amplitudes):
    n = int(math.log2(amplitudes.size))
    t = amplitudes.reshape((2,) * n)
    for q in range(n):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
    return Ket(qubit_register(n), t.reshape(-1))


@pytest.mark.parametrize("n", [3, 4])
def test_rg_upper_pure_is_sound_in_random_local_frames(n):
    rng = np.random.default_rng(n)
    w = np.zeros(2**n, dtype=complex)
    w[[2**q for q in range(n)]] = 1 / math.sqrt(n)
    zeros = basis_ket(qubit_register(n - 2), (0,) * (n - 2))
    bell_pair = np.kron(ghz(2, 0.0).amplitudes, zeros.amplitudes)
    states = [w, ghz(n, 0.3).amplitudes, bell_pair, random_pure_amplitudes(rng, 2**n)]
    for amplitudes in states:
        ket = _in_random_local_frame(rng, amplitudes)
        upper, basis, traces = check_l1_upper(ket, 1e-6)
        # Reduced spectra of W and of the Haar state are not degenerate, so the
        # test's eigenbases are the function's and both candidates are known.
        if amplitudes is w or amplitudes is states[-1]:
            assert upper == pytest.approx(min(traces), abs=1e-9)
            assert basis == ("l1-computational", "l1-local")[int(np.argmin(traces))]


def test_rg_upper_pure_is_exact_on_two_qubits(rng):
    reg = qubit_register(2)
    for _ in range(10):
        ket = Ket(reg, random_pure_amplitudes(rng, 4))
        upper, basis = rg_upper_pure(ket)
        assert basis == "l1-local"
        schmidt_sum = np.sum(schmidt_decomposition(ket, part(0))[0])
        assert upper == pytest.approx(schmidt_sum**2 - 1, abs=1e-12)
        assert upper == pytest.approx(rg_ppt_sdp(density(ket), [part(0)]), abs=1e-6)


def test_rg_upper_pure_special_cases():
    # Every site's reduced density of a GHZ state is diagonal, so the search keeps the
    # computational basis (on a tie) and returns its closed form bit for bit.
    for n in range(2, 17):
        for phi in [k * math.pi / 8 for k in range(16)] + [0.3, 0.7, 5.9]:
            gamma = ghz(n, phi)
            assert rg_upper_pure(gamma) == (l1_bound(gamma.amplitudes), "l1-computational")
            assert l1_bound(gamma.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert rg_upper_pure(basis_ket(qubit_register(3), (0, 1, 1))) == (0.0, "l1-computational")
    unnormalised = Ket(qubit_register(2), 3.0 * ghz(2, 0.0).amplitudes)
    assert rg_upper_pure(unnormalised)[0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "matrix",
    [np.diag([1.0, 0.5, 0.25, 0.25]), np.diag([1.2, -0.2, 0.0, 0.0])],
    ids=["trace-2", "not-psd"],
)
def test_bad_density_is_rejected(matrix):
    bad = HermOp(qubit_register(2), matrix.astype(complex))
    good = density(ghz(2, 0.0))
    calls = [
        lambda: negativity(bad, part(0)),
        lambda: ppt_check(bad, [part(0)]),
        lambda: negativity_optimal_witness(bad, part(0)),
        lambda: rg_upper_via_mixing(bad, good),
        lambda: rg_upper_via_mixing(good, bad),
        lambda: rg_ppt_sdp(bad, [part(0)]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_rg_lower_via_witness_examples():
    for n in (2, 4):
        rho = density(ghz(n, 0.9))
        bounds = rg_lower_via_witness(rho, ghz_witness(n, 0.9))
        assert bounds.lower == pytest.approx(1.0)

        d = 2**n
        maxmix = HermOp(rho.register, np.eye(d, dtype=complex) / d)
        clamped = rg_lower_via_witness(maxmix, ghz_witness(n, 0.9))
        assert clamped.lower == 0.0

        assert rg_lower_via_witness(rho, zero_witness(rho.register)).lower == 0.0


def test_rg_lower_requires_cap_identity():
    rho = density(ghz(2, 0.0))
    uncapped = Witness(negativity_optimal_witness(rho, part(0)).op)
    with pytest.raises(WitnessClassError):
        rg_lower_via_witness(rho, uncapped)


def test_rg_ppt_sdp_trivial_cases():
    reg = qubit_register(2)
    prod = density(basis_ket(reg, (0, 1)))
    assert rg_ppt_sdp(prod, [part(0)]) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        rg_ppt_sdp(prod, [])


def test_rg_ppt_sdp_rejects_oversize():
    rho = density(ghz(9, 0.0))  # above the SDP's dimension limit
    d = rho.register.size
    assert d == 512
    with pytest.raises(ValueError):
        rg_ppt_sdp(rho, single_cut_partitions(rho.register))


def test_sandwich_consistency_on_ghz():
    for n in (2, 3, 4):
        rho = density(ghz(n, 0.5))
        lower = rg_lower_via_witness(rho, ghz_witness(n, 0.5)).lower
        upper = rg_upper_via_mixing(
            rho, density(ghz(n, 0.5, orthogonal=True))
        ).upper
        sdp = rg_ppt_sdp(rho, single_cut_partitions(rho.register))
        assert lower <= sdp + 1e-6
        assert sdp <= upper + 1e-6


def test_robustness_bounds_validation():
    with pytest.raises(ValueError):
        RobustnessBounds(lower=-0.1)
    with pytest.raises(RuntimeError, match="upper bound 0.5 below lower bound 1.0"):
        RobustnessBounds(lower=1.0, upper=0.5)
    b = RobustnessBounds(lower=0.3, upper=0.4)
    assert (b.lower, b.upper) == (0.3, 0.4) and b.certified_upper
    assert not RobustnessBounds(lower=0.3).certified_upper
    lifted = RobustnessBounds(lower=0.5, upper=0.5 - 1e-13)
    assert lifted.upper == lifted.lower == 0.5 and lifted.certified_upper
    # report() writes quantify's robustness block: the bracket, then the SDP's items.
    bracket = ["lower", "lower_witness_cut", "upper", "upper_certified", "upper_candidate"]
    assert RobustnessBounds(0.5).report() == {
        "lower": 0.5, "lower_witness_cut": None, "upper": None,
        "upper_certified": False, "upper_candidate": None, "ppt_sdp": None, "exact": False,
    }
    gen = np.random.default_rng(0)
    while True:  # the first two-qubit ket whose l1 bound rounds below its witness bound
        v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        ket = Ket(qubit_register(2), v / np.linalg.norm(v))
        (lower, cut), (upper, basis) = rg_lower_pure(ket), rg_upper_pure(ket)
        if upper < lower:
            break
    block = RobustnessBounds(lower, upper, cut, basis).report()
    assert block["upper"] == block["lower"] == lower and block["upper_certified"] is True
    certified = RobustnessBounds(lower, upper, cut, basis, ppt_sdp=0.25)
    stopped = RobustnessBounds(lower, upper, ppt_sdp_best=0.26, ppt_sdp_error="stopped")
    refused = RobustnessBounds(lower, upper, ppt_sdp_error="limited to dimension 64, got 128")
    closed = RobustnessBounds(lower, upper, cut, basis, ppt_sdp=lower, exact=True)
    for bounds, items in (
        (certified, ["ppt_sdp", "exact"]),
        (stopped, ["ppt_sdp", "exact", "ppt_sdp_best", "ppt_sdp_error"]),
        (refused, ["ppt_sdp", "exact", "ppt_sdp_error"]),
        (closed, ["ppt_sdp", "exact"]),
    ):
        assert list(bounds.report()) == bracket + items
        assert [bounds.report()[key] for key in items] == [getattr(bounds, key) for key in items]


def _ket(n, support, values):
    amps = np.zeros(2**n)
    amps[support] = values
    return Ket(qubit_register(n), amps / np.linalg.norm(amps))


def test_a_bracket_fixes_the_ppt_sdp_only_closed_and_over_either_side_of_its_witness_cut(
    monkeypatch,
):
    # Closed within tol, and lower is 0 or its cut or that cut's complement is listed.
    solves = []

    def solve(state, partitions, tol=None):
        solves.append((sorted(map(sorted, (p.transposed for p in partitions))), tol))
        return 1.25

    monkeypatch.setattr(quantifiers, "rg_ppt_sdp", solve)
    singles = single_cut_partitions(qubit_register(3))
    near = _ket(3, [0, 7, 3], [1.0, 1.0, 1e-3])  # GHZ3 + 1e-3|011>: witness cut [1]
    closed = rg_bounds_pure(near, singles, tol=1e-2)
    assert closed.lower_witness_cut == [1] and 1e-3 < closed.upper - closed.lower < 1e-2
    assert closed.exact and closed.ppt_sdp == closed.upper and solves == []
    opened = rg_bounds_pure(near, singles, tol=1e-3)  # open at the tighter tolerance
    assert not opened.exact and opened.ppt_sdp == 1.25
    assert solves == [([[0], [1], [2]], 1e-3)]
    # [0, 2] is the complement of [1] on three qubits: the same cone, so closed.
    assert rg_bounds_pure(near, [part(0), part(0, 2)], tol=1e-2).exact
    # On four qubits the complement of [1] is [0, 2, 3]: neither side is listed, so it solves.
    near4 = _ket(4, [0, 15, 7], [1.0, 1.0, 1e-3])
    four = rg_bounds_pure(near4, [part(0), part(0, 2)], tol=1e-2)
    assert four.lower_witness_cut == [1] and four.upper - four.lower < 1e-2
    assert not four.exact and four.ppt_sdp == 1.25 and solves[-1] == ([[0], [0, 2]], 1e-2)
    assert rg_bounds_pure(near4, [part(0, 2, 3)], tol=1e-2).exact
    # lower 0 needs no witness; equality closes at any tolerance.
    product = rg_bounds_pure(basis_ket(qubit_register(3), (1, 0, 1)), [part(2)], tol=1e-300)
    assert (product.lower, product.lower_witness_cut, product.ppt_sdp, product.exact) == (
        0.0, None, 0.0, True
    )
    tight = rg_bounds_pure(ghz(3, 0.7), [part(0)], tol=1e-300)
    assert tight.upper == tight.lower and tight.exact and tight.ppt_sdp == tight.upper
    assert len(solves) == 2

    def stop(*args, **kwargs):
        raise sdpcore.SolverFailureError("robustness SDP stopped with status 'max_iter'", 0.97)

    monkeypatch.setattr(quantifiers, "rg_ppt_sdp", stop)
    w3 = _ket(3, [1, 2, 4], [1.0, 1.0, 1.0])  # open: lower 2 sqrt(2)/3, upper 2
    stopped = rg_bounds_pure(w3, singles)
    assert (stopped.ppt_sdp, stopped.ppt_sdp_best, stopped.exact) == (None, 0.97, False)
    assert stopped.ppt_sdp_error == "robustness SDP stopped with status 'max_iter'"
    assert stopped.lower == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
    monkeypatch.undo()
    w7 = _ket(7, [1 << q for q in range(7)], [1.0] * 7)  # open, above MAX_DIMENSION
    refused = rg_bounds_pure(w7, single_cut_partitions(w7.register))
    assert (refused.ppt_sdp, refused.ppt_sdp_best, refused.exact) == (None, None, False)
    assert refused.ppt_sdp_error == "robustness SDP limited to dimension 64, got 128"
    assert refused.upper - refused.lower > 1e-4


def test_rg_bounds_pure_refuses_the_cut_lists_a_solve_refuses():
    # A product ket's bracket is closed, so only the cut-list rule can refuse these.
    ket = basis_ket(qubit_register(3), (0, 1, 0))
    assert rg_bounds_pure(ket, [part(0)]).exact
    for cuts in ([], [part(3)], [part(0, 1, 2)], [part(1), part()]):
        with pytest.raises(ValueError) as solve:
            sdpcore.build_robustness_sdp(ket, cuts)
        with pytest.raises(ValueError) as bounds:
            rg_bounds_pure(ket, cuts)
        assert type(bounds.value) is type(solve.value) and str(bounds.value) == str(solve.value)
    assert str(bounds.value) == "entanglement tests need a nonempty proper subset of subsystems"
    with pytest.raises(ValueError, match="^need at least one partition$"):
        rg_bounds_pure(ket, [])


@given(
    n=st.integers(3, 10),
    theta=st.floats(0.0, math.pi / 2),
    phi=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=24, deadline=None)
def test_the_tightness_class_reads_exact_and_ordered(n, theta, phi):
    # cos t|0...0> + e^{i phi} sin t|1...1>: lower = upper = sin 2t in exact arithmetic,
    # and rounding can leave upper a few ulps below lower before the bracket lifts it.
    amps = np.zeros(2**n, dtype=complex)
    amps[0], amps[-1] = math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)
    ket = Ket(qubit_register(n), amps)
    bounds = rg_bounds_pure(ket, single_cut_partitions(ket.register))
    assert bounds.exact and bounds.ppt_sdp == bounds.upper >= bounds.lower
    assert bounds.lower == pytest.approx(math.sin(2 * theta), abs=1e-12)


def test_pure_bounds_bracket_the_ppt_sdp():
    # quantify's bracket against its SDP at the default tolerance, 1e-6 at d <= 16.
    # The SDP's value is a primal one, so it may pass upper by up to that tolerance.
    tol = 1e-6
    for n in (2, 3):
        for s in range(30):
            ket = Ket(qubit_register(n), random_pure_amplitudes(np.random.default_rng([7, n, s]), 2**n))
            bounds = RobustnessBounds(rg_lower_pure(ket)[0], rg_upper_pure(ket)[0])
            sdp = rg_ppt_sdp(ket, single_cut_partitions(ket.register))
            assert bounds.lower <= sdp + tol, (n, s)
            assert sdp <= bounds.upper + tol, (n, s)


def _all_cuts(register):
    """Every nonempty proper subset of the sites, as partitions."""
    n = register.nsub
    return [
        Partition(frozenset(i for i in range(n) if mask >> i & 1))
        for mask in range(1, 2**n - 1)
    ]


@st.composite
def _ket_and_cuts(draw):
    """A unit ket and a list of nonempty proper subsets of its sites, of mixed sizes."""
    ket = draw(unit_kets())
    n = ket.register.nsub
    cut = st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    return ket, [Partition(frozenset(c)) for c in draw(st.lists(cut, min_size=1, max_size=5))]


@given(case=_ket_and_cuts())
@settings(max_examples=200, deadline=None)
def test_ket_pt_profile_matches_dense(case):
    # One call reads every cut, its shorter spectra zero-padded to the longest;
    # the padding changes no bit of any cut's values.
    ket, cuts = case
    profile = pt_profile(ket, cuts)
    per_cut = [pt_profile(ket, [cut])[0] for cut in cuts]
    assert [(v.hex(), f) for v, f in profile] == [(v.hex(), f) for v, f in per_cut]
    dense = pt_profile(density(ket), cuts)
    for cut, (value, flag), (dense_value, dense_flag) in zip(cuts, profile, dense):
        assert value == pytest.approx(dense_value, abs=1e-12)
        s = cut_spectrum(ket, cut)
        if abs(s[0] * s[1] - PSD_TOL) > 1e-12:
            assert flag == dense_flag


@pytest.mark.parametrize(
    "dims",
    [(2,) * 3, (2,) * 12, (2,) * 13, (3, 2, 2)],
    ids=["3-qubits", "12-qubits-gathered", "13-qubits-strided", "3-2-2"],
)
def test_ket_readers_read_all_their_cuts_in_one_call(monkeypatch, dims):
    # 12 qubits gather the one-qubit cuts' rows, 13 read them through strided views.
    reg = Register(dims)
    ket = Ket(reg, random_pure_amplitudes(np.random.default_rng(reg.nsub), reg.size))
    spectra, calls = linops.schmidt_spectra, []
    monkeypatch.setattr(
        linops, "schmidt_spectra", lambda *args: calls.append(args[2]) or spectra(*args)
    )
    cuts = single_cut_partitions(reg) + [part(0, 1)]
    assert len(pt_profile(ket, cuts)) == len(cuts)
    assert calls == [cuts]
    calls.clear()
    rg_lower_pure(ket)
    assert calls == [single_cut_partitions(reg)]


def _w3():
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1 / math.sqrt(3)
    return Ket(qubit_register(3), amps)


@pytest.mark.parametrize(
    "ket, expected",
    [
        (basis_ket(qubit_register(3), (0, 1, 0)), lambda cut: (0.0, True)),
        (ghz(3, 0.7), lambda cut: (0.5, False)),
        (_w3(), lambda cut: (math.sqrt(2) / 3, False)),
        (
            tensor(ghz(2, 0.0), basis_ket(qubit_register(1), (0,))),
            lambda cut: (0.0, True) if cut.transposed in ({2}, {0, 1}) else (0.5, False),
        ),
    ],
    ids=["product", "ghz", "w", "bell-zero"],
)
def test_ket_pt_profile_fixed_cases(ket, expected):
    cuts = _all_cuts(ket.register)
    profile = pt_profile(ket, cuts)
    dense = pt_profile(density(ket), cuts)
    assert pt_profile(ket, []) == [] and ppt_check(ket, []) == []
    for cut, (value, flag), (dense_value, dense_flag) in zip(cuts, profile, dense):
        want_value, want_flag = expected(cut)
        assert value == pytest.approx(want_value, abs=1e-12)
        assert value == pytest.approx(dense_value, abs=1e-12)
        assert flag is want_flag and dense_flag is want_flag


def test_ket_profile_accepts_the_density_band():
    # The ket path checks <psi|psi> within DENSITY_TOL, as the dense path
    # checks the trace, and never rescales the state.
    base = Ket(qubit_register(3), random_pure_amplitudes(np.random.default_rng(3), 8))
    inside = Ket(base.register, base.amplitudes * math.sqrt(1 + 5e-10))
    ket_profile = pt_profile(inside, single_cut_partitions(inside.register))
    dense_profile = pt_profile(density(inside), single_cut_partitions(inside.register))
    for (value, flag), (dense_value, dense_flag) in zip(ket_profile, dense_profile):
        assert value == pytest.approx(dense_value, abs=1e-12) and flag == dense_flag
    outside = Ket(base.register, base.amplitudes * math.sqrt(1 + 2e-9))
    for state in (outside, density(outside)):
        with pytest.raises(ValueError, match="trace"):
            pt_profile(state, [part(0)])


def _check_local_unitary_and_permutation_invariance(n, seed, support):
    """A random local frame and qubit permutation move each single cut's negativity and
    PPT flag with the qubits, leave the witness lower bound alone, and keep upper >= lower."""
    rng = np.random.default_rng(seed)
    amps = random_pure_amplitudes(rng, 2**n)
    amps[rng.permutation(2**n)[support:]] = 0.0  # low-rank and product cuts too
    ket = Ket(qubit_register(n), amps / np.linalg.norm(amps))
    amps, perm = local_frame(ket.amplitudes, n, rng)  # new qubit j is old qubit perm[j]
    moved = Ket(ket.register, amps)

    cuts = single_cut_partitions(ket.register)
    before, after = pt_profile(ket, cuts), pt_profile(moved, cuts)
    for j, (value, flag) in enumerate(after):
        old_value, old_flag = before[perm[j]]
        assert value == pytest.approx(old_value, abs=1e-12)
        s = cut_spectrum(ket, cuts[perm[j]])
        if abs(s[0] * s[1] - PSD_TOL) > 1e-12:
            assert flag == old_flag
    lower = rg_lower_pure(ket)[0]
    assert rg_lower_pure(moved)[0] == pytest.approx(lower, abs=1e-12)
    assert rg_upper_pure(moved)[0] >= lower - 1e-12


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=300, deadline=None)
def test_local_unitaries_and_qubit_permutations_move_every_cut(n, seed, data):
    support = data.draw(st.integers(1, 2**n))
    _check_local_unitary_and_permutation_invariance(n, seed, support)


def test_invariance_on_the_strided_route():
    # 13 qubits hold more one-qubit-cut amplitudes than GATHER_LIMIT.
    assert 13 * 2**13 > linops.GATHER_LIMIT
    _check_local_unitary_and_permutation_invariance(13, 13, 2**13)
    _check_local_unitary_and_permutation_invariance(13, 31, 5)
