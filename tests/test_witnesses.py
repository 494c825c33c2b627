"""Witness construction, evaluation, classification, and the see-saw search."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entsup.linops import (
    PSD_TOL,
    HermOp,
    Partition,
    operator_norm,
    part,
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
from entsup.quantifiers import pt_profile
from entsup.witnesses import (
    ProductSearchConfig,
    Witness,
    WitnessClassError,
    _reflection_witness,
    eval_witness,
    ghz_witness,
    max_product_overlap,
    maxent_cut_value,
    negativity_optimal_witness,
    negativity_witness_values,
    reflection_expectation,
    witness_k,
    zero_witness,
)

from conftest import (
    cut_spectrum,
    random_density_matrix,
    random_hermitian,
    random_pure_amplitudes,
    unit_kets,
)
from oracles import grid_product_overlap_2q, maxent_cut_witness, schmidt_decomposition


def test_eval_witness_on_ghz_family():
    for n in (2, 4):
        for phi in (0.0, 1.1):
            w = ghz_witness(n, phi)
            assert eval_witness(w, density(ghz(n, phi))) == pytest.approx(-1.0)
            assert eval_witness(w, ghz(n, phi)) == pytest.approx(-1.0)


def test_eval_witness_on_all_zeros():
    # 1 - 2|<0...0|GHZ>|^2 with the overlap read off the amplitudes.
    for n in (2, 3):
        zeros = basis_ket(qubit_register(n), (0,) * n)
        expected = 1.0 - 2.0 * abs(np.vdot(zeros.amplitudes, ghz(n, 0.3).amplitudes)) ** 2
        assert expected == pytest.approx(0.0, abs=1e-12)
        assert eval_witness(ghz_witness(n, 0.3), zeros) == pytest.approx(0.0, abs=1e-12)


def test_eval_witness_identity(rng):
    reg = qubit_register(2)
    w = Witness(HermOp(reg, np.eye(4)))
    state = Ket(reg, random_pure_amplitudes(rng, 4))
    assert eval_witness(w, state) == pytest.approx(1.0)
    assert eval_witness(w, density(state)) == pytest.approx(1.0)


def test_eval_witness_register_mismatch():
    for state in (density(ghz(3)), ghz(3)):
        with pytest.raises(RegisterMismatchError):
            eval_witness(ghz_witness(2), state)


def test_negativity_witness_two_qubit_saturation():
    reg = qubit_register(2)
    for a, b in ((0.6, 0.8), (0.5, math.sqrt(0.75))):
        amps = np.zeros(4, dtype=complex)
        amps[3], amps[0] = a, b
        rho = density(Ket(reg, amps))
        w = negativity_optimal_witness(rho, part(0))
        assert -eval_witness(w, rho) == pytest.approx(a * b, abs=1e-12)
        assert operator_norm(w.op) == pytest.approx(0.5, abs=1e-12)


def test_negativity_witness_of_product_state():
    rho = density(basis_ket(qubit_register(2), (0, 0)))
    w = negativity_optimal_witness(rho, part(0))
    assert np.max(np.abs(w.op.matrix)) <= 1e-12
    assert eval_witness(w, rho) == 0.0


def test_negativity_witness_ghz3():
    rho = density(ghz(3, 0.0))
    w = negativity_optimal_witness(rho, part(0))
    assert -eval_witness(w, rho) == pytest.approx(0.5, abs=1e-12)


def test_ghz_witness_spectrum_and_class():
    for n in (2, 3):
        w = ghz_witness(n, 0.7)
        spec = np.linalg.eigvalsh(w.op.matrix)
        assert spec[0] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(spec[1:], 1.0, atol=1e-12)
        assert w.cap_identity and w.class_bounds == (1.0, 1.0)
        partner = ghz(n, 0.7, orthogonal=True)
        assert eval_witness(w, partner) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="^GHZ states need at least 2 qubits, got 1$"):
        ghz_witness(1)


def test_witness_class_validation():
    reg = Register((2,))
    bad = np.diag([1.5, 0.0])
    for bounds in ((-1.0, 0.0), (0.0, -1.0)):
        with pytest.raises(WitnessClassError, match="must be nonnegative"):
            Witness(HermOp(reg, np.zeros((2, 2))), class_bounds=bounds)
    with pytest.raises(WitnessClassError):
        Witness(HermOp(reg, bad), class_bounds=(1.0, 1.0))
    with pytest.raises(WitnessClassError):
        Witness(HermOp(reg, np.diag([0.3, -0.9])), class_bounds=(0.3, 0.7))
    assert Witness(HermOp(reg, np.diag([0.3, -0.7])), class_bounds=(0.3, 0.7)).cap_identity
    # A user-built witness is diagonalised: eigenvalues 1.2 and -0.2 off the diagonal.
    with pytest.raises(WitnessClassError):
        Witness(HermOp(reg, np.array([[0.5, 0.7], [0.7, 0.5]])), class_bounds=(1.0, 1.0))
    # The W <= I class is read off the verified bound m; undeclared bounds claim nothing.
    assert not Witness(HermOp(reg, bad), class_bounds=(1.5, 0.0)).cap_identity
    assert not Witness(HermOp(reg, np.diag([0.3, -0.7]))).cap_identity


def test_witness_k_examples():
    assert witness_k(ghz_witness(3, 0.2)) == 1.0
    assert witness_k(zero_witness(qubit_register(2))) == 0.0
    w = Witness(HermOp(Register((2,)), np.diag([0.3, -0.7])))
    assert witness_k(w) == pytest.approx(0.7)


def test_witness_k_bounds_expectation(rng):
    reg = qubit_register(2)
    for _ in range(20):
        w = ghz_witness(2, rng.uniform(0, 2 * math.pi))
        sigma = HermOp(reg, random_density_matrix(rng, 4))
        assert abs(eval_witness(w, sigma)) <= witness_k(w) + 1e-9


def test_class_bounds_hold_spectrally():
    for n in (2, 3):
        w = ghz_witness(n, 1.0)
        m, neg = w.class_bounds
        spec = np.linalg.eigvalsh(w.op.matrix)
        assert spec[-1] <= m + 1e-9 and spec[0] >= -neg - 1e-9


def test_max_product_overlap_ghz():
    for n in (2, 3, 4):
        val = max_product_overlap(density(ghz(n, 0.0)))
        assert val == pytest.approx(0.5, abs=1e-6)


def test_max_product_overlap_grid_cross_check():
    proj = density(ghz(2, 0.0)).matrix
    grid = grid_product_overlap_2q(proj)
    seesaw = max_product_overlap(density(ghz(2, 0.0)))
    assert seesaw >= grid - 1e-4
    assert seesaw == pytest.approx(0.5, abs=1e-6)


def test_max_product_overlap_product_target():
    for n in (2, 3):
        proj = density(basis_ket(qubit_register(n), (0,) * n))
        assert max_product_overlap(proj) == pytest.approx(1.0, abs=1e-9)


def test_max_product_overlap_singlet():
    amps = np.zeros(4, dtype=complex)
    amps[1], amps[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    proj = density(Ket(qubit_register(2), amps))
    grid = grid_product_overlap_2q(proj.matrix)
    found = max_product_overlap(proj)
    assert found == pytest.approx(0.5, abs=1e-6)
    assert found >= grid - 1e-4


def test_max_product_overlap_monotone_in_restarts():
    proj = density(ghz(3, 0.5))
    few = max_product_overlap(proj, ProductSearchConfig(restarts=4))
    more = max_product_overlap(proj, ProductSearchConfig(restarts=12))
    assert more >= few - 1e-15
    assert more <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="^need at least one restart$"):
        ProductSearchConfig(restarts=0)


def test_max_product_overlap_rank_and_qudit_cases(rng):
    # W_3 (Wei & Goldbart, PRA 68, 042307, 2003) and a qutrit maximally entangled pair.
    w3 = np.zeros(8, dtype=complex)
    w3[[1, 2, 4]] = 1 / math.sqrt(3)
    assert max_product_overlap(density(Ket(qubit_register(3), w3))) == pytest.approx(4 / 9, abs=1e-6)
    pair = np.zeros(9, dtype=complex)
    pair[[0, 4, 8]] = 1 / math.sqrt(3)
    assert max_product_overlap(density(Ket(Register((3, 3)), pair))) == pytest.approx(1 / 3, abs=1e-6)
    # Every 2-dimensional subspace of C^2 x C^2 holds a product vector.
    assert max_product_overlap(_rank_two_projector(rng)) == pytest.approx(1.0, abs=1e-6)


def _rank_two_projector(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return HermOp(qubit_register(2), q @ q.conj().T)


def test_max_product_overlap_rejects_non_projector(rng):
    reg = qubit_register(2)
    with pytest.raises(ValueError):
        max_product_overlap(HermOp(reg, 0.5 * np.eye(4)))
    # The check reads ||P^2 - P|| in operator norm, so a perturbation of norm 1e-8 fails it.
    proj = _rank_two_projector(rng).matrix
    h = random_hermitian(rng, 4)
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    with pytest.raises(ValueError, match="^operator is not idempotent"):
        max_product_overlap(HermOp(reg, proj + 1e-8 * h))
    assert max_product_overlap(HermOp(reg, proj + 1e-12 * h)) == pytest.approx(1.0, abs=1e-6)


def test_maxent_cut_witness_values(rng):
    reg = qubit_register(2)
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = 0.6, 0.8
    psi = Ket(reg, amps)
    w = maxent_cut_witness(psi, part(0))
    assert w.cap_identity and witness_k(w) == 1.0
    # (0.6 + 0.8)^2 - 1 = 0.96, the bipartite pure-state robustness
    assert -eval_witness(w, psi) == pytest.approx(0.96, abs=1e-12)
    prod = basis_ket(reg, (0, 1))
    wz = maxent_cut_witness(prod, part(0))
    assert np.max(np.abs(wz.op.matrix)) == 0.0


def test_reflection_witness_needs_a_unit_vector():
    with pytest.raises(ValueError, match="squared norm"):
        _reflection_witness(qubit_register(2), np.array([1.0, 0.0, 0.0, 1e-6]))
    with pytest.raises(ValueError, match="squared norm"):
        reflection_expectation(np.array([1.0, 0.0, 0.0, 1e-6]), ghz(2, 0.0))


def test_ket_expectations_match_the_dense_witnesses(rng):
    # Unnormalised kets too: both forms are <psi|W|psi>, not a normalised mean.
    reg = Register((2, 3, 2))
    cuts = [part(0), part(1), part(2), part(0, 2)]
    for scale in (1.0, 1.7):
        for _ in range(10):
            psi = Ket(reg, scale * random_pure_amplitudes(rng, 12))
            chi = random_pure_amplitudes(rng, 12)
            dense = eval_witness(_reflection_witness(reg, chi), psi)
            assert reflection_expectation(chi, psi) == pytest.approx(dense, abs=1e-12)
            for cut in cuts:
                dense = eval_witness(maxent_cut_witness(psi, cut), psi)
                value = maxent_cut_value(cut_spectrum(psi, cut))
                assert -value == pytest.approx(dense, abs=1e-12)
    product = basis_ket(reg, (1, 2, 0))
    assert maxent_cut_value(cut_spectrum(product, part(1))) == 0.0


def test_eval_witness_on_operator_matches_trace(rng):
    reg = qubit_register(3)
    for _ in range(5):
        w = Witness(HermOp(reg, random_hermitian(rng, 8)))
        rho = HermOp(reg, random_density_matrix(rng, 8))
        expected = np.trace(w.op.matrix @ rho.matrix).real
        assert eval_witness(w, rho) == pytest.approx(expected, abs=1e-12)


def _dense_negativity_witness(psi, cut):
    """-<psi|W|psi> and ||W|| through the dense optimal witness of |psi><psi|."""
    w = negativity_optimal_witness(density(psi), cut)
    return -eval_witness(w, psi), operator_norm(w.op)


@given(ket=unit_kets(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_negativity_witness_expectation_matches_dense_chain(ket, data):
    sites = range(ket.register.nsub)
    size = data.draw(st.integers(1, ket.register.nsub - 1))
    cut = Partition(frozenset(data.draw(st.permutations(sites))[:size]))
    s = cut_spectrum(ket, cut)
    products = np.outer(s, s)[np.triu_indices(s.size, 1)]
    # Within rounding of the threshold the two paths may disagree on E.
    assume(not np.any(np.abs(products - PSD_TOL) < 1e-12))
    value, norm = negativity_witness_values(s)
    dense_value, dense_norm = _dense_negativity_witness(ket, cut)
    assert value == pytest.approx(dense_value, abs=1e-12)
    assert norm == pytest.approx(dense_norm, abs=1e-12)


def test_negativity_witness_expectation_examples(rng):
    product = basis_ket(qubit_register(2), (0, 1))
    assert negativity_witness_values(cut_spectrum(product, part(0))) == (0.0, 0.0)
    value, norm = negativity_witness_values(cut_spectrum(ghz(2, 0.3), part(1)))
    assert value == pytest.approx(0.5, abs=1e-15) and norm == pytest.approx(0.5, abs=1e-15)
    # A star: s_0 s_1 and s_0 s_2 enter E, s_1 s_2 = 1e-11 does not. The pair
    # graph gives sqrt(2)/2; a complete graph on three vertices would give 1.
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = 1.0, 1e-5, 1e-6
    star = Ket(Register((3, 3)), amps / np.linalg.norm(amps))
    value, norm = negativity_witness_values(cut_spectrum(star, part(0)))
    assert norm == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert (value, norm) == pytest.approx(_dense_negativity_witness(star, part(0)), abs=1e-14)
    # A 2|2 cut of a random 4-qubit ket has Schmidt rank 4 and E = K_4: 3/2.
    psi = Ket(qubit_register(4), random_pure_amplitudes(rng, 16))
    value, norm = negativity_witness_values(cut_spectrum(psi, part(0, 2)))
    assert norm == pytest.approx(1.5, abs=1e-14)
    assert (value, norm) == pytest.approx(_dense_negativity_witness(psi, part(0, 2)), abs=1e-12)


@pytest.mark.parametrize("product", [5e-10, 2e-9])
def test_ppt_flag_and_optimal_witness_read_one_threshold(product):
    # cos t|00> + sin t|11> has s_1 s_2 = sin(2t)/2, here far from PSD_TOL in rounding
    # terms. On the ket and the dense path alike, the PPT flag is set exactly when the
    # witness pair set is empty and the optimal witness is the zero operator.
    t = math.asin(2.0 * product) / 2.0
    ket = Ket(qubit_register(2), [math.cos(t), 0.0, 0.0, math.sin(t)])
    zero = not np.any(negativity_optimal_witness(density(ket), part(0)).op.matrix)
    for state, s in (
        (ket, cut_spectrum(ket, part(0))),
        (density(ket), schmidt_decomposition(ket, part(0))[0]),
    ):
        [(_, ppt)] = pt_profile(state, [part(0)])
        assert ppt is (product < PSD_TOL)
        value, norm = negativity_witness_values(s)
        assert bool(value == 0.0 and norm == 0.0) is ppt
        assert zero is ppt
        if not ppt:
            assert value == pytest.approx(product, rel=1e-6) and norm == 0.5


def test_one_edge_witness_norm_is_the_eigensolve_bit_for_bit(rng):
    # Two Schmidt coefficients give at most the edge {0, 1}, whose adjacency
    # [[0, 1], [1, 0]] has lambda_max exactly 1: the norm skips the eigensolve
    # and keeps its bits, on entangled, product (no edge) and zero rows alike.
    s = np.abs(rng.standard_normal((50, 3, 2)))
    s.sort(axis=-1)
    s = s[..., ::-1].copy()
    s[:10, :, 1] = 0.0
    s[10:20] = 0.0
    s[20:30, :, 1] = 1e-10
    value, norm = negativity_witness_values(s)
    edge = (s[..., 0] * s[..., 1] > PSD_TOL).astype(float)
    adjacency = np.stack([np.zeros_like(edge), edge, edge, np.zeros_like(edge)], -1).reshape(50, 3, 2, 2)
    assert np.array_equal(norm, 0.5 * np.linalg.eigvalsh(adjacency)[..., -1])
    assert np.array_equal(value, np.where(edge > 0, s[..., 0] * s[..., 1], 0.0))
