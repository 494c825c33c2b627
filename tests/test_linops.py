"""Partial transpose, eigensolves, and projector kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsup import linops
from entsup.linops import (
    PSD_TOL,
    HermOp,
    Partition,
    is_psd,
    neg_eigenspace_projector,
    operator_norm,
    part,
    partial_transpose,
    schmidt_spectra,
    single_cut_partitions,
)
from entsup.qstate import Ket, Register, density, ghz, qubit_register
from entsup.quantifiers import pt_profile

from conftest import (
    cut_spectrum,
    loop_partial_transpose,
    random_hermitian,
    random_pure_amplitudes,
    traced_peak,
)
from oracles import embed_product_vector, schmidt_decomposition, svd_spectra


def test_hermiticity_is_enforced():
    reg = Register((2,))
    with pytest.raises(ValueError):
        HermOp(reg, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        HermOp(reg, np.zeros((3, 3)))


def test_partition_validation():
    reg = qubit_register(3)
    part(0, 2).validate(reg)
    with pytest.raises(ValueError):
        part(3).validate(reg)
    with pytest.raises(ValueError):
        part().validate(reg)
    with pytest.raises(ValueError):
        part(0, 1, 2).validate(reg)
    assert [sorted(p.transposed) for p in single_cut_partitions(reg)] == [[0], [1], [2]]
    # partial_transpose is the one place the dense paths check their cut.
    op = HermOp(reg, np.eye(8))
    for cut in (part(), part(0, 1, 2)):
        with pytest.raises(ValueError, match="^entanglement tests need a nonempty proper subset"):
            partial_transpose(op, cut)


def test_partial_transpose_is_involution(rng):
    reg = qubit_register(3)
    m = HermOp(reg, random_hermitian(rng, 8))
    cut = part(0, 2)
    back = partial_transpose(partial_transpose(m, cut), cut)
    assert np.array_equal(back.matrix, m.matrix)


def test_partial_transpose_matches_loop_oracle(rng):
    reg = Register((2, 3, 2))
    m = HermOp(reg, random_hermitian(rng, 12))
    for axes in ([0], [1], [2], [0, 2], [1, 2]):
        ours = partial_transpose(m, Partition(frozenset(axes))).matrix
        oracle = loop_partial_transpose(m.matrix, reg.dims, axes)
        assert np.array_equal(ours, oracle)


def test_partial_transpose_ghz2_spectrum():
    # Oracle: the explicitly written 4x4 matrix, eigensolved directly.
    explicit = np.zeros((4, 4), dtype=complex)
    explicit[0, 0] = explicit[3, 3] = 0.5
    explicit[1, 2] = explicit[2, 1] = 0.5
    oracle = np.linalg.eigvalsh(explicit)
    ours = np.linalg.eigvalsh(partial_transpose(density(ghz(2, 0.0)), part(0)).matrix)
    assert np.allclose(ours, oracle, atol=1e-12)
    assert np.allclose(ours, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_of_product_operator(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    a = a @ a.conj().T + 0.1 * np.eye(2)  # make PSD
    b = b @ b.conj().T + 0.1 * np.eye(2)
    op = HermOp(qubit_register(2), np.kron(a, b))
    out = partial_transpose(op, part(0))
    assert np.allclose(out.matrix, np.kron(a.T, b), atol=1e-12)
    assert is_psd(out)


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    reg = qubit_register(3)
    for _ in range(5):
        m = HermOp(reg, random_hermitian(rng, 8))
        out = partial_transpose(m, part(1))
        assert abs(np.trace(out.matrix) - np.trace(m.matrix)) <= 1e-12
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12


def test_partial_transpose_complement_relation(rng):
    reg = qubit_register(2)
    m = HermOp(reg, random_hermitian(rng, 4))
    lhs = partial_transpose(m, part(0)).matrix
    rhs = partial_transpose(m, part(1)).matrix.T
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_operator_norm_examples():
    assert operator_norm(HermOp(qubit_register(3), np.eye(8))) == 1.0
    for n in (2, 3):
        w = np.eye(2**n) - 2 * density(ghz(n, 0.4)).matrix
        assert operator_norm(HermOp(qubit_register(n), w)) == pytest.approx(1.0)


def test_operator_norm_of_negativity_witness(rng):
    # Oracle: build the witness via the loop transpose and a direct eigensolve.
    for a, b in ((0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.3, math.sqrt(1 - 0.09))):
        amps = np.zeros(4, dtype=complex)
        amps[3], amps[0] = a, b  # a|11> + b|00>
        rho = np.outer(amps, amps.conj())
        rt = loop_partial_transpose(rho, (2, 2), [0])
        w, v = np.linalg.eigh(rt)
        cols = v[:, w < -1e-9]
        proj = cols @ cols.conj().T
        witness = loop_partial_transpose(proj, (2, 2), [0])
        oracle_norm = float(np.max(np.abs(np.linalg.eigvalsh(witness))))
        assert oracle_norm == pytest.approx(0.5, abs=1e-12)
        ours = operator_norm(HermOp(qubit_register(2), witness))
        assert ours == pytest.approx(oracle_norm, abs=1e-12)


def test_is_psd_examples(rng):
    v = Ket(qubit_register(2), random_pure_amplitudes(rng, 4))
    assert is_psd(density(v))
    pauli_z = HermOp(Register((2,)), np.diag([1.0, -1.0]))
    assert not is_psd(pauli_z)
    assert is_psd(HermOp(Register((2,)), np.zeros((2, 2))))
    assert is_psd(HermOp(Register((2,)), np.diag([1.0, -PSD_TOL])))
    assert not is_psd(HermOp(Register((2,)), np.diag([1.0, -2 * PSD_TOL])))


def test_neg_eigenspace_projector_examples(rng):
    v = Ket(qubit_register(2), random_pure_amplitudes(rng, 4))
    zero = neg_eigenspace_projector(density(v))
    assert np.max(np.abs(zero.matrix)) <= 1e-12

    rt = partial_transpose(density(ghz(2, 0.0)), part(0))
    proj = neg_eigenspace_projector(rt)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert np.trace(proj.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(proj.matrix, np.outer(singlet, singlet.conj()), atol=1e-12)

    diag = HermOp(Register((3,)), np.diag([-2.0, -1.0, 3.0]))
    assert np.allclose(neg_eigenspace_projector(diag).matrix, np.diag([1.0, 1.0, 0.0]))


def test_neg_eigenspace_projector_properties(rng):
    reg = qubit_register(3)
    tol = 1e-9
    for _ in range(5):
        m = HermOp(reg, random_hermitian(rng, 8))
        p = neg_eigenspace_projector(m).matrix
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        pinched = p @ m.matrix @ p
        assert np.max(np.linalg.eigvalsh((pinched + pinched.conj().T) / 2)) <= tol


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz_kernel(seed):
    gen = np.random.default_rng(seed)
    reg = qubit_register(2)
    w = HermOp(reg, random_hermitian(gen, 4))
    psi = random_pure_amplitudes(gen, 4)
    phi = random_pure_amplitudes(gen, 4)
    assert abs(np.vdot(psi, w.matrix @ phi)) <= operator_norm(w) + 1e-10


def test_schmidt_reconstruction(rng):
    reg = qubit_register(3)
    psi = Ket(reg, random_pure_amplitudes(rng, 8))
    for cut in (part(0), part(1), part(0, 2)):
        s, a, b = schmidt_decomposition(psi, cut)
        rebuilt = sum(
            s[i] * embed_product_vector(reg, cut, a[:, i], b[:, i])
            for i in range(len(s))
        )
        assert np.max(np.abs(rebuilt - psi.amplitudes)) <= 1e-12
        assert np.all(np.diff(s) <= 1e-15)


@pytest.fixture(params=["gathered", "strided"])
def two_row_route(request, monkeypatch):
    """Each test that takes this runs twice: small kets gathered, then every ket strided."""
    if request.param == "strided":
        monkeypatch.setattr(linops, "GATHER_LIMIT", 0)
    return request.param


def _unit_stack(rng, shape):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", range(2, 13))
def test_qubit_cuts_match_svd_on_random_stacks(two_row_route, n):
    reg = qubit_register(n)
    cuts = single_cut_partitions(reg)
    stack = _unit_stack(np.random.default_rng(n), (3, 2, 2**n))
    ours = schmidt_spectra(stack, reg, cuts)
    assert ours.shape == (3, 2, n, 2)
    assert np.max(np.abs(ours - svd_spectra(stack, reg, cuts))) <= 1e-14
    assert np.all(ours[..., 1] <= ours[..., 0])


def test_qubit_cuts_of_ghz_and_zero_kets(two_row_route):
    # GHZ cuts have s_1 = s_2; a vanishing gamma enters a sweep as the zero ket.
    for n in range(2, 13):
        reg = qubit_register(n)
        stack = np.stack([ghz(n, 0.7).amplitudes, np.zeros(2**n), ghz(n, 2.0, orthogonal=True).amplitudes])
        s = schmidt_spectra(stack, reg, single_cut_partitions(reg))
        assert np.max(np.abs(s[[0, 2]] - math.sqrt(0.5))) <= 1e-15
        assert np.array_equal(s[1], np.zeros((n, 2)))


def test_other_cuts_keep_the_svd(monkeypatch, rng):
    # Only a split with two rows (one qubit site on the A side) takes the closed
    # form; qudit sites and multi-site cuts each pay one batched SVD.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    for dims, axes in (
        ((3, 2, 4), ([0], [1], [0, 2], [2])),
        ((2, 2, 2), ([0, 1], [2], [0, 2])),
        ((2, 2, 2, 2), ([1, 2], [3], [0, 1, 3])),
    ):
        reg = Register(dims)
        cuts = [Partition(frozenset(a)) for a in axes]
        stack = _unit_stack(rng, (2, reg.size))
        oracle = svd_spectra(stack, reg, cuts)
        calls.clear()
        ours = schmidt_spectra(stack, reg, cuts)
        assert ours.shape == oracle.shape
        assert np.max(np.abs(ours - oracle)) <= 1e-14
        sizes = [math.prod(dims[i] for i in a) for a in axes]
        assert [shape[-2] for shape in calls] == [n for n in sizes if n != 2]


def test_product_cuts_stay_ppt(two_row_route):
    # On a cut across which the state is a product, det G = n_0 n_1 - |c|^2
    # cancels to an O(eps) rounding error, so sqrt(det G) reads O(1e-8) and
    # breaks PSD_TOL. The closed form's orthogonal residual stays O(eps).
    rng = np.random.default_rng(0)
    worst, gram_misses = 0.0, 0
    for trial in range(2000):
        n = 2 + trial % 9
        q = int(rng.integers(n))
        site = random_pure_amplitudes(rng, 2)
        rest = random_pure_amplitudes(rng, 2 ** (n - 1)).reshape((2,) * (n - 1))
        amp = np.moveaxis(np.multiply.outer(site, rest), 0, q).reshape(-1)
        ket = Ket(qubit_register(n), amp)
        worst = max(worst, float(cut_spectrum(ket, part(q))[1]))
        assert pt_profile(ket, [part(q)]) == [(pytest.approx(0.0, abs=1e-14), True)]
        rows = np.moveaxis(amp.reshape((2,) * n), q, 0).reshape(2, -1)
        gram = rows @ rows.conj().T
        det = gram[0, 0].real * gram[1, 1].real - abs(gram[0, 1]) ** 2
        gram_misses += math.sqrt(max(det, 0.0)) / np.linalg.norm(amp) > PSD_TOL
    assert worst <= 1e-14
    assert gram_misses > 100  # the set does exercise the trap


def test_an_empty_cut_list_reads_no_cut():
    reg = qubit_register(3)
    ket = ghz(3, 0.0).amplitudes
    assert schmidt_spectra(ket, reg, []).shape == (0, 2)
    assert schmidt_spectra(np.stack([ket] * 4), reg, []).shape == (4, 0, 2)


def test_qubit_cuts_of_a_large_ket_stay_within_twice_the_register():
    # Above GATHER_LIMIT each cut is read through a strided view: the peak stays
    # near one residual row, far below the n x d of gathering every cut at once.
    n = 16
    ket = Ket(qubit_register(n), random_pure_amplitudes(np.random.default_rng(16), 2**n))
    cuts = single_cut_partitions(ket.register)
    profile, peak = traced_peak(lambda: pt_profile(ket, cuts))
    assert len(profile) == n
    assert peak < 2 * ket.amplitudes.nbytes, peak
    stack = np.stack([ket.amplitudes] * 3)
    _, peak = traced_peak(lambda: schmidt_spectra(stack, ket.register, cuts))
    assert peak < 2 * stack.nbytes, peak
