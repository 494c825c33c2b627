"""Partial transpose, eigensolves, and projector kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsup.linops import (
    HermOp,
    Partition,
    embed_product_vector,
    is_psd,
    neg_eigenspace_projector,
    operator_norm,
    part,
    partial_transpose,
    schmidt_decomposition,
    single_cut_partitions,
)
from entsup.qstate import Ket, Register, density, ghz, qubit_register

from conftest import loop_partial_transpose, random_hermitian, random_pure_amplitudes


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
        part().validate(reg, proper=True)
    with pytest.raises(ValueError):
        part(0, 1, 2).validate(reg, proper=True)
    assert [sorted(p.transposed) for p in single_cut_partitions(reg)] == [[0], [1], [2]]


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
    assert not is_psd(pauli_z, tol=1e-9)
    assert is_psd(HermOp(Register((2,)), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        is_psd(pauli_z, tol=-1.0)


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
