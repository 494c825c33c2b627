"""State construction and elementary manipulation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entsup.qstate import (
    MAX_REGISTER_SIZE,
    Ket,
    Register,
    RegisterMismatchError,
    SuperposCoeffs,
    basis_ket,
    density,
    ghz,
    overlap,
    qubit_register,
    superpose,
    tensor,
)

from conftest import random_pure_amplitudes


def test_register_validation():
    assert Register((2, 3)).size == 6
    assert qubit_register(4).dims == (2, 2, 2, 2)
    with pytest.raises(ValueError):
        Register(())
    with pytest.raises(ValueError):
        Register((2, 1))


def test_register_size_limit():
    assert MAX_REGISTER_SIZE == 2**20
    assert qubit_register(20).size == Register((2**20,)).size == MAX_REGISTER_SIZE
    for dims in ((2,) * 21, (3,) * 13, (2**20 + 1,)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            Register(dims)
    for n in (21, 10**12):  # refused before the n dims exist
        with pytest.raises(ValueError, match="exceeds the limit"):
            qubit_register(n)


def test_basis_ket_single_qubit():
    k = basis_ket(Register((2,)), [0])
    assert np.array_equal(k.amplitudes, [1, 0])


def test_basis_ket_row_major_indexing():
    k = basis_ket(Register((2, 2)), [1, 1])
    assert k.amplitudes[3] == 1 and np.count_nonzero(k.amplitudes) == 1
    k = basis_ket(Register((2, 2, 2)), [0, 1, 0])
    assert k.amplitudes[2] == 1 and np.count_nonzero(k.amplitudes) == 1


def test_basis_ket_label_out_of_range():
    with pytest.raises(ValueError):
        basis_ket(Register((2, 2)), [0, 2])
    with pytest.raises(ValueError):
        basis_ket(Register((2, 2)), [0])


def test_tensor_of_basis_kets():
    reg1 = Register((2,))
    out = tensor(basis_ket(reg1, [0]), basis_ket(reg1, [1]))
    assert out.register.dims == (2, 2)
    assert out.amplitudes[1] == 1 and np.count_nonzero(out.amplitudes) == 1


def test_tensor_norm_multiplies(rng):
    u = Ket(Register((2, 2)), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    v = Ket(Register((2,)), rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert tensor(u, v).norm() == pytest.approx(u.norm() * v.norm(), abs=1e-12)


def test_tensor_distributes_over_superposition():
    reg1 = Register((2,))
    plus = Ket(reg1, np.array([1, 1]) / math.sqrt(2))
    out = tensor(plus, basis_ket(reg1, [0]))
    expected = np.array([1, 0, 1, 0]) / math.sqrt(2)
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


def test_superpose_builds_ghz_family():
    for n in (2, 3, 5):
        for phi in (0.0, 0.9, math.pi):
            reg = qubit_register(n)
            coeffs = SuperposCoeffs(
                1 / math.sqrt(2), cmath.exp(1j * phi) / math.sqrt(2)
            )
            built = superpose(
                coeffs, basis_ket(reg, (0,) * n), basis_ket(reg, (1,) * n)
            )
            assert np.max(np.abs(built.amplitudes - ghz(n, phi).amplitudes)) <= 1e-15


def test_superpose_identity_case(rng):
    reg = qubit_register(2)
    psi = Ket(reg, random_pure_amplitudes(rng, 4))
    out = superpose(SuperposCoeffs(1, 0), psi, basis_ket(reg, (0, 0)))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_superpose_raw_keeps_natural_norm():
    reg = Register((2,))
    zero = basis_ket(reg, [0])
    c = SuperposCoeffs(1 / math.sqrt(2), 1 / math.sqrt(2))
    out = superpose(c, zero, zero)
    assert out.norm() ** 2 == pytest.approx(2.0, abs=1e-12)


def test_superpose_then_normalized():
    reg = Register((2,))
    raw = superpose(SuperposCoeffs(3.0, 4.0), basis_ket(reg, [0]), basis_ket(reg, [1]))
    out = raw.normalized()
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(out.amplitudes[0]) == pytest.approx(0.6)


def test_superpose_errors():
    with pytest.raises(RegisterMismatchError):
        superpose(
            SuperposCoeffs(1, 1),
            basis_ket(Register((2,)), [0]),
            basis_ket(Register((2, 2)), [0, 0]),
        )
    zero = basis_ket(Register((2,)), [0])
    with pytest.raises(ValueError):
        superpose(SuperposCoeffs(1, -1), zero, zero).normalized()


@given(
    lam=st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    a=st.complex_numbers(min_magnitude=0.01, max_magnitude=3, allow_nan=False),
    b=st.complex_numbers(min_magnitude=0.01, max_magnitude=3, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_superpose_raw_is_bilinear(lam, a, b, seed):
    if abs(lam * a) == 0 and abs(lam * b) == 0:
        return
    gen = np.random.default_rng(seed)
    reg = qubit_register(2)
    psi = Ket(reg, random_pure_amplitudes(gen, 4))
    phi = Ket(reg, random_pure_amplitudes(gen, 4))
    scaled = superpose(SuperposCoeffs(lam * a, lam * b), psi, phi)
    plain = superpose(SuperposCoeffs(a, b), psi, phi)
    assert np.allclose(scaled.amplitudes, lam * plain.amplitudes, atol=1e-10)


def test_ghz_amplitudes_and_orthogonal_partner():
    g = ghz(3, 0.0)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.allclose(g.amplitudes, expected, atol=1e-15)
    for n in (2, 3, 6):
        for phi in (0.0, 1.3, math.pi):
            assert abs(overlap(ghz(n, phi), ghz(n, phi, orthogonal=True))) <= 1e-15


def test_ghz_two_qubit_pi_phase():
    g = ghz(2, math.pi)
    expected = np.array([1, 0, 0, -1]) / math.sqrt(2)
    assert np.allclose(g.amplitudes, expected, atol=1e-15)


def test_ghz_needs_two_qubits():
    with pytest.raises(ValueError):
        ghz(1)


def test_overlap_examples(rng):
    reg = Register((2,))
    assert overlap(basis_ket(reg, [0]), basis_ket(reg, [1])) == 0
    v = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    assert overlap(v, v) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 4):
        zeros = basis_ket(qubit_register(n), (0,) * n)
        assert overlap(zeros, ghz(n, 0.7)) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(RegisterMismatchError):
        overlap(basis_ket(reg, [0]), basis_ket(qubit_register(2), (0, 0)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_overlap_conjugate_symmetry(seed):
    gen = np.random.default_rng(seed)
    reg = qubit_register(2)
    u = Ket(reg, random_pure_amplitudes(gen, 4))
    v = Ket(reg, random_pure_amplitudes(gen, 4))
    assert overlap(u, v) == pytest.approx(overlap(v, u).conjugate(), abs=1e-12)


def test_density_examples(rng):
    rho = density(basis_ket(Register((2,)), [0]))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    v = Ket(qubit_register(3), random_pure_amplitudes(rng, 8))
    assert density(v).trace() == pytest.approx(1.0, abs=1e-12)
    corners = density(ghz(2, 0.0)).matrix
    for i in (0, 3):
        for j in (0, 3):
            assert corners[i, j] == pytest.approx(0.5, abs=1e-15)


def test_density_idempotent_for_normalized(rng):
    v = Ket(qubit_register(2), random_pure_amplitudes(rng, 4))
    p = density(v).matrix
    assert np.max(np.abs(p @ p - p)) <= 1e-12


def test_coefficient_validation():
    with pytest.raises(ValueError):
        SuperposCoeffs(0, 0)
    with pytest.raises(ValueError):
        SuperposCoeffs(float("nan"), 1)
    c = SuperposCoeffs(0.6, 0.8j)
    assert c.abs_product == pytest.approx(0.48)


def test_ket_validation():
    with pytest.raises(ValueError):
        Ket(Register((2,)), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Ket(Register((2,)), np.array([np.inf, 0.0]))
    k = Ket(Register((2,)), np.array([1.0, 0.0]))
    assert k.norm() == 1.0
    with pytest.raises(ValueError):
        k.amplitudes[0] = 5.0
