"""Shared test helpers: independent oracles and random-instance generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from entsup.linops import schmidt_spectra
from entsup.qstate import Ket, Register, complex_pairs

# Fixed draws and no example database, so a run's result depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def loop_partial_transpose(matrix: np.ndarray, dims, axes) -> np.ndarray:
    """Index-arithmetic partial transpose, independent of the library path."""
    n = len(dims)
    d = int(np.prod(dims))
    axes = set(axes)

    def digits(flat):
        out = []
        for dim in reversed(dims):
            out.append(flat % dim)
            flat //= dim
        return list(reversed(out))

    def flat(ds):
        value = 0
        for label, dim in zip(ds, dims):
            value = value * dim + label
        return value

    out = np.zeros_like(matrix)
    for i in range(d):
        di = digits(i)
        for j in range(d):
            dj = digits(j)
            ri = [dj[k] if k in axes else di[k] for k in range(n)]
            cj = [di[k] if k in axes else dj[k] for k in range(n)]
            out[flat(ri), flat(cj)] = matrix[i, j]
    return out


def traced_peak(call):
    """Run call() under tracemalloc; return its result and the peak traced bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cut_spectrum(psi: Ket, cut) -> np.ndarray:
    """Nonincreasing Schmidt coefficients of one ket across one cut, unpadded."""
    return schmidt_spectra(psi.amplitudes, psi.register, [cut])[0]


def ket_to_state_document(ket: Ket) -> dict:
    """The dense state-file document of a ket, as the CLI reads it."""
    return {"dims": list(ket.register.dims), "amplitudes": complex_pairs(ket.amplitudes)}


def random_hermitian(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (m + m.conj().T) / 2.0


def random_pure_amplitudes(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, d, rank=None):
    rank = rank or d
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


@st.composite
def unit_kets(draw):
    """A unit ket on 2-4 sites of dims 2-3; random support, so often low Schmidt rank."""
    reg = Register(tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = gen.standard_normal(reg.size) + 1j * gen.standard_normal(reg.size)
    amps[gen.permutation(reg.size)[draw(st.integers(1, reg.size)):]] = 0.0
    return Ket(reg, amps / np.linalg.norm(amps))


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
