"""Dense Hermitian linear algebra: partial transpose, eigensolves, projectors, Schmidt data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import Ket, Register

HERMITICITY_TOL = 1e-10
# Eigenvalues within +/- this of zero never enter the negative subspace,
# so exact structural zeros (e.g. GHZ partial transposes) stay out of it.
NEG_EIGENSPACE_TOL = 1e-9
PSD_TOL = 1e-9
DENSITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HermOp:
    """Dense Hermitian operator over a register."""

    register: Register
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        d = self.register.size
        if m.shape != (d, d):
            raise ValueError(
                f"matrix shape {m.shape} does not match register size {d}"
            )
        dev = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
        if dev > HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues."""
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class Partition:
    """Subset of subsystem indices to transpose (the A side of a bipartition)."""

    transposed: frozenset[int]

    def __post_init__(self):
        object.__setattr__(
            self, "transposed", frozenset(int(i) for i in self.transposed)
        )

    def validate(self, register: Register, proper: bool = False) -> None:
        for i in self.transposed:
            if not 0 <= i < register.nsub:
                raise ValueError(
                    f"subsystem index {i} invalid for a {register.nsub}-part register"
                )
        if proper and (
            not self.transposed or len(self.transposed) == register.nsub
        ):
            raise ValueError(
                "entanglement tests need a nonempty proper subset of subsystems"
            )


def part(*indices: int) -> Partition:
    """Shorthand constructor for a partition."""
    return Partition(frozenset(indices))


def single_cut_partitions(register: Register) -> list[Partition]:
    """All single-subsystem-vs-rest bipartitions."""
    return [Partition(frozenset({i})) for i in range(register.nsub)]


def partial_transpose(op: HermOp, partition: Partition) -> HermOp:
    """Transpose the subsystems in ``partition``, leaving the rest alone."""
    partition.validate(op.register)
    return HermOp(
        op.register,
        _transpose_subsystems(op.matrix, op.register.dims, partition.transposed),
    )


def _transpose_subsystems(matrix: np.ndarray, dims, transposed) -> np.ndarray:
    """Array-level partial transpose; the SDP kernel calls it on raw iterates."""
    if not transposed:
        return matrix
    n = len(dims)
    d = matrix.shape[0]
    tens = matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in transposed:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return tens.transpose(axes).reshape(d, d)


def operator_norm(op: HermOp) -> float:
    """Largest singular value; for Hermitian input this is max |eigenvalue|."""
    return float(np.max(np.abs(op.eigenvalues())))


def is_psd(op: HermOp) -> bool:
    """True when the smallest eigenvalue is >= -PSD_TOL."""
    return bool(op.eigenvalues()[0] >= -PSD_TOL)


def check_density(state: HermOp | Ket) -> None:
    """Raise ValueError unless the state has unit trace within DENSITY_TOL and is PSD.

    A ket stands for |psi><psi|, which is PSD, so only <psi|psi> is checked.
    """
    trace = state.norm() ** 2 if isinstance(state, Ket) else state.trace()
    if abs(trace - 1.0) > DENSITY_TOL:
        raise ValueError(f"state trace {trace:.12f} is not 1")
    if isinstance(state, HermOp) and not is_psd(state):
        raise ValueError("state is not positive semidefinite")


def neg_eigenspace_projector(op: HermOp) -> HermOp:
    """Projector onto the span of eigenvectors with eigenvalue < -NEG_EIGENSPACE_TOL."""
    w, v = np.linalg.eigh(op.matrix)
    cols = v[:, w < -NEG_EIGENSPACE_TOL]
    return HermOp(op.register, cols @ cols.conj().T)


def schmidt_coefficients(psi: Ket, partition: Partition) -> np.ndarray:
    """Nonincreasing Schmidt coefficients (read-only) of a pure state across a bipartition.

    The ket keeps them, so each (ket, cut) pays one SVD however often it is read.
    """
    s = psi._schmidt.get(partition)
    if s is None:
        s = schmidt_spectra(psi.amplitudes, psi.register, partition)
        s.setflags(write=False)
        psi._schmidt[partition] = s
    return s


def schmidt_spectra(amplitudes: np.ndarray, register: Register, partition: Partition) -> np.ndarray:
    """Nonincreasing Schmidt coefficients of each ket in a (..., d) stack: one batched SVD.

    Each ket is reshaped to a d_A x d_B matrix, with A the subsystems in ``partition``,
    which must be a nonempty proper subset of the register's.
    """
    partition.validate(register, proper=True)
    dims = register.dims
    lead = amplitudes.shape[:-1]
    k = len(lead)
    rest = sorted(set(range(len(dims))) - partition.transposed)
    axes = list(range(k)) + [k + i for i in sorted(partition.transposed) + rest]
    d_a = math.prod(dims[i] for i in partition.transposed)
    cut = amplitudes.reshape(lead + tuple(dims)).transpose(axes).reshape(lead + (d_a, -1))
    return np.linalg.svd(cut, compute_uv=False)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of two real (..., n) stacks over the trailing axis.

    A stacked 1 x n by n x 1 matmul runs the kernel of ``np.dot``, so each row
    is summed as ``np.dot`` sums two vectors.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]

