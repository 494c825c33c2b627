"""Dense Hermitian linear algebra: partial transpose, eigensolves, projectors, Schmidt data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import Ket, Register, RegisterMismatchError

HERMITICITY_TOL = 1e-10
# Eigenvalues within +/- this of zero never enter the negative subspace,
# so exact structural zeros (e.g. GHZ partial transposes) stay out of it.
NEG_EIGENSPACE_TOL = 1e-9
PSD_TOL = 1e-9
DENSITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HermOp:
    """Dense Hermitian operator over a register.

    The matrix is read-only, so its ascending eigenvalues are computed at most
    once, on the first call to :meth:`eigenvalues`.
    """

    register: Register
    matrix: np.ndarray
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False)

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

    @classmethod
    def with_spectrum(
        cls, register: Register, matrix: np.ndarray, spectrum: np.ndarray
    ) -> "HermOp":
        """Operator whose ascending spectrum is known by construction, never solved for."""
        op = cls(register, matrix)
        w = np.array(spectrum, dtype=float)
        w.setflags(write=False)
        object.__setattr__(op, "_eigenvalues", w)
        return op

    @classmethod
    def rank_one(cls, register: Register, vector: np.ndarray) -> "HermOp":
        """|v><v|, whose spectrum {<v|v>, 0, ..., 0} needs no eigensolve."""
        v = np.asarray(vector)
        spectrum = np.zeros(register.size)
        spectrum[-1] = np.vdot(v, v).real
        return cls.with_spectrum(register, np.outer(v, v.conj()), spectrum)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only), from one eigensolve at most."""
        if self._eigenvalues is None:
            w = np.linalg.eigvalsh(self.matrix)
            w.setflags(write=False)
            object.__setattr__(self, "_eigenvalues", w)
        return self._eigenvalues


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


def is_psd(op: HermOp, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue is >= -tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return bool(op.eigenvalues()[0] >= -tol)


def check_density(state: HermOp | Ket) -> None:
    """Raise ValueError unless the state has unit trace and is PSD, both within DENSITY_TOL.

    A ket stands for |psi><psi|, which is PSD, so only <psi|psi> is checked.
    """
    trace = state.norm() ** 2 if isinstance(state, Ket) else state.trace()
    if abs(trace - 1.0) > DENSITY_TOL:
        raise ValueError(f"state trace {trace:.12f} is not 1")
    if isinstance(state, HermOp) and not is_psd(state, DENSITY_TOL):
        raise ValueError("state is not positive semidefinite")


def neg_eigenspace_projector(op: HermOp) -> HermOp:
    """Projector onto the span of eigenvectors with eigenvalue < -NEG_EIGENSPACE_TOL."""
    w, v = np.linalg.eigh(op.matrix)
    cols = v[:, w < -NEG_EIGENSPACE_TOL]
    return HermOp(op.register, cols @ cols.conj().T)


def schmidt_coefficients(psi: Ket, partition: Partition) -> np.ndarray:
    """Nonincreasing Schmidt coefficients of a pure state across a bipartition."""
    return np.linalg.svd(_cut_matrix(psi, partition), compute_uv=False)


def schmidt_decomposition(
    psi: Ket, partition: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt data of a pure state across a bipartition.

    Returns ``(coeffs, a_vectors, b_vectors)``: nonincreasing Schmidt
    coefficients and orthonormal vectors, columns of a_vectors living on the
    transposed side and columns of b_vectors on the rest, chosen so that
    ``psi == sum_i coeffs[i] * embed_product_vector(..., a_i, b_i)``.
    """
    u, s, vh = np.linalg.svd(_cut_matrix(psi, partition), full_matrices=False)
    return s, u, vh.T


def _cut_matrix(psi: Ket, partition: Partition) -> np.ndarray:
    """Amplitudes as a d_A x d_B matrix, rows on the transposed side."""
    partition.validate(psi.register, proper=True)
    perm, d_a, d_b = _split_axes(psi.register, partition)
    return psi.amplitudes.reshape(psi.register.dims).transpose(perm).reshape(d_a, d_b)


def embed_product_vector(
    register: Register, partition: Partition, a_vec: np.ndarray, b_vec: np.ndarray
) -> np.ndarray:
    """Amplitudes of (a_vec on partition) x (b_vec on the rest) in register order."""
    perm, d_a, d_b = _split_axes(register, partition)
    prod = np.outer(np.asarray(a_vec), np.asarray(b_vec)).reshape(
        [register.dims[i] for i in perm]
    )
    inverse = np.argsort(perm)
    return prod.transpose(inverse).reshape(register.size)


def _split_axes(register: Register, partition: Partition):
    a_axes = sorted(partition.transposed)
    b_axes = [i for i in range(register.nsub) if i not in partition.transposed]
    d_a = int(np.prod([register.dims[i] for i in a_axes])) if a_axes else 1
    d_b = int(np.prod([register.dims[i] for i in b_axes])) if b_axes else 1
    return a_axes + b_axes, d_a, d_b


def matrix_element(op: HermOp, bra: Ket, ket: Ket) -> complex:
    """Matrix element <bra|M|ket>."""
    if not (op.register == bra.register == ket.register):
        raise RegisterMismatchError("operator and kets live on different registers")
    return complex(np.vdot(bra.amplitudes, op.matrix @ ket.amplitudes))
