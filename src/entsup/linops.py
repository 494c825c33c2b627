"""Dense Hermitian linear algebra: partial transpose, eigensolves, projectors, Schmidt data."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import Ket, Register

HERMITICITY_TOL = 1e-10
# An eigenvalue below -PSD_TOL is negative: it fails the PPT flag and enters the
# negative subspace, so exact structural zeros (e.g. GHZ partial transposes) stay out of it.
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
        dev = float(np.max(np.abs(m - m.conj().T)))
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

    def validate(self, register: Register) -> None:
        """Every quantifier acts on a bipartition: require a nonempty proper subset."""
        for i in self.transposed:
            if not 0 <= i < register.nsub:
                raise ValueError(
                    f"subsystem index {i} invalid for a {register.nsub}-part register"
                )
        if not self.transposed or len(self.transposed) == register.nsub:
            raise ValueError(
                "entanglement tests need a nonempty proper subset of subsystems"
            )


def part(*indices: int) -> Partition:
    """Shorthand constructor for a partition."""
    return Partition(frozenset(indices))


def single_cut_partitions(register: Register) -> list[Partition]:
    """All single-subsystem-vs-rest bipartitions."""
    return [Partition(frozenset({i})) for i in range(register.nsub)]


def _check_cuts(register: Register, partitions) -> None:
    """Refuse an empty cut list, or a cut that is not a nonempty proper subset of ``register``."""
    if not partitions:
        raise ValueError("need at least one partition")
    for p in partitions:
        p.validate(register)


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
    """Projector onto the span of eigenvectors with eigenvalue < -PSD_TOL."""
    w, v = np.linalg.eigh(op.matrix)
    cols = v[:, w < -PSD_TOL]
    return HermOp(op.register, cols @ cols.conj().T)


# A ket whose one-qubit cuts hold at most this many amplitudes in all (12 qubits)
# has the two rows of every one-qubit cut a call reads copied out at once, so a
# small ket pays a few numpy calls rather than a few per cut; a stack is copied
# about this many amplitudes at a time. A larger ket reads each cut through a
# strided view, with no copy. The route depends on the register alone, never on
# how many cuts or kets one call reads, so a (ket, cut)'s coefficients keep
# their bits whichever call reads them.
GATHER_LIMIT = 2**16


def schmidt_spectra(amplitudes: np.ndarray, register: Register, partitions) -> np.ndarray:
    """Nonincreasing Schmidt coefficients of each ket in a (..., d) stack across each partition.

    Returns a (..., len(partitions), r) array, zero-padded to the longest
    spectrum r (r = 2 for an empty partition list). Each partition, the A side
    of a d_A x d_B split of every ket, must be a nonempty proper subset of the
    register's subsystems. A cut that splits off one qubit site (d_A = 2) is
    read in closed form from the two rows of its 2 x m split
    (:func:`_two_row_spectra`); any other cut pays one batched SVD.
    """
    for p in partitions:
        p.validate(register)
    dims, lead = register.dims, amplitudes.shape[:-1]
    sizes = [math.prod(dims[i] for i in p.transposed) for p in partitions]
    r = max((min(n, register.size // n) for n in sizes), default=2)
    out = np.zeros(lead + (len(partitions), r))
    two_row = [j for j, n in enumerate(sizes) if n == 2]
    if two_row:
        sites = tuple(min(partitions[j].transposed) for j in two_row)
        out[..., two_row, :2] = _two_row_spectra(amplitudes, dims, sites)
    k = len(lead)
    for j, p in enumerate(partitions):
        if sizes[j] == 2:
            continue
        rest = sorted(set(range(len(dims))) - p.transposed)
        axes = list(range(k)) + [k + i for i in sorted(p.transposed) + rest]
        cut = amplitudes.reshape(lead + dims).transpose(axes).reshape(lead + (sizes[j], -1))
        out[..., j, : min(cut.shape[-2:])] = np.linalg.svd(cut, compute_uv=False)
    return out


def _two_row_spectra(amplitudes: np.ndarray, dims, sites) -> np.ndarray:
    """(..., len(sites), 2) Schmidt coefficients across the qubit ``sites`` of a (..., d) stack.

    Site q's split is the (prod(dims[:q]), 2, prod(dims[q+1:])) view of each ket,
    its two rows read with the qubit axis first (:func:`_row_pair_spectra`).
    """
    lead, d = amplitudes.shape[:-1], amplitudes.shape[-1]
    if d * dims.count(2) <= GATHER_LIMIT:
        index = _two_row_index(dims, sites)
        kets = amplitudes.reshape(-1, d)
        step = max(1, GATHER_LIMIT // index.size)
        chunks = (np.take(kets[i : i + step], index, axis=-1) for i in range(0, len(kets), step))
        s = np.concatenate([_row_pair_spectra(x[..., None, :]) for x in chunks])
        return s.reshape(lead + s.shape[1:])
    views = (amplitudes.reshape(lead + (math.prod(dims[:q]), 2, -1)) for q in sites)
    return np.stack([_row_pair_spectra(np.moveaxis(v, -2, -3)) for v in views], axis=-2)


@functools.lru_cache(maxsize=16)
def _two_row_index(dims, sites) -> np.ndarray:
    """(len(sites), 2, d/2) flat positions of the two rows of each site's split."""
    flat = np.arange(math.prod(dims))
    index = np.stack(
        [np.moveaxis(flat.reshape(math.prod(dims[:q]), 2, -1), 1, 0).reshape(2, -1) for q in sites]
    )
    index.setflags(write=False)
    return index


def _row_pair_spectra(rows: np.ndarray) -> np.ndarray:
    """Both singular values of each 2 x m matrix in a (..., 2, p, q) stack; a row is p x q.

    With n_i = ||r_i||^2 and c = <r_0|r_1>, the Gram matrix gives
    s_1^2 = (n_0 + n_1 + hypot(n_0 - n_1, 2|c|)) / 2, and s_1 s_2 = sqrt(det G)
    = ||r_0|| ||r_1 - (c/n_0) r_0||. The residual is O(eps) on a product cut,
    where det G = n_0 n_1 - |c|^2 would keep an O(eps) rounding error and its
    root an O(1e-8) one, above ``PSD_TOL``. A zero row pair gives zeros.
    """
    n = _squared_norms(rows)
    n0, n1 = n[..., 0], n[..., 1]
    r0, r1 = rows[..., 0, :, :], rows[..., 1, :, :]
    c = np.einsum("...ij,...ij->...", r0.conj(), r1)
    s1 = np.sqrt(0.5 * (n0 + n1 + np.hypot(n0 - n1, 2.0 * np.abs(c))))
    residual = (c / np.where(n0 > 0, n0, 1.0))[..., None, None] * r0
    np.subtract(r1, residual, out=residual)
    s2 = np.sqrt(n0 * _squared_norms(residual)) / np.where(s1 > 0, s1, 1.0)
    return np.stack((s1, np.minimum(s2, s1)), axis=-1)


def _squared_norms(blocks: np.ndarray) -> np.ndarray:
    """Squared norm of each (p, q) block of a complex (..., p, q) stack whose last axis is contiguous."""
    x = blocks.view(np.float64)
    return np.einsum("...ij,...ij->...", x, x)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of two real (..., n) stacks over the trailing axis.

    A stacked 1 x n by n x 1 matmul runs the kernel of ``np.dot``, so each row
    is summed as ``np.dot`` sums two vectors.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _contract_all_but(amplitudes: np.ndarray, vectors, site: int) -> np.ndarray:
    """Contract each ket of a (..., d) stack with ``vectors[k]`` on every site k but ``site``.

    Returns the (..., d_site) remainder; ``vectors[site]`` is not read. The sites
    before and after ``site`` fold into one Kronecker vector each, so the cost
    is two matrix-vector products, O(d) per ket.
    """
    left = functools.reduce(np.kron, vectors[:site], np.ones(1))
    right = functools.reduce(np.kron, vectors[site + 1 :], np.ones(1))
    lead = amplitudes.shape[:-1]
    folded = left @ amplitudes.reshape(lead + (left.size, -1))
    return folded.reshape(lead + (-1, right.size)) @ right
