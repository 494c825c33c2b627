"""Entanglement witnesses: construction, evaluation, and spectral classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .linops import HermOp, Partition
from .qstate import Ket, RegisterMismatchError, ghz

SPECTRUM_TOL = 1e-9
DEFAULT_SEED = 42
# A reflection I - 2|chi><chi| about a unit vector has spectrum {-1} + {+1}^(d - 1).
REFLECTION_CLASS = (1.0, 1.0)
# Schmidt coefficients at or below this count as zero in the cut witnesses.
SCHMIDT_RANK_TOL = 1e-12
# See-saw limits: sweeps per restart, and the smallest gain that continues one.
SEESAW_MAX_ITERATIONS = 300
SEESAW_CONVERGENCE_TOL = 1e-12


class WitnessClassError(ValueError):
    """A witness does not satisfy the spectral class it is used under."""


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian witness operator with an optional spectral class descriptor.

    ``class_bounds = (m, n)`` asserts the spectrum lies in [-n, m], verified at
    construction; m <= 1 puts the witness in the W <= I class.
    """

    op: HermOp
    class_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.class_bounds is not None:
            m, n = (float(x) for x in self.class_bounds)
            if m < 0 or n < 0:
                raise WitnessClassError("class bounds (m, n) must be nonnegative")
            object.__setattr__(self, "class_bounds", (m, n))
            w = self.op.eigenvalues()
            lo, hi = float(w[0]), float(w[-1])
            if hi > m + SPECTRUM_TOL or lo < -n - SPECTRUM_TOL:
                raise WitnessClassError(f"spectrum [{lo:.3e}, {hi:.3e}] escapes [-{n}, {m}]")

    @property
    def cap_identity(self) -> bool:
        """Membership in the W <= I class, which the verified bound m <= 1 implies."""
        return self.class_bounds is not None and self.class_bounds[0] <= 1


@dataclass(frozen=True)
class ProductSearchConfig:
    """Settings for the see-saw search over fully product states."""

    restarts: int = 32

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")


def zero_witness(register) -> Witness:
    """The trivial witness; useful as the optimal witness of a PPT state."""
    d = register.size
    return Witness(HermOp(register, np.zeros((d, d))), class_bounds=(0.0, 0.0))


def _reflection_witness(register, chi: np.ndarray) -> Witness:
    """Witness I - 2|chi><chi| of a unit vector chi, in class ``REFLECTION_CLASS``."""
    _check_unit(chi)
    op = HermOp(register, np.eye(register.size) - 2.0 * np.outer(chi, chi.conj()))
    return Witness(op, class_bounds=REFLECTION_CLASS)


def reflection_expectation(chi: np.ndarray, psi: Ket) -> float:
    """<psi|(I - 2|chi><chi|)|psi> = <psi|psi> - 2|<chi|psi>|^2 for a unit vector chi.

    The reflection witness evaluated in O(d), without its d x d matrix.
    """
    _check_unit(chi)
    amp = psi.amplitudes
    return float(np.vdot(amp, amp).real - 2.0 * abs(np.vdot(chi, amp)) ** 2)


def _check_unit(chi: np.ndarray) -> None:
    norm_sq = float(np.vdot(chi, chi).real)
    if abs(norm_sq - 1.0) > 1e-12:
        raise ValueError(f"reflection vector has squared norm {norm_sq!r}, not 1")


def eval_witness(w: Witness, state: HermOp | Ket) -> float:
    """Expectation Tr(W rho), or <psi|W|psi> for a ket.

    The imaginary residue of the trace must stay below 1e-10 and is dropped.
    """
    if state.register != w.op.register:
        raise RegisterMismatchError("witness and state live on different registers")
    if isinstance(state, Ket):
        val = complex(np.vdot(state.amplitudes, w.op.matrix @ state.amplitudes))
    else:
        # Both operators are Hermitian, so Tr(W rho) = sum_ij conj(rho_ij) W_ij.
        val = complex(np.vdot(state.matrix, w.op.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"witness expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def negativity_optimal_witness(rho: HermOp, partition: Partition) -> Witness:
    """Witness attaining the negativity of ``rho`` across ``partition``.

    Built as the partial transpose of the projector onto the negative
    eigenspace of the partially transposed state; -Tr(W rho) then equals the
    sum of |negative eigenvalues| of rho^{T_A}. A PPT state yields the zero
    witness.
    """
    linops.check_density(rho)
    rt = linops.partial_transpose(rho, partition)
    proj = linops.neg_eigenspace_projector(rt)
    return Witness(linops.partial_transpose(proj, partition))


def ghz_witness(n: int, phi: float = 0.0) -> Witness:
    """Witness I - 2|GHZ_n(phi)><GHZ_n(phi)|; spectrum {-1} + {+1}^(2^n - 1)."""
    state = ghz(n, phi)
    return _reflection_witness(state.register, state.amplitudes)


def maxent_cut_value(s: np.ndarray) -> np.ndarray:
    """-<psi|W|psi> for the cut witness W = I - 2|chi><chi| of psi, over the trailing Schmidt axis.

    chi is the maximally entangled state on psi's two leading Schmidt vectors
    across the cut. Its largest product overlap is 1/2, so W is a cap-identity
    witness for that bipartition in ``REFLECTION_CLASS``. With Schmidt
    coefficients s_i, <chi|psi> = (s_1 + s_2)/sqrt(2), so the value
    is (s_1 + s_2)^2 - sum_i s_i^2; for a unit psi it is the generalized
    robustness across the cut. Schmidt rank 1 gives the zero witness and 0.
    """
    value = (s[..., 0] + s[..., 1]) ** 2 - linops.row_dot(s, s)
    return np.where(s[..., 1] > SCHMIDT_RANK_TOL, value, 0.0)


def negativity_witness_values(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-<psi|W|psi> and ||W|| of the optimal negativity witness, over the trailing Schmidt axis.

    With psi = sum_i s_i |a_i b_i>, the negative eigenvectors of |psi><psi|^{T_A}
    are (|a_j* b_i> - |a_i* b_j>)/sqrt(2), eigenvalue -s_i s_j, over the pairs
    E = {i < j : s_i s_j > PSD_TOL}; so the value is sum_E s_i s_j.
    W, their projector partially transposed, is 1/2 on each |a_j b_i> and
    |a_i b_j> of E and -A/2 on span{|a_i b_i>}, with A the 0/1 adjacency
    matrix of E, so ||W|| = lambda_max(A)/2: one batched eigensolve of r x r
    pair graphs, r the most vertices E has in any row. Vertices outside E only
    add zero eigenvalues, and both values are 0 when E is empty. With r = 2,
    as on every one-qubit cut, E is at most the edge {0, 1}, whose lambda_max
    is 1, so no eigensolve runs.
    """
    products = s[..., :, None] * s[..., None, :]
    edges = np.triu(products > linops.PSD_TOL, 1)
    value = np.sum(products, axis=(-2, -1), where=edges)
    # s is nonincreasing, so E lives on vertices 0..r-1 and each of them meets vertex 0.
    r = int(np.count_nonzero(edges[..., 0, :], axis=-1).max(initial=0)) + 1
    if r <= 2:
        return value, 0.5 * edges[..., 0, 1]
    adjacency = (edges | np.swapaxes(edges, -2, -1))[..., :r, :r].astype(float)
    return value, 0.5 * np.linalg.eigvalsh(adjacency)[..., -1]


def witness_k(w: Witness) -> float:
    """Spectral class constant k = max(m, n).

    Declared class bounds take precedence; otherwise the tightest admissible
    bounds m = max(0, lambda_max) and n = max(0, -lambda_min) are read off the
    concrete spectrum.
    """
    if w.class_bounds is not None:
        return max(w.class_bounds)
    spec = w.op.eigenvalues()
    return max(0.0, float(spec[-1]), float(-spec[0]))


def max_product_overlap(
    projector: HermOp, config: ProductSearchConfig | None = None
) -> float:
    """Largest overlap <prod|P|prod> over fully product unit kets (lower bound).

    Alternating single-site optimization: with all sites but one frozen the
    objective reduces to a Rayleigh quotient of a small Hermitian matrix, so
    each sweep sets one site to a principal eigenvector and never decreases
    the objective. Runs ``config.restarts`` independent seeded starts
    (``DEFAULT_SEED`` + restart index) and returns the best value found. Ties
    in the principal eigenvector keep the previous site vector, so the search
    reproduces.
    """
    if config is None:
        config = ProductSearchConfig()
    _check_projector(projector)
    reg = projector.register
    dims = reg.dims
    n = reg.nsub
    tens = projector.matrix.reshape(dims + dims)

    best = 0.0
    for restart in range(config.restarts):
        rng = np.random.default_rng(DEFAULT_SEED + restart)
        sites = [_random_unit(rng, d) for d in dims]
        value = -np.inf
        for _ in range(SEESAW_MAX_ITERATIONS):
            previous = value
            for j in range(n):
                m = _effective_site_matrix(tens, sites, n, j)
                evals, evecs = np.linalg.eigh(m)
                top = float(evals[-1])
                degenerate = evals.size > 1 and (
                    evals[-1] - evals[-2] <= 1e-12 * max(1.0, abs(top))
                )
                if not degenerate:
                    sites[j] = evecs[:, -1]
                value = float(
                    np.real(np.vdot(sites[j], m @ sites[j]))
                )
            if value - previous <= SEESAW_CONVERGENCE_TOL:
                break
        best = max(best, value)
    return best


def _effective_site_matrix(tens, sites, n, j):
    operands = [tens, list(range(2 * n))]
    for i in range(n):
        if i == j:
            continue
        operands.extend([sites[i].conj(), [i]])
        operands.extend([sites[i], [n + i]])
    m = np.einsum(*operands, [j, n + j])
    return 0.5 * (m + m.conj().T)


def _random_unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _check_projector(projector: HermOp) -> None:
    p = projector.matrix
    dev = float(np.max(np.abs(p @ p - p)))
    if dev > 1e-9:
        raise ValueError(f"operator is not idempotent: max |P^2 - P| = {dev:.3e}")
