"""Minimal dense SDP kernel for the PPT-relaxed robustness program.

Solves min Tr(X) subject to X >= 0 and (rho + X)^{T_A} >= 0 for every listed
cut A. Cone i reads (offset_i + X)^{T_i} >= 0, with offset 0 and no transpose
for X >= 0 and offset rho for each cut, so the program is one stacked
(k, d, d) offsets array and one flat gather index per cone. A partial
transpose permutes matrix entries and is an involution, so one gather applies
every cone's transpose and the same gather undoes it.

A consensus ADMM keeps a local copy of X per cone, projects each copy onto its
cone by clipping the negative eigenvalues of its transposed form (one batched
eigensolve for all cones), and averages the copies against the objective.

The stopping rule is a certificate, not a heuristic: a feasible primal point
is produced by shifting the iterate along the identity, a feasible dual point
by rescaling the clipped negative parts of the projections (the scale is
1/lambda_max of their summed pull-back, capped at 1), and the solver
stops when the true primal-dual gap between those two drops below the
tolerance. ``check_certificate`` re-verifies both facts from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linops import HermOp, Partition, _transpose_subsystems

DEFAULT_TOL = 1e-6
FEASIBILITY_TOL = 1e-7
MAX_DIMENSION = 256
CHECK_EVERY = 25


def default_tolerance(dim: int) -> float:
    """Honest accuracy targets at desk scale: 1e-6 up to 16, 1e-4 up to 256."""
    return 1e-6 if dim <= 16 else 1e-4


class SolverFailureError(RuntimeError):
    """The solver stopped without a certified optimum."""

    def __init__(self, message, best_value=None, solution=None):
        super().__init__(message)
        self.best_value = best_value
        self.solution = solution


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Minimize Tr(X) subject to (offsets[i] + X)^{T_i} >= 0 for every cone i.

    ``transposed[i]`` names the subsystems of T_i, and ``gather`` holds, for
    every entry of the stacked (k, d, d) array, the flat index of the entry
    that T_i moves there.
    """

    dims: tuple[int, ...]
    transposed: tuple[tuple[int, ...], ...]
    offsets: np.ndarray
    gather: np.ndarray

    @property
    def variable_dim(self) -> int:
        return math.prod(self.dims)

    def transpose(self, stack: np.ndarray) -> np.ndarray:
        """Apply T_i to slice i of a stacked (k, d, d) array; its own inverse."""
        return stack.reshape(-1)[self.gather]

    def cones(self, x: np.ndarray) -> np.ndarray:
        """The stacked constraint matrices (offsets[i] + x)^{T_i}."""
        return self.transpose(self.offsets + x)


@dataclass(eq=False)
class SdpSolution:
    x_opt: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: str  # "optimal" | "max_iter"


def build_robustness_sdp(rho: HermOp, partitions: Sequence[Partition]) -> SdpProblem:
    """Program min Tr(X), X >= 0, (rho + X)^{T_A} >= 0 for every listed cut."""
    if not partitions:
        raise ValueError("need at least one partition")
    d = rho.register.size
    if d > MAX_DIMENSION:
        raise ValueError(f"robustness SDP limited to dimension {MAX_DIMENSION}, got {d}")
    for p in partitions:
        p.validate(rho.register, proper=True)
    dims = rho.register.dims
    transposed = ((),) + tuple(tuple(sorted(p.transposed)) for p in partitions)
    k = len(transposed)
    offsets = np.zeros((k, d, d), dtype=np.complex128)
    offsets[1:] = rho.matrix
    entries = np.arange(d * d).reshape(d, d)
    gather = np.stack(
        [_transpose_subsystems(entries, dims, t) + i * d * d for i, t in enumerate(transposed)]
    )
    return SdpProblem(dims, transposed, offsets, gather)


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = 200_000) -> SdpSolution:
    """Run the ADMM until the primal-dual certificate gap drops below tol.

    Deterministic for fixed inputs. Hitting ``max_iter`` returns the best
    certified iterate with status ``max_iter``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"need at least one iteration, got max_iter={max_iter}")
    d = problem.variable_dim
    k = len(problem.transposed)
    c = np.eye(d, dtype=np.complex128)  # objective matrix: Tr(X) = Tr(I X)

    x = np.zeros((d, d), dtype=np.complex128)
    duals = np.zeros((k, d, d), dtype=np.complex128)
    tau = 1.0
    x_at_last_check = x
    best = None

    iterations = 0
    while iterations < max_iter:
        iterations += 1
        w, v = np.linalg.eigh(problem.cones(x - duals))
        slots = problem.transpose(_scaled_outer(v, np.clip(w, 0.0, None)))
        slots -= problem.offsets
        x = (slots + duals).sum(axis=0) / k - c / (k * tau)
        x = 0.5 * (x + x.conj().T)
        duals += slots
        duals -= x

        if iterations % CHECK_EVERY == 0 or iterations == max_iter:
            neg = _scaled_outer(v, np.clip(-w, 0.0, None))
            primal, dual, x_feas = _certificate_attempt(problem, x, neg, tau)
            gap = primal - dual
            if gap <= tol:
                return SdpSolution(x_feas, primal, dual, gap, iterations, "optimal")
            if best is None or gap < best.gap:
                best = SdpSolution(x_feas, primal, dual, gap, iterations, "max_iter")
            # Residual balancing keeps the primal and dual errors comparable.
            slots -= x
            primal_res = float(np.linalg.norm(slots))
            dual_res = tau * np.sqrt(k) * float(np.linalg.norm(x - x_at_last_check))
            x_at_last_check = x
            if primal_res > 10.0 * dual_res and tau < 1e6:
                tau *= 2.0
                duals /= 2.0
            elif dual_res > 10.0 * primal_res and tau > 1e-6:
                tau /= 2.0
                duals *= 2.0

    best.iterations = iterations
    return best


def check_certificate(problem: SdpProblem, solution: SdpSolution, tol: float) -> bool:
    """Re-verify feasibility and the gap bound with fresh eigensolves."""
    x = solution.x_opt
    if np.linalg.eigvalsh(problem.cones(x))[:, 0].min() < -FEASIBILITY_TOL:
        return False
    primal = float(np.trace(x).real)
    if abs(primal - solution.primal_value) > max(1e-9, 1e-9 * abs(primal)):
        return False
    if solution.dual_value > solution.primal_value + 1e-8:
        return False
    return solution.gap <= tol


def _scaled_outer(v, w):
    """Stacked V diag(w) V^dagger from stacked eigenvectors and weights."""
    return (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)


def _certificate_attempt(problem, x, neg, tau):
    """Build a feasible primal point and a feasible dual point from iterates."""
    primal, x_feas = _feasible_lift(problem, x)
    neg *= tau
    pulled = problem.transpose(neg)
    total = pulled.sum(axis=0)
    # sum_i Tr(Z_i (offset_i)^{T_i}) = sum_i Tr(Z_i^{T_i} offset_i), one inner product.
    const = float(np.vdot(problem.offsets, pulled).real)
    # The dual point needs I - theta * total >= 0; take the largest such theta <= 1.
    lam_max = float(np.linalg.eigvalsh(total)[-1])
    theta = 1.0 if lam_max <= 1.0 else 1.0 / lam_max
    dual = -theta * const
    return primal, dual, x_feas


def _feasible_lift(problem, x):
    """Shift x along the identity until every cone is PSD.

    The identity is invariant under partial transposes, so a single shift
    fixes all cones at once and gives an exactly feasible point.
    """
    w_min = float(np.linalg.eigvalsh(problem.cones(x))[:, 0].min())
    x_feas = x + max(0.0, -w_min) * np.eye(x.shape[0])
    primal = float(np.trace(x_feas).real)
    return primal, x_feas
