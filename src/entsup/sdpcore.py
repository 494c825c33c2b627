"""Minimal dense SDP kernel for the PPT-relaxed robustness program.

Solves min Tr(X) subject to a list of affine PSD constraints of the shape
``(offset + X)^{T_A} >= 0`` (the plain cone ``X >= 0`` is the special case of
an empty transpose set and zero offset) with a consensus ADMM over the cones:
each constraint keeps a local copy of X that is projected onto its cone, and
the copies are averaged against the objective. Because a partial transpose is
an entrywise permutation, projecting onto each cone is a single Hermitian
eigensolve with negative eigenvalues clipped.

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
class PsdConstraint:
    """Affine map X -> (offset + X) partially transposed over ``transposed``."""

    offset: np.ndarray
    transposed: tuple[int, ...]

    def apply(self, x: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
        return _transpose_subsystems(self.offset + x, dims, self.transposed)

    def back(self, y: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
        """Inverse of the transpose part (partial transpose is an involution)."""
        return _transpose_subsystems(y, dims, self.transposed)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Minimize Tr(X) subject to every constraint being PSD."""

    dims: tuple[int, ...]
    constraints: tuple[PsdConstraint, ...]

    @property
    def variable_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(eq=False)
class SdpSolution:
    x_opt: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: str  # "optimal" | "max_iter" | "infeasible"


def build_robustness_sdp(rho: HermOp, partitions: Sequence[Partition]) -> SdpProblem:
    """Program min Tr(X), X >= 0, (rho + X)^{T_A} >= 0 for every listed cut."""
    if not partitions:
        raise ValueError("need at least one partition")
    d = rho.register.size
    dims = rho.register.dims
    cons = [PsdConstraint(np.zeros((d, d), dtype=np.complex128), ())]
    for p in partitions:
        p.validate(rho.register, proper=True)
        cons.append(
            PsdConstraint(rho.matrix.copy(), tuple(sorted(p.transposed)))
        )
    return SdpProblem(dims, tuple(cons))


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = 200_000) -> SdpSolution:
    """Run the ADMM until the primal-dual certificate gap drops below tol.

    Deterministic for fixed inputs. Hitting ``max_iter`` returns the best
    certified iterate with status ``max_iter``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if problem.variable_dim > MAX_DIMENSION:
        raise ValueError(
            f"kernel limited to dimension {MAX_DIMENSION}, got {problem.variable_dim}"
        )
    dims = problem.dims
    d = problem.variable_dim
    cons = problem.constraints
    n_cons = len(cons)
    c = np.eye(d, dtype=np.complex128)  # objective matrix: Tr(X) = Tr(I X)

    x = np.zeros((d, d), dtype=np.complex128)
    slots = [np.zeros_like(x) for _ in cons]
    duals = [np.zeros_like(x) for _ in cons]
    neg_parts = [np.zeros_like(x) for _ in cons]
    tau = 1.0
    check_every = 25
    x_at_last_check = x.copy()
    best = None

    iterations = 0
    while iterations < max_iter:
        iterations += 1
        for i, con in enumerate(cons):
            y = con.apply(x - duals[i], dims)
            w, v = np.linalg.eigh(y)
            pos = (v * np.clip(w, 0.0, None)) @ v.conj().T
            neg_parts[i] = (v * np.clip(-w, 0.0, None)) @ v.conj().T
            slots[i] = con.back(pos, dims) - con.offset
        x = sum(s + u for s, u in zip(slots, duals)) / n_cons - c / (n_cons * tau)
        x = 0.5 * (x + x.conj().T)
        for i in range(n_cons):
            duals[i] = duals[i] + slots[i] - x

        if iterations % check_every == 0 or iterations == max_iter:
            cert = _certificate_attempt(problem, x, neg_parts, tau)
            if cert is not None:
                primal, dual, x_feas = cert
                gap = primal - dual
                if best is None or gap < best[2]:
                    best = (primal, dual, gap, x_feas, iterations)
                if gap <= tol:
                    return SdpSolution(x_feas, primal, dual, gap, iterations, "optimal")
            # Residual balancing keeps the primal and dual errors comparable.
            primal_res = float(
                np.sqrt(sum(np.linalg.norm(s - x) ** 2 for s in slots))
            )
            dual_res = tau * np.sqrt(n_cons) * float(np.linalg.norm(x - x_at_last_check))
            x_at_last_check = x.copy()
            if primal_res > 10.0 * dual_res and tau < 1e6:
                tau *= 2.0
                duals = [u / 2.0 for u in duals]
            elif dual_res > 10.0 * primal_res and tau > 1e-6:
                tau /= 2.0
                duals = [u * 2.0 for u in duals]

    if best is None:
        lift = _feasible_lift(problem, x)
        best = (lift[0], -np.inf, np.inf, lift[1], iterations)
    primal, dual, gap, x_feas, _ = best
    return SdpSolution(x_feas, primal, dual, gap, iterations, "max_iter")


def check_certificate(problem: SdpProblem, solution: SdpSolution, tol: float) -> bool:
    """Re-verify feasibility and the gap bound with fresh eigensolves."""
    x = solution.x_opt
    for con in problem.constraints:
        w = np.linalg.eigvalsh(con.apply(x, problem.dims))
        if w[0] < -FEASIBILITY_TOL:
            return False
    primal = float(np.trace(x).real)
    if abs(primal - solution.primal_value) > max(1e-9, 1e-9 * abs(primal)):
        return False
    if solution.dual_value > solution.primal_value + 1e-8:
        return False
    return solution.gap <= tol


def _certificate_attempt(problem, x, neg_parts, tau):
    """Build a feasible primal point and a feasible dual point from iterates."""
    primal, x_feas = _feasible_lift(problem, x)

    total = np.zeros_like(x)
    const = 0.0
    for con, neg in zip(problem.constraints, neg_parts):
        z = tau * neg
        total += con.back(z, problem.dims)
        const += float(np.trace(z @ con.back(con.offset, problem.dims)).real)
    # The dual point needs I - theta * total >= 0; take the largest such theta <= 1.
    lam_max = float(np.linalg.eigvalsh(total)[-1])
    theta = 1.0 if lam_max <= 1.0 else 1.0 / lam_max
    dual = -theta * const
    return primal, dual, x_feas


def _feasible_lift(problem, x):
    """Shift x along the identity until every constraint is PSD.

    The identity is invariant under partial transposes, so a single shift
    fixes all constraints at once and gives an exactly feasible point.
    """
    beta = 0.0
    for con in problem.constraints:
        w_min = float(np.linalg.eigvalsh(con.apply(x, problem.dims))[0])
        beta = max(beta, -w_min)
    x_feas = x + beta * np.eye(x.shape[0])
    primal = float(np.trace(x_feas).real)
    return primal, x_feas
