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
The step is set once per run from the problem's scale: twice the largest cut
negativity of rho (the optimum of a pure state on one cut), capped at 1 and
floored at the tolerance. A step of 1 needs about 1/R iterations for a small
optimum R; residual balancing (Boyd et al. 2011, sec. 3.4.1) cost iterations.

With the duals averaging to the objective pull, one ADMM pass is a
Douglas-Rachford map F on the projection inputs z_i = X - dual_i, firmly
nonexpansive in the norm of z. Type-II Anderson acceleration (Walker & Ni 2011)
moves to F(z) - dF gamma, where gamma fits the last ``ANDERSON_MEMORY`` changes
dG of g = F(z) - z to g by ridge least squares. A safeguard (Zhang, O'Donoghue
& Boyd 2020) drops a point whose ||g|| exceeds that of the point it came from,
and restarts from that point's plain image with an empty memory.

The stopping rule is a certificate, not a heuristic: a feasible primal point
is produced by shifting the iterate along the identity, a feasible dual point
by rescaling the clipped negative parts of the projections (the scale is
1/lambda_max of their summed pull-back, capped at 1), and the solver
stops when the true primal-dual gap between those two drops below the
tolerance. ``check_certificate`` re-verifies both facts from scratch. Any
iterate gives both points, so acceleration cannot certify a wrong value.
A check reads the iterate without changing it, so where the checks fall
(``CHECK_EVERY``) decides only at which iteration a solve stops.

A real rho makes a real program, solved in real arithmetic: the offsets
are then float64, and the iterates and both certificate points with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linops import HermOp, Partition, _transpose_subsystems
from .qstate import Ket, density

FEASIBILITY_TOL = 1e-7
# Largest variable dimension. One solve of a random pure state, all single cuts, took
# 0.8-2.0 s at d = 32, 4.7-6.0 s at d = 64 and 28-44 s at d = 128 on a 2-vCPU machine.
MAX_DIMENSION = 64
# Least spacing of certificate checks. Iteration i is checked once i - (last check) >=
# max(CHECK_EVERY, isqrt(last check)), and always at MAX_ITERATIONS: a short solve stops
# within 8 iterations of its first certifiable point, and a check, which costs less than
# an iteration, stays a shrinking share of a long one (123 checks over 4 096 iterations).
CHECK_EVERY = 8
ANDERSON_MEMORY = 30  # steps of the ADMM map that Anderson acceleration extrapolates over
# Iteration budget of one solve; a solve that spends it stops with status "max_iter".
# At 7.4-9.2 ms per d = 64 iteration (2-vCPU machine) it lasts at most about 55 s; the
# slowest certified solve measured, a random 4-qubit ket at 1e-6, certifies at 4 096.
MAX_ITERATIONS = 6_000


def default_tolerance(dim: int) -> float:
    """Honest accuracy targets at desk scale: 1e-6 up to 16, 1e-4 above."""
    return 1e-6 if dim <= 16 else 1e-4


class DimensionLimitError(ValueError):
    """The robustness SDP refuses a variable dimension above ``MAX_DIMENSION``."""


class SolverFailureError(RuntimeError):
    """The solver stopped without a certified optimum."""

    def __init__(self, message: str, best_value: float):
        super().__init__(message)
        self.best_value = best_value


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Minimize Tr(X) subject to (offsets[i] + X)^{T_i} >= 0 for every cone i.

    ``offsets`` is the stacked (k, d, d) array, and ``gather`` holds, for each
    of its entries, the flat index of the entry that T_i moves there.
    """

    offsets: np.ndarray
    gather: np.ndarray

    @property
    def variable_dim(self) -> int:
        return self.offsets.shape[-1]

    def transpose(self, stack: np.ndarray) -> np.ndarray:
        """Apply T_i to slice i of a stacked (k, d, d) array; its own inverse."""
        return stack.reshape(-1)[self.gather]

    def cones(self, x: np.ndarray) -> np.ndarray:
        """The stacked constraint matrices (offsets[i] + x)^{T_i}."""
        return self.transpose(self.offsets + x)


@dataclass(eq=False)
class SdpSolution:
    """Feasible primal X, feasible dual stack Z (Z_i >= 0, sum_i Z_i^{T_i} <= I), values, gap."""

    x_opt: np.ndarray
    dual_stack: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: str  # "optimal" | "max_iter"


def build_robustness_sdp(state: HermOp | Ket, partitions: Sequence[Partition]) -> SdpProblem:
    """Program min Tr(X), X >= 0, (rho + X)^{T_A} >= 0 for every listed cut.

    A ket stands for rho = |psi><psi|, which is built only below the
    dimension limit.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    d = state.register.size
    if d > MAX_DIMENSION:
        raise DimensionLimitError(f"robustness SDP limited to dimension {MAX_DIMENSION}, got {d}")
    for p in partitions:
        p.validate(state.register)
    dims = state.register.dims
    transposed = ((),) + tuple(tuple(sorted(p.transposed)) for p in partitions)
    k = len(transposed)
    rho = (density(state) if isinstance(state, Ket) else state).matrix
    if not rho.imag.any():  # a real program: the partial transpose commutes with conjugation
        rho = rho.real
    offsets = np.zeros((k, d, d), dtype=rho.dtype)
    offsets[1:] = rho
    entries = np.arange(d * d).reshape(d, d)
    gather = np.stack(
        [_transpose_subsystems(entries, dims, t) + i * d * d for i, t in enumerate(transposed)]
    )
    return SdpProblem(offsets, gather)


def solve(problem: SdpProblem, tol: float) -> SdpSolution:
    """Run the ADMM until the primal-dual certificate gap drops below tol.

    Deterministic for fixed inputs. Spending ``MAX_ITERATIONS`` returns the
    best certified iterate with status ``max_iter``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    k, d = problem.offsets.shape[:2]
    negativities = np.clip(-np.linalg.eigvalsh(problem.cones(0.0)), 0.0, None).sum(axis=1)
    step = min(1.0, max(tol, 2.0 * float(negativities.max())))
    pull = step * np.eye(d, dtype=problem.offsets.dtype) / k  # objective pull: Tr(X) = Tr(I X)

    # The state is z_i = x - dual_i, viewed as one flat real vector like its
    # image F(z); the ring holds the last changes of F(z) and of g = F(z) - z.
    state = np.zeros_like(problem.offsets)
    image = np.empty_like(state)
    s, f = state.reshape(-1).view(np.float64), image.reshape(-1).view(np.float64)
    diffs = np.empty((2, ANDERSON_MEMORY, s.size))
    gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))  # inner products of the g changes
    last_f, last_g = np.empty_like(s), np.empty_like(s)
    fill, m, came_from = 0, 0, math.inf  # came_from: ||g||^2 where s was extrapolated from
    best = None

    iterations = checked = 0  # checked: the iteration of the last certificate check
    while iterations < MAX_ITERATIONS:
        iterations += 1
        w, v = np.linalg.eigh(problem.cones(state))
        slots = problem.transpose(_scaled_outer(v, np.maximum(w, 0.0)))
        slots -= problem.offsets
        x = np.add.reduce(slots, axis=0) / k
        x += x.conj().T
        x *= 0.5
        np.subtract(state, slots, out=image)
        image += 2.0 * x - np.add.reduce(state, axis=0) / k - pull

        if iterations - checked >= max(CHECK_EVERY, math.isqrt(checked)) or (
            iterations == MAX_ITERATIONS
        ):
            checked = iterations
            neg = _scaled_outer(v, np.maximum(-w, 0.0) / step)
            attempt = _certificate_attempt(problem, x, neg, iterations, tol)
            if attempt.status == "optimal":
                return attempt
            if best is None or attempt.gap < best.gap:
                best = attempt

        g = f - s
        norm = float(g @ g)
        if norm > came_from:
            # Safeguard: drop s, restart from the plain image of the point it came from.
            s[:] = last_f
            fill, came_from = 0, math.inf
            continue
        if iterations > 1:
            slot = fill % ANDERSON_MEMORY
            np.subtract(f, last_f, out=diffs[0, slot])
            np.subtract(g, last_g, out=diffs[1, slot])
            fill += 1
            m = min(fill, ANDERSON_MEMORY)
            gram[slot, :m] = gram[:m, slot] = diffs[1, :m] @ diffs[1, slot]
        last_f[:], last_g[:] = f, g
        # Type-II Anderson: s = F(s) - dF gamma, with gamma minimising ||g - dG gamma||;
        # with no changes yet (m = 0) it is the plain step s = F(s).
        if m:
            normal = gram[:m, :m].copy()
            normal.flat[:: m + 1] += 1e-10 * np.trace(normal) + 1e-300
            gamma = np.linalg.solve(normal, diffs[1, :m] @ g)
            np.subtract(f, gamma @ diffs[0, :m], out=s)
        else:
            s[:] = f
        came_from = norm

    best.iterations = iterations
    return best


def check_certificate(problem: SdpProblem, solution: SdpSolution, tol: float) -> bool:
    """Re-verify both points, their values and the gap bound with fresh eigensolves."""
    x, z = solution.x_opt, solution.dual_stack
    if np.linalg.eigvalsh(problem.cones(x))[:, 0].min() < -FEASIBILITY_TOL:
        return False
    if np.linalg.eigvalsh(z)[:, 0].min() < -FEASIBILITY_TOL:
        return False
    pulled = problem.transpose(z)
    if np.linalg.eigvalsh(pulled.sum(axis=0))[-1] > 1.0 + FEASIBILITY_TOL:
        return False
    primal = float(np.trace(x).real)
    dual = -float(np.vdot(problem.offsets, pulled).real)
    values = (primal, dual, primal - dual)
    claimed = (solution.primal_value, solution.dual_value, solution.gap)
    if any(abs(v - c) > max(1e-9, 1e-9 * abs(v)) for v, c in zip(values, claimed)):
        return False
    if solution.dual_value > solution.primal_value + 1e-8:
        return False
    return solution.gap <= tol


def _scaled_outer(v, w):
    """Stacked V diag(w) V^dagger from stacked eigenvectors and weights."""
    return (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)


def _certificate_attempt(problem, x, neg, iterations, tol):
    """The check at ``iterations``: x lifted feasible, ``neg`` scaled feasible in place, gap."""
    # The identity is invariant under partial transposes, so one shift along it makes
    # every cone PSD at once and gives an exactly feasible point.
    w_min = float(np.linalg.eigvalsh(problem.cones(x))[:, 0].min())
    x_feas = x + max(0.0, -w_min) * np.eye(x.shape[0])
    primal = float(np.trace(x_feas).real)
    pulled = problem.transpose(neg)
    # sum_i Tr(Z_i (offset_i)^{T_i}) = sum_i Tr(Z_i^{T_i} offset_i), one inner product.
    const = float(np.vdot(problem.offsets, pulled).real)
    # The dual point needs I - theta * (summed pull-back) >= 0; take the largest such theta <= 1.
    lam_max = float(np.linalg.eigvalsh(pulled.sum(axis=0))[-1])
    theta = 1.0 if lam_max <= 1.0 else 1.0 / lam_max
    neg *= theta
    dual = -theta * const
    gap = primal - dual
    status = "optimal" if gap <= tol else "max_iter"
    return SdpSolution(x_feas, neg, primal, dual, gap, iterations, status)
