"""Entanglement quantifiers: negativity, PPT tests, generalized-robustness bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import linops, sdpcore
from .linops import HermOp, Partition
from .qstate import Ket, RegisterMismatchError
from .witnesses import Witness, WitnessClassError, eval_witness

DIAGONAL_TOL = 1e-10


@dataclass(frozen=True)
class RobustnessBounds:
    """One- or two-sided bracket on the generalized robustness of a state.

    ``upper`` is None while unknown. ``certified_upper`` is set when the
    mixing point passed the diagonal-product separability certificate.
    """

    lower: float = 0.0
    upper: float | None = None
    certified_upper: bool = False
    witness_used: Witness | None = None
    mixing_state_used: HermOp | None = None
    s_star: float | None = None

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.upper is not None and self.lower > self.upper + 1e-7:
            raise ValueError(
                f"bounds cross: lower {self.lower} > upper {self.upper}"
            )


@dataclass(frozen=True)
class QuantifierConfig:
    """Which quantifier to run and over which bipartitions."""

    kind: Literal["negativity", "generalized_robustness"] = "negativity"
    partitions: tuple[Partition, ...] | None = None  # None: all single-vs-rest
    psd_tol: float = linops.PSD_TOL

    def resolve_partitions(self, register) -> list[Partition]:
        if self.partitions is None:
            return linops.single_cut_partitions(register)
        parts = list(self.partitions)
        if not parts:
            raise ValueError("partition list cannot be empty")
        for p in parts:
            p.validate(register, proper=True)
        return parts


@dataclass(frozen=True)
class MixingSearch:
    """Settings for the mixing upper bound.

    Mixing weights are taken from [0, s_max], which defaults to [0, register
    size]. A weight passes when every off-diagonal entry of the mixture has
    modulus at most ``certificate_tol``.
    """

    s_max: float | None = None
    certificate_tol: float = DIAGONAL_TOL

    def __post_init__(self):
        if self.s_max is not None and self.s_max <= 0:
            raise ValueError("mixing weight bound s_max must be positive")


def pt_profile(
    rho: HermOp, partitions: Sequence[Partition], tol: float = linops.PSD_TOL
) -> list[tuple[float, bool]]:
    """Negativity and Peres flag per bipartition, from one eigensolve of each rho^{T_A}.

    The flag says whether rho^{T_A} is positive semidefinite within ``tol``.
    """
    linops.check_density(rho)
    profile = []
    for p in partitions:
        p.validate(rho.register, proper=True)
        rt = linops.partial_transpose(rho, p)
        value = float(np.sum(np.clip(-rt.eigenvalues(), 0.0, None)))
        profile.append((value, linops.is_psd(rt, tol)))
    return profile


def negativity(rho: HermOp, partition: Partition) -> float:
    """Sum of |negative eigenvalues| of the partially transposed state.

    No factor-2 rescaling: the value equals -Tr(W rho) for the witness built
    by :func:`entsup.witnesses.negativity_optimal_witness`.
    """
    return pt_profile(rho, [partition])[0][0]


def witnessed_entanglement_pure(psi: Ket, w: Witness) -> float:
    """Pure-state witnessed entanglement max(0, -<psi|W|psi>)."""
    return max(0.0, -eval_witness(w, psi))


def ppt_check(
    rho: HermOp, partitions: Sequence[Partition], tol: float = linops.PSD_TOL
) -> list[bool]:
    """Peres test per bipartition: is rho^{T_A} positive semidefinite?"""
    return [flag for _, flag in pt_profile(rho, partitions, tol)]


def mix(rho: HermOp, pi: HermOp, s: float) -> HermOp:
    """Noisy mixture (rho + s*pi) / (1 + s)."""
    if s < 0:
        raise ValueError(f"mixing weight must be nonnegative, got {s}")
    if rho.register != pi.register:
        raise RegisterMismatchError("mixed states live on different registers")
    return HermOp(rho.register, (rho.matrix + s * pi.matrix) / (1.0 + s))


def separability_certificate_diagonal(rho: HermOp, tol: float = DIAGONAL_TOL) -> bool:
    """True when rho is diagonal in the computational product basis.

    Diagonal states are separable by an explicit convex combination of product
    projectors, so this certificate is sound (but far from complete).
    """
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    return float(np.max(np.abs(off))) <= tol if off.size else True


def rg_lower_via_witness(rho: HermOp, w: Witness) -> RobustnessBounds:
    """Robustness lower bound max(0, -Tr(W rho)) from a W <= I witness."""
    if not w.cap_identity:
        raise WitnessClassError(
            "robustness lower bounds need a witness from the W <= I class"
        )
    value = max(0.0, -eval_witness(w, rho))
    return RobustnessBounds(lower=value, witness_used=w)


def rg_upper_via_mixing(
    rho: HermOp, pi: HermOp, search: MixingSearch | None = None
) -> RobustnessBounds:
    """Smallest mixing weight s making (rho + s*pi)/(1+s) pass the certificate.

    Tries, in order: s = 0; the analytic cancellation point where every
    off-diagonal of rho + s*pi vanishes simultaneously (exact for states whose
    coherences are proportional to minus the mixing state's); then the closed
    form left end of the passing set. Every candidate is re-checked against
    the certificate; when none passes in [0, s_max] the upper bound is unknown.
    """
    linops.check_density(rho)
    linops.check_density(pi)
    if rho.register != pi.register:
        raise RegisterMismatchError("state and mixing state registers differ")
    if search is None:
        search = MixingSearch()
    s_max = float(search.s_max) if search.s_max is not None else float(rho.register.size)
    tol = search.certificate_tol
    candidates = (
        lambda: 0.0,
        lambda: _diagonal_cancellation_point(rho, pi),
        lambda: _passing_set_left_end(rho, pi, tol),
    )
    for candidate in candidates:
        s = candidate()
        if (
            s is not None
            and s <= s_max
            and separability_certificate_diagonal(mix(rho, pi, s), tol)
        ):
            return RobustnessBounds(
                lower=0.0, upper=s, certified_upper=True, mixing_state_used=pi, s_star=s
            )
    return RobustnessBounds(lower=0.0, upper=None, mixing_state_used=pi)


def rg_ppt_sdp(
    rho: HermOp,
    partitions: Sequence[Partition],
    tol: float | None = None,
    max_iter: int = 200_000,
) -> float:
    """PPT-relaxed robustness: min Tr(X), X >= 0, (rho + X)^{T_A} >= 0 per cut.

    The PPT set contains the separable set, so the optimum lower-bounds the
    generalized robustness. The solution carries a duality-gap certificate at
    the configured tolerance; non-convergence raises
    :class:`entsup.sdpcore.SolverFailureError` with the best feasible value.
    """
    problem = sdpcore.build_robustness_sdp(rho, partitions)
    linops.check_density(rho)
    if tol is None:
        tol = sdpcore.default_tolerance(problem.variable_dim)
    solution = sdpcore.solve(problem, tol=tol, max_iter=max_iter)
    if solution.status != "optimal":
        raise sdpcore.SolverFailureError(
            f"robustness SDP stopped with status {solution.status!r}",
            best_value=solution.primal_value,
            solution=solution,
        )
    return solution.primal_value


def _diagonal_cancellation_point(rho: HermOp, pi: HermOp) -> float | None:
    """The unique s with rho + s*pi diagonal, if one exists."""
    r = rho.matrix.copy()
    p = pi.matrix.copy()
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(p, 0.0)
    scale = max(float(np.max(np.abs(r))), 1e-300)
    live = np.abs(r) > 1e-13 * scale
    if not live.any():
        return None
    if np.any(live & (np.abs(p) < 1e-13 * scale)):
        return None
    ratios = -r[live] / p[live]
    s = ratios[0]
    if abs(s.imag) > 1e-9 * max(1.0, abs(s)) or s.real <= 0:
        return None
    if np.max(np.abs(ratios - s)) > 1e-9 * max(1.0, abs(s)):
        return None
    # Entries of rho that vanish must stay zero at the mixing point.
    dead = (~live) & (np.abs(p) > 1e-13 * scale)
    if dead.any():
        return None
    return float(s.real)


def _passing_set_left_end(rho: HermOp, pi: HermOp, tol: float) -> float | None:
    """Smallest s >= 0 with |r_ij + s*p_ij| <= tol*(1 + s) for every i != j.

    Each condition is convex in s, so the passing set is an interval and its
    left end is the largest per-entry left end: 0 where the entry passes at
    s = 0, else the smaller root of |r + s p|^2 = tol^2 (1 + s)^2, written as
    c / (sqrt(disc) - b) to avoid cancellation. None when some entry never
    passes. The returned point may still lie past the right end of another
    entry's interval; the caller's re-check catches that. The target is
    shrunk by a relative 1e-12 so that rounding in the re-check cannot push
    the returned point just outside the set.
    """
    upper = np.triu_indices(rho.register.size, k=1)
    r = rho.matrix[upper]
    p = pi.matrix[upper]
    t2 = (tol * (1.0 - 1e-12)) ** 2
    a = np.abs(p) ** 2 - t2
    b = (r.conj() * p).real - t2
    c = np.abs(r) ** 2 - t2
    disc = b * b - a * c
    denom = np.sqrt(np.clip(disc, 0.0, None)) - b
    failing = c > 0
    if np.any(failing & ((disc < 0) | (denom <= 0))):
        return None
    if not failing.any():
        return 0.0
    return float(np.max(c[failing] / denom[failing]))
