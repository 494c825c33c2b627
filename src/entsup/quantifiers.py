"""Entanglement quantifiers: negativity, PPT tests, generalized-robustness bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import linops, sdpcore
from .linops import HermOp, Partition
from .qstate import Ket, RegisterMismatchError
from .witnesses import Witness, WitnessClassError, eval_witness, maxent_cut_expectation

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

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.upper is not None and self.lower > self.upper + 1e-7:
            raise ValueError(
                f"bounds cross: lower {self.lower} > upper {self.upper}"
            )


@dataclass(frozen=True)
class QuantifierConfig:
    """Which quantifier a sweep bounds; it runs over every single cut."""

    kind: Literal["negativity", "generalized_robustness"] = "negativity"


def pt_profile(
    state: HermOp | Ket, partitions: Sequence[Partition]
) -> list[tuple[float, bool]]:
    """Negativity and Peres flag per bipartition.

    The flag says whether the partially transposed state is positive
    semidefinite within ``PSD_TOL``. A dense operator pays one eigensolve of
    each rho^{T_A}. A ket pays one SVD per cut: with Schmidt coefficients
    s_1 >= s_2 >= ..., the spectrum of |psi><psi|^{T_A} is s_i^2 and
    +-s_i s_j for i < j, so the negativity is sum_{i<j} s_i s_j and the
    smallest eigenvalue is -s_1 s_2 (Vidal & Werner, PRA 65, 032314, 2002).
    """
    linops.check_density(state)
    profile = []
    for p in partitions:
        if isinstance(state, Ket):
            s = linops.schmidt_coefficients(state, p)
            value = float(np.dot(s[1:], np.cumsum(s[:-1])))
            profile.append((value, bool(s[0] * s[1] <= linops.PSD_TOL)))
            continue
        p.validate(state.register, proper=True)
        rt = linops.partial_transpose(state, p)
        value = float(np.sum(np.clip(-rt.eigenvalues(), 0.0, None)))
        profile.append((value, linops.is_psd(rt, linops.PSD_TOL)))
    return profile


def negativity(state: HermOp | Ket, partition: Partition) -> float:
    """Sum of |negative eigenvalues| of the partially transposed state.

    No factor-2 rescaling: the value equals -Tr(W rho) for the witness built
    by :func:`entsup.witnesses.negativity_optimal_witness`.
    """
    return pt_profile(state, [partition])[0][0]


def ppt_check(state: HermOp | Ket, partitions: Sequence[Partition]) -> list[bool]:
    """Peres test per bipartition: is the partially transposed state PSD?"""
    return [flag for _, flag in pt_profile(state, partitions)]


def mix(rho: HermOp, pi: HermOp, s: float) -> HermOp:
    """Noisy mixture (rho + s*pi) / (1 + s)."""
    if s < 0:
        raise ValueError(f"mixing weight must be nonnegative, got {s}")
    if rho.register != pi.register:
        raise RegisterMismatchError("mixed states live on different registers")
    return HermOp(rho.register, (rho.matrix + s * pi.matrix) / (1.0 + s))


def separability_certificate_diagonal(state: HermOp | Ket) -> bool:
    """True when no off-diagonal entry of the state exceeds ``DIAGONAL_TOL`` in modulus.

    Diagonal states are separable by an explicit convex combination of product
    projectors, so this certificate is sound (but far from complete). The
    largest off-diagonal modulus of |psi><psi| is the product of the two
    largest |psi_i|, so a ket needs no matrix.
    """
    if isinstance(state, Ket):
        top = np.partition(np.abs(state.amplitudes), -2)[-2:]
        return float(top[0] * top[1]) <= DIAGONAL_TOL
    off = state.matrix - np.diag(np.diag(state.matrix))
    return float(np.max(np.abs(off))) <= DIAGONAL_TOL if off.size else True


def rg_lower_via_witness(rho: HermOp, w: Witness) -> RobustnessBounds:
    """Robustness lower bound max(0, -Tr(W rho)) from a W <= I witness."""
    if not w.cap_identity:
        raise WitnessClassError(
            "robustness lower bounds need a witness from the W <= I class"
        )
    value = max(0.0, -eval_witness(w, rho))
    return RobustnessBounds(lower=value)


def rg_upper_via_mixing(rho: HermOp, pi: HermOp) -> RobustnessBounds:
    """Smallest mixing weight s making (rho + s*pi)/(1+s) pass the certificate.

    Tries, in order: s = 0, then the least-squares weight
    s* = -Re<off(pi), off(rho)> / ||off(pi)||^2 that minimises the
    off-diagonal part of rho + s*pi (off zeroes the diagonal). Where the
    coherences of rho are exactly proportional to minus those of pi, s* is
    the point at which they all cancel. A candidate counts only when
    0 <= s <= the register dimension and the mixture passes the certificate;
    otherwise the upper bound is unknown.
    """
    linops.check_density(rho)
    linops.check_density(pi)
    if rho.register != pi.register:
        raise RegisterMismatchError("state and mixing state registers differ")
    r, p = (op.matrix - np.diag(np.diag(op.matrix)) for op in (rho, pi))
    p_sq = np.vdot(p, p).real
    candidates = (0.0,) if p_sq == 0 else (0.0, -np.vdot(p, r).real / p_sq)
    for s in candidates:
        if 0 <= s <= rho.register.size and separability_certificate_diagonal(mix(rho, pi, s)):
            return RobustnessBounds(lower=0.0, upper=float(s), certified_upper=True)
    return RobustnessBounds(lower=0.0, upper=None)


def rg_lower_pure(psi: Ket) -> tuple[float, list[int] | None]:
    """Best single-cut witness lower bound on the robustness of a pure state, and its cut.

    A cut's value max(0, -<psi|W|psi>) for the W <= I witness
    :func:`entsup.witnesses.maxent_cut_witness` comes from the cut's Schmidt
    coefficients, without building W. The cut is given by its sorted indices,
    the lowest cut on a tie, or None when no cut witnesses anything.
    """
    best, best_cut = 0.0, None
    for cut in linops.single_cut_partitions(psi.register):
        lower = max(0.0, -maxent_cut_expectation(psi, cut))
        # A later cut must win by more than rounding, so the lowest cut wins a tie.
        margin = 0.0 if best_cut is None else 1e-12 * max(1.0, best)
        if lower > best + margin:
            best, best_cut = lower, sorted(cut.transposed)
    return best, best_cut


def rg_upper_pure(psi: Ket) -> tuple[float, str]:
    """Certified robustness upper bound of a pure state, and the basis that gave it.

    Write psi = sum_i c_i |i> in a local product basis. By Cauchy-Schwarz the
    diagonal, hence separable, D = ||c||_1 diag(|c_i|) dominates |psi><psi|,
    so R_g(psi) <= ||c||_1^2 / ||c||_2^2 - 1. Two bases are tried: the
    computational one ("l1-computational") and the eigenbasis of every site's
    reduced density ("l1-local"; on two parties that is the Schmidt basis,
    where the bound is exact). The smaller bound wins, the computational
    basis on a tie. One d_i x d_i eigensolve per site; no d x d matrix.
    """
    dims = psi.register.dims
    local = psi.amplitudes.reshape(dims)
    for site, dim in enumerate(dims):
        # Rotating the other sites leaves this site's reduced density unchanged.
        m = np.moveaxis(local, site, 0).reshape(dim, -1)
        _, u = np.linalg.eigh(m @ m.conj().T)
        local = np.moveaxis(np.tensordot(u.conj().T, local, axes=([1], [site])), 0, site)
    best = (np.inf, "")
    for basis, c in (("l1-computational", psi.amplitudes), ("l1-local", local)):
        bound = max(0.0, float(np.sum(np.abs(c)) ** 2 / np.vdot(c, c).real - 1.0))
        if bound < best[0]:
            best = (bound, basis)
    return best


def rg_ppt_sdp(
    state: HermOp | Ket, partitions: Sequence[Partition], tol: float | None = None
) -> float:
    """PPT-relaxed robustness: min Tr(X), X >= 0, (rho + X)^{T_A} >= 0 per cut.

    The PPT set contains the separable set, so the optimum lower-bounds the
    generalized robustness. The solution carries a duality-gap certificate at
    the configured tolerance; non-convergence raises
    :class:`entsup.sdpcore.SolverFailureError` with the best feasible value.
    A ket's density is built only once the dimension limit has accepted it.
    """
    problem = sdpcore.build_robustness_sdp(state, partitions)
    linops.check_density(state)
    if tol is None:
        tol = sdpcore.default_tolerance(problem.variable_dim)
    solution = sdpcore.solve(problem, tol=tol)
    if solution.status != "optimal":
        raise sdpcore.SolverFailureError(
            f"robustness SDP stopped with status {solution.status!r}",
            best_value=solution.primal_value,
            solution=solution,
        )
    return solution.primal_value
