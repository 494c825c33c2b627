"""Entanglement quantifiers: negativity, PPT tests, generalized-robustness bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import linops, sdpcore
from .linops import HermOp, Partition
from .qstate import Ket, RegisterMismatchError
from .witnesses import Witness, WitnessClassError, eval_witness, maxent_cut_value

DIAGONAL_TOL = 1e-10
# Relative margin within which two robustness values that agree in exact arithmetic
# (two cuts' witness values; the two-qubit witness and l1 bounds) count as equal.
# Rounding has kept them within 6 eps (README, `quantify`).
ROUNDING_TOL = 1e-12


@dataclass(frozen=True)
class RobustnessBounds:
    """One- or two-sided bracket on the generalized robustness of a state, and its sources.

    ``upper`` is None while unknown, and certified otherwise. An ``upper`` below ``lower``
    by at most ``ROUNDING_TOL * max(1, lower)`` is rounding and is lifted to ``lower``,
    which keeps it sound; a larger crossing is an internal fault and raises
    ``RuntimeError``. ``ppt_sdp`` is the PPT SDP's value, or None with ``ppt_sdp_error``.
    """

    lower: float = 0.0
    upper: float | None = None
    lower_witness_cut: list[int] | None = None
    upper_candidate: str | None = None
    ppt_sdp: float | None = None
    ppt_sdp_best: float | None = None
    ppt_sdp_error: str | None = None
    exact: bool = False  # ppt_sdp is upper, from a bracket that fixes_ppt: no solve ran

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.upper is not None and self.upper < self.lower:
            if self.lower - self.upper > ROUNDING_TOL * max(1.0, self.lower):
                raise RuntimeError(
                    f"robustness upper bound {self.upper!r} below lower bound {self.lower!r}"
                )
            object.__setattr__(self, "upper", self.lower)

    @property
    def certified_upper(self) -> bool:
        return self.upper is not None

    def fixes_ppt(self, cuts: list[list[int]], tol: float) -> bool:
        """Whether the bracket pins the PPT SDP over ``cuts`` to ``upper`` within ``tol``."""
        closed = self.upper is not None and self.upper - self.lower <= tol
        return closed and (self.lower == 0 or self.lower_witness_cut in cuts)

    def report(self) -> dict:
        """The ``quantify`` robustness block; the SDP's failure items only when set."""
        block = {"lower": self.lower, "lower_witness_cut": self.lower_witness_cut}
        block |= {"upper": self.upper, "upper_certified": self.certified_upper}
        block |= {"upper_candidate": self.upper_candidate, "ppt_sdp": self.ppt_sdp}
        block |= {"exact": self.exact}
        failure = {"ppt_sdp_best": self.ppt_sdp_best, "ppt_sdp_error": self.ppt_sdp_error}
        return block | {key: value for key, value in failure.items() if value is not None}


@dataclass(frozen=True)
class QuantifierConfig:
    """Which quantifier a sweep bounds; it runs over every single cut."""

    kind: Literal["negativity", "generalized_robustness"] = "negativity"

    def __post_init__(self):
        if self.kind not in ("negativity", "generalized_robustness"):
            raise ValueError(
                f"kind must be 'negativity' or 'generalized_robustness', got {self.kind!r}"
            )


def pt_profile(
    state: HermOp | Ket, partitions: Sequence[Partition]
) -> list[tuple[float, bool]]:
    """Negativity and Peres flag per bipartition.

    The flag says whether the partially transposed state is positive
    semidefinite within ``PSD_TOL``. A dense operator pays one eigensolve of
    each rho^{T_A}. A ket reads the Schmidt coefficients s_1 >= s_2 >= ... of
    every cut in one :func:`entsup.linops.schmidt_spectra` call, and the
    spectrum of |psi><psi|^{T_A} is s_i^2 and
    +-s_i s_j for i < j, so the negativity is sum_{i<j} s_i s_j and the
    smallest eigenvalue is -s_1 s_2 (Vidal & Werner, PRA 65, 032314, 2002).
    """
    linops.check_density(state)
    if isinstance(state, Ket):
        s = linops.schmidt_spectra(state.amplitudes, state.register, partitions)
        flags = s[:, 0] * s[:, 1] <= linops.PSD_TOL
        return [(float(v), bool(f)) for v, f in zip(schmidt_negativity(s), flags)]
    profile = []
    for p in partitions:
        w = linops.partial_transpose(state, p).eigenvalues()
        profile.append((float(np.sum(np.clip(-w, 0.0, None))), bool(w[0] >= -linops.PSD_TOL)))
    return profile


def schmidt_negativity(s: np.ndarray) -> np.ndarray:
    """Negativity sum_{i<j} s_i s_j of a pure state, over the trailing Schmidt axis of s."""
    return linops.row_dot(s[..., 1:], np.cumsum(s[..., :-1], axis=-1))


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


def separability_certificate_diagonal(state: HermOp) -> bool:
    """True when no off-diagonal entry of the state exceeds ``DIAGONAL_TOL`` in modulus.

    Diagonal states are separable by an explicit convex combination of product
    projectors, so this certificate is sound (but far from complete).
    """
    off = state.matrix - np.diag(np.diag(state.matrix))
    return float(np.max(np.abs(off))) <= DIAGONAL_TOL


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
            return RobustnessBounds(lower=0.0, upper=float(s))
    return RobustnessBounds(lower=0.0)


def rg_lower_pure(psi: Ket) -> tuple[float, list[int] | None]:
    """Best single-cut witness lower bound on the robustness of a pure state, and its cut.

    A cut's value max(0, -<psi|W|psi>) for the W <= I cut witness is
    :func:`entsup.witnesses.maxent_cut_value` of the cut's Schmidt
    coefficients, so W is never built. The cut is given by its sorted indices,
    the lowest cut on a tie (:func:`best_single_cut`), or None when no cut
    witnesses anything.
    """
    cuts = linops.single_cut_partitions(psi.register)
    best, index = best_single_cut(
        maxent_cut_value(linops.schmidt_spectra(psi.amplitudes, psi.register, cuts))
    )
    return float(best), None if index < 0 else sorted(cuts[index].transposed)


def best_single_cut(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest positive value over the trailing cut axis, and its position (-1 if none).

    A later cut must win by more than rounding, so the lowest cut wins a tie.
    """
    best = np.zeros(values.shape[:-1])
    index = np.full(values.shape[:-1], -1)
    for j in range(values.shape[-1]):
        margin = np.where(index < 0, 0.0, ROUNDING_TOL * np.maximum(1.0, best))
        wins = values[..., j] > best + margin
        best = np.where(wins, values[..., j], best)
        index = np.where(wins, j, index)
    return best, index


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
    # min keeps the first of equal bounds, so a tie goes to the computational basis.
    candidates = ((l1_bound(psi.amplitudes), "l1-computational"), (l1_bound(local), "l1-local"))
    return min(candidates, key=lambda candidate: candidate[0])


def l1_bound(c: np.ndarray) -> float:
    """The certified bound ||c||_1^2 / ||c||_2^2 - 1 of :func:`rg_upper_pure` for amplitudes c."""
    return max(0.0, float(np.sum(np.abs(c)) ** 2 / np.vdot(c, c).real - 1.0))


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
        )
    return solution.primal_value
