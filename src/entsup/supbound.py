"""Superposition entanglement bounds: per-instance checks, GHZ saturation, sweeps."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import linops, quantifiers, witnesses
from .linops import Partition
from .qstate import (
    Ket,
    Register,
    SuperposCoeffs,
    basis_ket,
    complex_pairs,
    density,
    ghz,
    qubit_register,
    superpose,
)
from .quantifiers import QuantifierConfig, rg_upper_pure
from .witnesses import (
    DEFAULT_SEED,
    REFLECTION_CLASS,
    Witness,
    maxent_cut_expectation,
    reflection_expectation,
    witness_k,
)

SATURATION_TOL = 1e-6
VIOLATION_TOL = 1e-8
GammaMode = Literal["renormalize", "raw"]
DEFAULT_GAMMA_MODE: GammaMode = "renormalize"


class BoundViolationError(RuntimeError):
    """An evaluated bound came out negative beyond tolerance.

    The inequality is a theorem, so this always indicates an implementation
    bug; the offending instance rides along for reproduction.
    """

    def __init__(self, message: str, instance: dict | None = None):
        super().__init__(message)
        self.instance = instance or {}


class SaturationFailureError(RuntimeError):
    """The GHZ saturation experiment failed; both robustness bounds attached."""

    def __init__(self, message: str, lower: float | None = None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one superposition inequality instance."""

    lhs: float
    term_psi: float
    term_phi: float
    cross_term: float
    rhs: float
    gap: float
    saturated: bool
    inequality_kind: Literal["witness-norm", "witness-class"]
    gamma_norm: float


@dataclass(frozen=True)
class SweepRecord:
    index: int
    abs_a: float
    abs_b: float
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class SweepSummary:
    samples: int
    min_gap: float
    mean_gap: float
    violations: int
    seed: int
    config: dict
    records: tuple[SweepRecord, ...] = field(repr=False, default=())


def rhs_from_witness_norm(
    coeffs: SuperposCoeffs, e_psi: float, e_phi: float, witness_norm: float
) -> float:
    """Bound |a|^2 e_psi + |b|^2 e_phi + 2|a||b| * witness_norm."""
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, witness_norm=witness_norm)
    return sum(_rhs_terms(coeffs, e_psi, e_phi, witness_norm))


def rhs_from_witness_class(
    coeffs: SuperposCoeffs, e_psi: float, e_phi: float, k: float
) -> float:
    """Bound |a|^2 e_psi + |b|^2 e_phi + 2 k |a||b| for a spectral class k."""
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, k=k)
    return sum(_rhs_terms(coeffs, e_psi, e_phi, k))


def _rhs_terms(coeffs: SuperposCoeffs, e_psi: float, e_phi: float, k: float):
    """The three terms |a|^2 e_psi, |b|^2 e_phi and 2|a||b| k of every bound."""
    return abs(coeffs.a) ** 2 * e_psi, abs(coeffs.b) ** 2 * e_phi, 2.0 * coeffs.abs_product * k


def check_bound_negativity(
    psi: Ket,
    phi: Ket,
    coeffs: SuperposCoeffs,
    partition: Partition,
    mode: GammaMode = DEFAULT_GAMMA_MODE,
) -> BoundReport:
    """Evaluate the negativity superposition bound for one instance.

    The witness side is fully constructive: the optimal witness of the
    superposed state fixes the cross term through its operator norm, and its
    expectation in the superposed state is that state's negativity. In
    ``renormalize`` mode (default) the left side is the negativity of the unit
    state; ``raw`` keeps the natural squared norm of a + b branches as a
    prefactor, matching the derivation for non-orthogonal branches.
    """
    gamma_raw = superpose(coeffs, psi, phi, mode="raw")
    gamma_norm = gamma_raw.norm() ** 2
    if gamma_norm < 1e-12:
        lhs = 0.0
        w_norm = 0.0
    else:
        gamma_hat = gamma_raw.normalized()
        w_opt = witnesses.negativity_optimal_witness(density(gamma_hat), partition)
        lhs_hat = quantifiers.witnessed_entanglement_pure(gamma_hat, w_opt)
        lhs = lhs_hat if mode == "renormalize" else gamma_norm * lhs_hat
        w_norm = linops.operator_norm(w_opt.op)
    return _make_report(
        lhs,
        _rhs_terms(
            coeffs,
            quantifiers.negativity(psi, partition),
            quantifiers.negativity(phi, partition),
            w_norm,
        ),
        "witness-norm",
        gamma_norm,
        instance=lambda: _instance_payload(
            psi, phi, coeffs, partition=partition, mode=mode
        ),
    )


def check_bound_k(
    psi: Ket,
    phi: Ket,
    coeffs: SuperposCoeffs,
    w: Witness,
    e_psi: float,
    e_phi: float,
    e_gamma: float,
) -> BoundReport:
    """Evaluate the spectral-class bound with caller-supplied quantifier values."""
    return _class_report(psi, phi, coeffs, witness_k(w), e_psi, e_phi, e_gamma)


def _class_report(psi, phi, coeffs, k, e_psi, e_phi, e_gamma) -> BoundReport:
    """The class-k bound for a witness whose class constant k is already known."""
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, e_gamma=e_gamma)
    gamma_norm = superpose(coeffs, psi, phi, mode="raw").norm() ** 2
    return _make_report(
        e_gamma,
        _rhs_terms(coeffs, e_psi, e_phi, k),
        "witness-class",
        gamma_norm,
        instance=lambda: _instance_payload(psi, phi, coeffs, k=k),
    )


def ghz_saturation_experiment(n: int, phi: float = 0.0) -> BoundReport:
    """Run the exactly-saturating GHZ instance end to end, in O(2^n) memory.

    The superposition of |0...0> and |1...1> with balanced coefficients is the
    GHZ state; its robustness is pinned by the witness lower bound against the
    certified l1 upper bound (both 1), the branch terms vanish because the
    branches are product states, and the class constant is 1, so the bound
    holds with equality. The witness is the reflection I - 2|GHZ><GHZ| of
    :func:`entsup.witnesses.ghz_witness`, evaluated on the ket and classed by
    its known spectrum; no 2^n x 2^n matrix is built.
    """
    if n < 2:
        raise ValueError(f"the saturation experiment needs n >= 2, got {n}")
    reg = qubit_register(n)
    branch_zero = basis_ket(reg, (0,) * n)
    branch_one = basis_ket(reg, (1,) * n)
    coeffs = SuperposCoeffs(
        1 / math.sqrt(2), cmath.exp(1j * phi) / math.sqrt(2)
    )

    gamma = ghz(n, phi)
    lower = max(0.0, -reflection_expectation(gamma.amplitudes, gamma))
    upper, _ = rg_upper_pure(gamma)
    if abs(upper - lower) > SATURATION_TOL:
        raise SaturationFailureError(
            f"robustness bounds do not meet: lower {lower!r}, upper {upper!r}",
            lower=lower,
            upper=upper,
        )

    for branch in (branch_zero, branch_one):
        if not quantifiers.separability_certificate_diagonal(branch):
            raise SaturationFailureError("product branch failed its separability check")

    k = max(REFLECTION_CLASS)
    report = _class_report(branch_zero, branch_one, coeffs, k, 0.0, 0.0, lower)
    if not report.saturated:
        raise SaturationFailureError(
            f"saturation gap {report.gap!r} exceeds {SATURATION_TOL}",
            lower=lower,
            upper=upper,
        )
    return report


def random_sweep(
    config: QuantifierConfig,
    qubits: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    mode: GammaMode = DEFAULT_GAMMA_MODE,
) -> SweepSummary:
    """Stress the applicable bound on random instances; any violation raises.

    State pairs are drawn from the rotation-invariant complex normal ensemble,
    coefficients as (cos t, e^{i x} sin t) with t, x uniform. Sample index i
    runs on its own substream of ``seed``, so summaries are reproducible.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    register = qubit_register(qubits)
    partitions = config.resolve_partitions(register)

    def run(index: int) -> list[SweepRecord]:
        rng = np.random.default_rng([seed, index])
        psi = _random_ket(rng, register)
        phi = _random_ket(rng, register)
        theta = rng.uniform(0.0, math.pi / 2)
        chi = rng.uniform(0.0, 2 * math.pi)
        coeffs = SuperposCoeffs(math.cos(theta), cmath.exp(1j * chi) * math.sin(theta))
        try:
            if config.kind == "negativity":
                reports = [
                    check_bound_negativity(psi, phi, coeffs, p, mode=mode)
                    for p in partitions
                ]
            else:
                reports = [_robustness_report(psi, phi, coeffs, mode)]
        except BoundViolationError as err:
            err.instance["sample_index"] = index
            err.instance["seed"] = seed
            raise
        return [
            SweepRecord(index, abs(coeffs.a), abs(coeffs.b), r.lhs, r.rhs, r.gap)
            for r in reports
        ]

    records = tuple(rec for i in range(samples) for rec in run(i))
    gaps = np.array([r.gap for r in records])
    return SweepSummary(
        samples=samples,
        min_gap=float(gaps.min()),
        mean_gap=float(gaps.mean()),
        violations=0,
        seed=seed,
        config={
            "kind": config.kind,
            "qubits": qubits,
            "partitions": sorted(sorted(p.transposed) for p in partitions),
            "mode": mode,
        },
        records=records,
    )


def _robustness_report(psi, phi, coeffs, mode):
    """Class-k bound with per-cut maximally-entangled witnesses.

    For pure states the witnessed value of the best single cut equals the
    bipartite generalized robustness across that cut. The values come from
    Schmidt coefficients; the best cut's witness is a reflection (k = 1), or
    the zero witness (k = 0) when no cut witnesses anything.
    """
    e_psi = _maxcut_robustness(psi)
    e_phi = _maxcut_robustness(phi)
    gamma_raw = superpose(coeffs, psi, phi, mode="raw")
    gamma_norm = gamma_raw.norm() ** 2
    e_gamma = 0.0
    if gamma_norm >= 1e-12:
        e_hat = _maxcut_robustness(gamma_raw.normalized())
        e_gamma = e_hat if mode == "renormalize" else gamma_norm * e_hat
    k = max(REFLECTION_CLASS) if e_gamma > 0 else 0.0
    return _class_report(psi, phi, coeffs, k, e_psi, e_phi, e_gamma)


def _maxcut_robustness(psi: Ket) -> float:
    """max(0, -<psi|W|psi>) over the maxent_cut_witness of every single cut."""
    cuts = linops.single_cut_partitions(psi.register)
    return max(0.0, *(-maxent_cut_expectation(psi, cut) for cut in cuts))


def _random_ket(rng, register: Register) -> Ket:
    v = rng.standard_normal(register.size) + 1j * rng.standard_normal(register.size)
    return Ket(register, v / np.linalg.norm(v))


def _make_report(lhs, terms, kind, gamma_norm, instance):
    """Assemble the report; ``instance()`` builds the payload only on a violation."""
    term_psi, term_phi, cross = terms
    rhs = term_psi + term_phi + cross
    gap = rhs - lhs
    if gap < -VIOLATION_TOL:
        payload = instance()
        payload.update({"lhs": lhs, "rhs": rhs, "gap": gap})
        raise BoundViolationError(
            f"bound violated: lhs {lhs!r} exceeds rhs {rhs!r}", instance=payload
        )
    return BoundReport(
        lhs=lhs,
        term_psi=term_psi,
        term_phi=term_phi,
        cross_term=cross,
        rhs=rhs,
        gap=gap,
        saturated=gap <= SATURATION_TOL,
        inequality_kind=kind,
        gamma_norm=gamma_norm,
    )


def _instance_payload(psi, phi, coeffs, **extra):
    payload = {
        "dims": list(psi.register.dims),
        "psi": complex_pairs(psi.amplitudes),
        "phi": complex_pairs(phi.amplitudes),
        "a": [coeffs.a.real, coeffs.a.imag],
        "b": [coeffs.b.real, coeffs.b.imag],
    }
    for key, value in extra.items():
        if isinstance(value, Partition):
            payload[key] = sorted(value.transposed)
        else:
            payload[key] = value
    return payload


def _check_nonnegative(**values):
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
