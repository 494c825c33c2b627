"""Superposition entanglement bounds: per-instance checks, GHZ saturation, sweeps."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import linops, quantifiers
from .linops import Partition
from .qstate import (
    Ket,
    Register,
    SuperposCoeffs,
    basis_ket,
    complex_pairs,
    ghz,
    qubit_register,
    superpose,
)
from .quantifiers import QuantifierConfig, rg_lower_pure, rg_upper_pure
from .witnesses import (
    DEFAULT_SEED,
    REFLECTION_CLASS,
    Witness,
    negativity_witness_expectation,
    reflection_expectation,
    witness_k,
)

SATURATION_TOL = 1e-6
VIOLATION_TOL = 1e-8
# Largest sweep in rows (samples x cuts for negativity), all held in memory: at the
# limit a 2-qubit sweep with a CSV peaked at 708 MiB RSS on a 2-vCPU machine.
MAX_SWEEP_ROWS = 10**6


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
) -> BoundReport:
    """Evaluate the negativity superposition bound for one instance.

    With gamma = a psi + b phi and W the optimal witness of gamma/||gamma||,
    the report checks ||gamma||^2 N(gamma/||gamma||) = -<gamma|W|gamma>
    <= |a|^2 N(psi) + |b|^2 N(phi) + 2|a||b| ||W||. The witness side is fully
    constructive: the negativity of the unit state and ||W|| both come from
    its Schmidt coefficients
    (:func:`entsup.witnesses.negativity_witness_expectation`).
    """
    return _negativity_reports(psi, phi, coeffs, [partition])[0]


def _negativity_reports(psi, phi, coeffs, partitions) -> list[BoundReport]:
    """The negativity bound at each cut, with gamma formed once for all of them."""
    profiles = [quantifiers.pt_profile(branch, partitions) for branch in (psi, phi)]
    gamma_norm, gamma_hat = _superposition(psi, phi, coeffs)
    reports = []
    for p, (e_psi, _), (e_phi, _) in zip(partitions, *profiles):
        lhs, w_norm = 0.0, 0.0
        if gamma_hat is not None:
            lhs, w_norm = negativity_witness_expectation(gamma_hat, p)
        reports.append(_make_report(
            gamma_norm * lhs,
            _rhs_terms(coeffs, e_psi, e_phi, w_norm),
            "witness-norm",
            gamma_norm,
            instance=lambda p=p: _instance_payload(psi, phi, coeffs, partition=p),
        ))
    return reports


def _superposition(psi, phi, coeffs):
    """gamma = a psi + b phi once: its squared norm and unit ket.

    The squared norm scales every left side; the unit ket is None when gamma vanishes.
    """
    gamma = superpose(coeffs, psi, phi)
    gamma_norm = gamma.norm() ** 2
    if gamma_norm < 1e-12:
        return gamma_norm, None
    return gamma_norm, gamma.normalized()


def check_bound_k(
    psi: Ket,
    phi: Ket,
    coeffs: SuperposCoeffs,
    w: Witness,
    e_psi: float,
    e_phi: float,
    e_gamma: float,
) -> BoundReport:
    """Evaluate the spectral-class bound with caller-supplied quantifier values.

    ``e_gamma`` is the left side ||gamma||^2 E(gamma/||gamma||) for
    gamma = a psi + b phi, not E(gamma/||gamma||).
    """
    gamma_norm = _superposition(psi, phi, coeffs)[0]
    return _class_report(psi, phi, coeffs, witness_k(w), e_psi, e_phi, e_gamma, gamma_norm)


def _class_report(psi, phi, coeffs, k, e_psi, e_phi, e_gamma, gamma_norm) -> BoundReport:
    """The class-k bound for a witness whose class constant k is already known."""
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, e_gamma=e_gamma)
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
    report = _class_report(
        branch_zero, branch_one, coeffs, k, 0.0, 0.0, lower, gamma.norm() ** 2
    )
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
) -> SweepSummary:
    """Stress the applicable bound on random instances; any violation raises.

    State pairs are drawn from the rotation-invariant complex normal ensemble,
    coefficients as (cos t, e^{i x} sin t) with t, x uniform. Sample index i
    runs on its own substream of ``seed``, so summaries are reproducible.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    register = qubit_register(qubits)
    partitions = linops.single_cut_partitions(register)
    rows = samples * (len(partitions) if config.kind == "negativity" else 1)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"a sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS}")

    def run(index: int) -> list[SweepRecord]:
        rng = np.random.default_rng([seed, index])
        psi = _random_ket(rng, register)
        phi = _random_ket(rng, register)
        theta = rng.uniform(0.0, math.pi / 2)
        chi = rng.uniform(0.0, 2 * math.pi)
        coeffs = SuperposCoeffs(math.cos(theta), cmath.exp(1j * chi) * math.sin(theta))
        try:
            if config.kind == "negativity":
                reports = _negativity_reports(psi, phi, coeffs, partitions)
            else:
                reports = [_robustness_report(psi, phi, coeffs)]
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
        },
        records=records,
    )


def _robustness_report(psi, phi, coeffs):
    """Class-k bound with per-cut maximally-entangled witnesses.

    For pure states the witnessed value of the best single cut equals the
    bipartite generalized robustness across that cut. The values come from
    Schmidt coefficients; the best cut's witness is a reflection (k = 1), or
    the zero witness (k = 0) when no cut witnesses anything.
    """
    e_psi, e_phi = rg_lower_pure(psi)[0], rg_lower_pure(phi)[0]
    gamma_norm, gamma_hat = _superposition(psi, phi, coeffs)
    e_gamma = 0.0 if gamma_hat is None else gamma_norm * rg_lower_pure(gamma_hat)[0]
    k = max(REFLECTION_CLASS) if e_gamma > 0 else 0.0
    return _class_report(psi, phi, coeffs, k, e_psi, e_phi, e_gamma, gamma_norm)


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
