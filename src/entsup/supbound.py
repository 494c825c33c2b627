"""Superposition entanglement bounds: per-instance checks, GHZ saturation, sweeps."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Literal, NamedTuple

import numpy as np

from . import linops, quantifiers
from .linops import Partition
from .qstate import (
    VANISHING_NORM_SQ,
    Ket,
    RegisterMismatchError,
    SuperposCoeffs,
    basis_ket,
    complex_pairs,
    ghz,
    qubit_register,
    superpose,
)
from .quantifiers import QuantifierConfig, l1_bound
from .witnesses import (
    DEFAULT_SEED,
    REFLECTION_CLASS,
    Witness,
    maxent_cut_value,
    negativity_witness_values,
    reflection_expectation,
    witness_k,
)

SATURATION_TOL = 1e-6
VIOLATION_TOL = 1e-8
# Largest sweep in rows (samples x cuts for negativity). The CLI holds one block of
# rows and the gap column, so this bounds the run time: at the limit a 2-qubit sweep
# with a CSV took 19 s at 66 MiB peak RSS on a 2-vCPU machine.
MAX_SWEEP_ROWS = 10**6
# A sweep block stacks at most this many amplitudes per branch, and one sample at least.
SWEEP_BLOCK_AMPLITUDES = 2**16
# PCG64's multiplier; numpy's SeedSequence hash constants for 16 pool and 8 seed words.
_PCG64_MULT, _MASK32, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**32 - 1, 2**128 - 1
_MIX_CONSTANTS, _STATE_CONSTANTS = (np.array([c * m**k % 2**32 for k in range(n)], np.uint64)
    for c, m, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9)))


class BoundViolationError(RuntimeError):
    """An evaluated bound came out negative beyond tolerance.

    The inequality is a theorem, so this always indicates an implementation
    bug; the offending instance rides along for reproduction.
    """

    def __init__(self, message: str, instance: dict):
        super().__init__(message)
        self.instance = instance


class SaturationFailureError(RuntimeError):
    """The GHZ saturation experiment failed; both robustness bounds attached."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(message)
        self.lower, self.upper = lower, upper


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
class SweepSummary:
    samples: int
    min_gap: float
    mean_gap: float
    violations: int
    config: dict


def rhs_from_witness(coeffs: SuperposCoeffs, e_psi: float, e_phi: float, c: float) -> float:
    """Bound |a|^2 e_psi + |b|^2 e_phi + 2|a||b| c, with c = ||W|| or a spectral class k."""
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, c=c)
    return sum(_rhs_terms(abs(coeffs.a), abs(coeffs.b), e_psi, e_phi, c))


def _rhs_terms(abs_a, abs_b, e_psi, e_phi, k):
    """The three terms |a|^2 e_psi, |b|^2 e_phi and 2|a||b| k of every bound.

    Each argument is a number or an array; the sweep passes one entry per row.
    """
    return abs_a**2 * e_psi, abs_b**2 * e_phi, 2.0 * (abs_a * abs_b) * k


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
    its Schmidt coefficients (:func:`entsup.witnesses.negativity_witness_values`).
    The instance is the one-row case of the sweep's evaluation, :func:`_bound_rows`.
    """
    for branch in (psi, phi):
        linops.check_density(branch)
    return _instance_report("negativity", psi, phi, coeffs, [partition])


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
    gamma_norm = superpose(coeffs, psi, phi).norm() ** 2
    k = witness_k(w)
    _check_nonnegative(e_psi=e_psi, e_phi=e_phi, e_gamma=e_gamma)
    return _make_report(
        e_gamma,
        _rhs_terms(abs(coeffs.a), abs(coeffs.b), e_psi, e_phi, k),
        "witness-class",
        gamma_norm,
        lambda _: _instance_payload(psi.register, psi.amplitudes, phi.amplitudes, coeffs, k=k),
    )


def ghz_saturation_experiment(n: int, phi: float = 0.0) -> BoundReport:
    """Run the exactly-saturating GHZ instance end to end, in O(2^n) memory.

    The superposition of |0...0> and |1...1> with balanced coefficients is the
    GHZ state; its robustness is pinned by the witness lower bound against the
    l1 upper bound (both 1), the branch terms vanish because the branches are
    basis kets (built only for a violation's payload), and the class constant
    is 1, so the bound holds with equality. The upper bound is certified in the
    computational basis, where it reads (|a| + |b|)^2 - 1 = 2|a||b|
    (:func:`entsup.quantifiers.l1_bound`); every site's reduced density is
    diagonal there, so no basis search is run. The witness is the reflection
    I - 2|GHZ><GHZ| of :func:`entsup.witnesses.ghz_witness`, evaluated on the
    ket and classed by its known spectrum; no 2^n x 2^n matrix is built.
    """
    coeffs = SuperposCoeffs(1 / math.sqrt(2), cmath.exp(1j * phi) / math.sqrt(2))
    gamma = ghz(n, phi)
    lower = max(0.0, -reflection_expectation(gamma.amplitudes, gamma))
    upper = l1_bound(gamma.amplitudes)
    if abs(upper - lower) > SATURATION_TOL:
        raise SaturationFailureError(
            f"robustness bounds do not meet: lower {lower!r}, upper {upper!r}", lower, upper
        )

    register, k = gamma.register, max(REFLECTION_CLASS)
    report = _make_report(
        lower,
        _rhs_terms(abs(coeffs.a), abs(coeffs.b), 0.0, 0.0, k),
        "witness-class",
        gamma.norm() ** 2,
        lambda _: _instance_payload(
            register, *(basis_ket(register, (bit,) * n).amplitudes for bit in (0, 1)), coeffs, k=k
        ),
    )
    if not report.saturated:
        raise SaturationFailureError(
            f"saturation gap {report.gap!r} exceeds {SATURATION_TOL}", lower, upper
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
    The rows come from :func:`sweep_blocks`; like the CLI, this keeps only
    their gap columns.
    """
    gaps = [block.gap for block in sweep_blocks(config, qubits, samples, seed)]
    return summarize_sweep(config, qubits, samples, gaps)


def summarize_sweep(
    config: QuantifierConfig, qubits: int, samples: int, gaps: list[np.ndarray]
) -> SweepSummary:
    """The summary of a finished sweep, from the gap columns of its blocks."""
    gap = np.concatenate(gaps)
    return SweepSummary(
        samples=samples,
        min_gap=float(gap.min()),
        mean_gap=float(gap.mean()),
        violations=0,
        config=sweep_config(config, qubits),
    )


def sweep_config(config: QuantifierConfig, qubits: int) -> dict:
    """The ``config`` of a sweep's report, whether the sweep passed or found a violation."""
    partitions = linops.single_cut_partitions(qubit_register(qubits))
    return {
        "kind": config.kind,
        "qubits": qubits,
        "partitions": sorted(sorted(p.transposed) for p in partitions),
    }


class SweepColumns(NamedTuple):
    """One block of sweep rows as columns, in (sample index, cut) order."""

    index: np.ndarray
    abs_a: np.ndarray
    abs_b: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray


def sweep_blocks(
    config: QuantifierConfig, qubits: int, samples: int, seed: int
) -> Iterator[SweepColumns]:
    """The rows of :func:`random_sweep`, a block of samples at a time.

    The arguments are checked before this returns, and a violation raises when
    its block is reached. A block holds at most ``SWEEP_BLOCK_AMPLITUDES`` //
    d samples, and at least one, so memory does not grow with ``samples``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if qubits < 2:
        raise ValueError(f"a sweep needs at least 2 qubits, got {qubits}")
    register = qubit_register(qubits)
    partitions = linops.single_cut_partitions(register)
    rows = samples * (len(partitions) if config.kind == "negativity" else 1)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"a sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS}")
    per_block = max(1, SWEEP_BLOCK_AMPLITUDES // register.size)
    blocks = (range(i, min(i + per_block, samples)) for i in range(0, samples, per_block))
    return (_sweep_block(config.kind, register, partitions, block, seed) for block in blocks)


def _sweep_block(kind, register, partitions, indices, seed) -> SweepColumns:
    """The sweep's rows for the samples ``indices``, evaluated at once by :func:`_bound_rows`.

    The first violating row, in (index, cut) order, raises.
    """
    kets, a, b = _draw_block(register.size, indices, seed)
    abs_a, abs_b, _, lhs, terms, c = _bound_rows(kind, register, partitions, kets, a, b)
    rhs, gap = _check_rows(
        lhs,
        terms,
        lambda pos: _row_payload(kind, register, partitions, kets, a, b, c, *pos),
        lambda pos: {"sample_index": indices[pos[0]], "seed": seed},
    )
    cuts = gap.shape[1]
    return SweepColumns(
        np.repeat(np.asarray(indices), cuts),
        np.repeat(abs_a, cuts),
        np.repeat(abs_b, cuts),
        lhs.ravel(),
        rhs.ravel(),
        gap.ravel(),
    )


def _bound_rows(kind, register, partitions, kets, a, b):
    """|a|, |b|, ||gamma||^2, the left sides, :func:`_rhs_terms` and c of a (3, N, d) stack.

    ``kets`` holds psi and phi; its third slice receives the unit gamma, or the
    zero ket, whose every closed form is 0, where gamma vanishes (squared norm
    below ``VANISHING_NORM_SQ``). The three branches' spectra come from one
    :func:`entsup.linops.schmidt_spectra` call, whose zero padding of shorter
    spectra adds nothing to any closed form.
    c is ||W|| per cut for the negativity; for the robustness, the class k of
    the best single-cut witness (1 where it witnesses anything, else 0).
    """
    np.multiply(a[:, None], kets[0], out=kets[2])
    kets[2] += b[:, None] * kets[1]
    norm = _norms(kets[2])
    gamma_norm = norm**2
    vanishes = gamma_norm < VANISHING_NORM_SQ
    kets[2] /= np.where(vanishes, 1.0, norm)[:, None]
    kets[2, vanishes] = 0.0
    s = linops.schmidt_spectra(kets, register, partitions)
    if kind == "negativity":
        e_psi, e_phi = quantifiers.schmidt_negativity(s[:2])
        value, c = negativity_witness_values(s[2])
        lhs = gamma_norm[:, None] * value
    else:
        e_psi, e_phi, e_gamma = quantifiers.best_single_cut(maxent_cut_value(s))[0][..., None]
        lhs = gamma_norm[:, None] * e_gamma
        c = np.where(lhs > 0, max(REFLECTION_CLASS), 0.0)
    # np.abs of a complex array may round differently from abs(complex); hypot does not.
    abs_a, abs_b = (np.hypot(z.real, z.imag)[:, None] for z in (a, b))
    return abs_a, abs_b, gamma_norm, lhs, _rhs_terms(abs_a, abs_b, e_psi, e_phi, c), c


def _instance_report(kind, psi, phi, coeffs, partitions):
    """The report of one instance, as the one-row stack of :func:`_bound_rows`."""
    if psi.register != phi.register:
        raise RegisterMismatchError("superposed kets live on different registers")
    kets = np.zeros((3, 1, psi.register.size), dtype=np.complex128)
    kets[0, 0], kets[1, 0] = psi.amplitudes, phi.amplitudes
    a, b = np.array([coeffs.a]), np.array([coeffs.b])
    _, _, gamma_norm, lhs, terms, c = _bound_rows(kind, psi.register, partitions, kets, a, b)
    return _make_report(
        float(lhs[0, 0]),
        [float(term[0, 0]) for term in terms],
        "witness-norm" if kind == "negativity" else "witness-class",
        float(gamma_norm[0]),
        payload=lambda _: _row_payload(kind, psi.register, partitions, kets, a, b, c, 0, 0),
    )


def _row_payload(kind, register, partitions, kets, a, b, c, row, col):
    """The instance payload of ``row`` and cut ``col`` of a :func:`_bound_rows` stack."""
    cut = sorted(partitions[col].transposed)
    extra = {"partition": cut} if kind == "negativity" else {"k": float(c[row, 0])}
    coeffs = SuperposCoeffs(a[row], b[row])
    return _instance_payload(register, kets[0, row], kets[1, row], coeffs, **extra)


def _draw_block(size, indices, seed):
    """Stacked unit psi and phi, room for gamma, and the coefficient pairs of ``indices``.

    Each sample draws on its ``default_rng([seed, index])`` substream, set from
    :func:`_pcg64_states` (the first checked against ``default_rng``): psi (re, im),
    phi (re, im), then t and x by ``random(2)``, the bits of two ``uniform`` calls.
    (cos t, e^{i x} sin t) is formed with scalar math, the same in any block.
    """
    normals, draws = np.empty((len(indices), 4, size)), np.empty((len(indices), 2))
    rng = np.random.default_rng([seed, indices[0]])
    for row, state in enumerate(_pcg64_states(seed, indices)):
        if row == 0 and rng.bit_generator.state != state:
            raise RuntimeError(f"bulk seeding of [{seed}, {indices[0]}] differs from default_rng")
        rng.bit_generator.state = state
        rng.standard_normal(out=normals[row])
        rng.random(out=draws[row])
    angles = (draws * (math.pi / 2, 2 * math.pi)).tolist()
    a = np.array([math.cos(t) for t, _ in angles], dtype=np.complex128)
    b = np.array([cmath.exp(1j * x) * math.sin(t) for t, x in angles])
    kets = np.empty((3, len(indices), size), dtype=np.complex128)
    kets[0].real, kets[0].imag, kets[1].real, kets[1].imag = normals.transpose(1, 0, 2)
    kets[:2] /= _norms(kets[:2])[..., None]
    return kets, a, b


def _pcg64_states(seed, indices):
    """``default_rng([seed, i]).bit_generator.state`` for each i in turn, in bulk below 2**32.

    ``SeedSequence``'s hash constants depend only on a word's position, so the block
    hashes at once, as uint32 values in uint64 arrays; PCG64 then seeds in closed form.
    """

    def hashmix(words, constants):  # the hash of row k of words, by constants[k : k + 2]
        words = (words ^ constants[:-1, None]) * constants[1:, None] & _MASK32
        return words ^ words >> 16

    if max(seed, indices[-1]) >= 2**32:  # the entropy takes more words
        yield from (np.random.default_rng([seed, i]).bit_generator.state for i in indices)
        return
    pool = np.zeros((4, len(indices)), dtype=np.uint64)
    pool[0], pool[1] = seed, indices
    pool = hashmix(pool, _MIX_CONSTANTS[:5])
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        hashed = hashmix(pool[src], _MIX_CONSTANTS[4 + 3 * src : 8 + 3 * src])
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashed) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    words = hashmix(np.vstack([pool, pool]), _STATE_CONSTANTS)
    for hi, lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128  # 2 initseq + 1
        state = ((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _norms(kets: np.ndarray) -> np.ndarray:
    """Euclidean norm of each ket in a (..., d) stack, summed as ``np.linalg.norm`` sums a ket."""
    return np.sqrt(linops.row_dot(kets.real, kets.real) + linops.row_dot(kets.imag, kets.imag))


def _make_report(lhs, terms, kind, gamma_norm, payload):
    """Assemble the report; ``payload`` is as for :func:`_check_rows`."""
    rhs, gap = _check_rows(lhs, terms, payload)
    term_psi, term_phi, cross = terms
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


def _check_rows(lhs, terms, payload, after=lambda pos: {}):
    """rhs = sum(terms) and gap = rhs - lhs, for one row (numbers) or many (arrays).

    The first row, in row-major order, with gap < -VIOLATION_TOL raises. Its
    instance holds ``payload(pos)``, then lhs, rhs and gap, then ``after(pos)``,
    with ``pos`` the row's index tuple; neither is called on a passing check.
    """
    rhs = sum(terms)
    gap = rhs - lhs
    violated = np.asarray(gap) < -VIOLATION_TOL
    if violated.any():
        pos = np.unravel_index(np.argmax(violated), violated.shape)
        lhs_v, rhs_v, gap_v = (np.asarray(x)[pos].item() for x in (lhs, rhs, gap))
        raise BoundViolationError(
            f"bound violated: lhs {lhs_v!r} exceeds rhs {rhs_v!r}",
            instance={**payload(pos), "lhs": lhs_v, "rhs": rhs_v, "gap": gap_v, **after(pos)},
        )
    return rhs, gap


def _instance_payload(register, psi, phi, coeffs, **extra):
    """A violation's instance: the register, both branches' amplitudes, a, b, then ``extra``."""
    return {
        "dims": list(register.dims),
        "psi": complex_pairs(psi),
        "phi": complex_pairs(phi),
        "a": [coeffs.a.real, coeffs.a.imag],
        "b": [coeffs.b.real, coeffs.b.imag],
        **extra,
    }


def _check_nonnegative(**values):
    """Raise ValueError for a negative value, or a negative entry of an array."""
    for name, value in values.items():
        if np.any(value < 0):
            raise ValueError(f"{name} must be nonnegative, got {np.min(value)}")
