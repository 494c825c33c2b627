"""Negativity, Peres tests, mixing, and robustness bounds."""

import math

import numpy as np
import pytest

from entsup.linops import HermOp, part, single_cut_partitions
from entsup.qstate import Ket, basis_ket, density, ghz, qubit_register
from entsup.quantifiers import (
    DIAGONAL_TOL,
    QuantifierConfig,
    RobustnessBounds,
    mix,
    negativity,
    ppt_check,
    rg_lower_via_witness,
    rg_ppt_sdp,
    rg_upper_via_mixing,
    separability_certificate_diagonal,
    witnessed_entanglement_pure,
)
from entsup.witnesses import (
    WitnessClassError,
    Witness,
    ghz_witness,
    negativity_optimal_witness,
    zero_witness,
)

from conftest import loop_partial_transpose, random_pure_amplitudes
from oracles import diagonal_mixing_scan


def two_qubit_pure(a, b):
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = a, b
    return density(Ket(qubit_register(2), amps))


def test_negativity_examples():
    # Oracle: explicit matrix + loop transpose + direct eigensolve.
    rho = two_qubit_pure(0.8, 0.6)  # 0.8|00> + 0.6|11>
    rt = loop_partial_transpose(rho.matrix, (2, 2), [0])
    oracle = float(np.sum(np.clip(-np.linalg.eigvalsh(rt), 0, None)))
    assert oracle == pytest.approx(0.48, abs=1e-12)
    assert negativity(rho, part(0)) == pytest.approx(oracle, abs=1e-12)

    assert negativity(density(basis_ket(qubit_register(2), (0, 1))), part(0)) == 0.0

    for n in range(2, 7):
        rho = density(ghz(n, 0.3))
        for cut in single_cut_partitions(rho.register):
            assert negativity(rho, cut) == pytest.approx(0.5, abs=1e-12)


def test_negativity_requires_proper_partition():
    rho = density(ghz(2, 0.0))
    with pytest.raises(ValueError):
        negativity(rho, part())
    with pytest.raises(ValueError):
        negativity(rho, part(0, 1))


def test_negativity_matches_witness_value(rng):
    reg = qubit_register(2)
    for _ in range(100):
        rho = density(Ket(reg, random_pure_amplitudes(rng, 4)))
        w = negativity_optimal_witness(rho, part(0))
        lhs = negativity(rho, part(0))
        rhs = -float(np.trace(w.op.matrix @ rho.matrix).real)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_negativity_zero_iff_ppt(rng):
    reg = qubit_register(2)
    tol = 1e-9
    for _ in range(40):
        if rng.uniform() < 0.5:
            rho = density(Ket(reg, random_pure_amplitudes(rng, 4)))
        else:
            # random diagonal-product mixture: separable, hence PPT
            probs = rng.dirichlet(np.ones(4))
            rho = HermOp(reg, np.diag(probs.astype(complex)))
        for cut in single_cut_partitions(reg):
            n_val = negativity(rho, cut)
            ppt = ppt_check(rho, [cut])[0]
            assert (n_val <= tol) == ppt


def test_witnessed_entanglement_pure_examples():
    for n in (2, 4):
        w = ghz_witness(n, 0.6)
        assert witnessed_entanglement_pure(ghz(n, 0.6), w) == pytest.approx(1.0)
        zeros = basis_ket(qubit_register(n), (0,) * n)
        assert witnessed_entanglement_pure(zeros, w) == pytest.approx(0.0, abs=1e-12)
        partner = ghz(n, 0.6, orthogonal=True)
        assert witnessed_entanglement_pure(partner, w) == 0.0  # clamped from -1


def test_ppt_profile_of_ghz_mixture():
    grid = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1)
    for n in range(2, 7):
        rho = density(ghz(n, 0.4))
        pi = density(ghz(n, 0.4, orthogonal=True))
        cuts = single_cut_partitions(rho.register)
        for s in grid:
            sigma = mix(rho, pi, s)
            flags = ppt_check(sigma, cuts)
            assert all(flags) == (s == 1.0)
            # minimum PT eigenvalue = -|1-s| / (2(1+s)), via the loop oracle
            rt = loop_partial_transpose(sigma.matrix, rho.register.dims, [0])
            lowest = float(np.linalg.eigvalsh(rt)[0])
            assert lowest == pytest.approx(-abs(1 - s) / (2 * (1 + s)), abs=1e-9)


def test_ppt_check_product_state():
    rho = density(basis_ket(qubit_register(3), (0, 1, 0)))
    assert ppt_check(rho, single_cut_partitions(rho.register)) == [True] * 3


def test_mix_examples(rng):
    rho = density(ghz(3, 0.8))
    pi = density(ghz(3, 0.8, orthogonal=True))
    assert np.array_equal(mix(rho, pi, 0.0).matrix, rho.matrix)

    sigma = mix(rho, pi, 1.0)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(sigma.matrix, expected, atol=1e-15)

    for _ in range(5):
        s = rng.uniform(0, 10)
        rho2 = density(Ket(qubit_register(2), random_pure_amplitudes(rng, 4)))
        pi2 = density(Ket(qubit_register(2), random_pure_amplitudes(rng, 4)))
        out = mix(rho2, pi2, s)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12

    with pytest.raises(ValueError):
        mix(rho, pi, -0.1)


def test_diagonal_certificate():
    rho = density(ghz(4, 0.2))
    pi = density(ghz(4, 0.2, orthogonal=True))
    assert separability_certificate_diagonal(mix(rho, pi, 1.0))
    assert not separability_certificate_diagonal(rho)
    d = rho.register.size
    maxmix = HermOp(rho.register, np.eye(d, dtype=complex) / d)
    assert separability_certificate_diagonal(maxmix)


def test_rg_upper_via_mixing_ghz_exact():
    for n in (2, 5):
        for phi in (0.0, math.pi / 4, math.pi):
            rho = density(ghz(n, phi))
            pi = density(ghz(n, phi, orthogonal=True))
            bounds = rg_upper_via_mixing(rho, pi)
            assert bounds.upper == pytest.approx(1.0, abs=1e-9)
            assert bounds.certified_upper
            assert bounds.s_star == bounds.upper


def test_rg_upper_trivial_and_unknown():
    reg = qubit_register(2)
    diag = HermOp(reg, np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    pi = density(ghz(2, 0.0))
    assert rg_upper_via_mixing(diag, pi).upper == 0.0

    rho = density(ghz(2, 0.0))
    self_mix = rg_upper_via_mixing(rho, rho)
    assert self_mix.upper is None
    assert not self_mix.certified_upper


def near_diagonal_density(rng, d, coherence):
    """Diagonal state plus random coherences on the scale of ``coherence``."""
    probs = 1.0 + rng.uniform(size=d)
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = np.triu(h, 1) * coherence / 3.0
    matrix = np.diag(probs / probs.sum()) + h + h.conj().T
    return HermOp(qubit_register(int(math.log2(d))), matrix)


def off_diagonal_max(rho, pi, s):
    sigma = (rho.matrix + s * pi.matrix) / (1.0 + s)
    return float(np.max(np.abs(sigma - np.diag(np.diag(sigma)))))


def test_rg_upper_closed_form_matches_fine_scan(rng):
    checked = 0
    for trial in range(18):
        d = 4 if trial % 2 else 8
        rho = near_diagonal_density(rng, d, 6e-10)
        pi = near_diagonal_density(rng, d, 3e-11)
        if trial % 3 == 0:
            pi = HermOp(rho.register, np.eye(d, dtype=complex) / d)
        elif trial % 3 == 2:
            # Coherences opposing rho's: a bounded passing interval near s = 2.
            off = rho.matrix - np.diag(np.diag(rho.matrix))
            pi = HermOp(rho.register, pi.matrix - 0.5 * off)
        bounds = rg_upper_via_mixing(rho, pi)
        scan = diagonal_mixing_scan(rho.matrix, pi.matrix, DIAGONAL_TOL, float(d))
        if bounds.upper is not None:
            assert bounds.certified_upper and bounds.s_star == bounds.upper
            assert off_diagonal_max(rho, pi, bounds.upper) <= DIAGONAL_TOL
        if scan is None:
            continue
        previous, first = scan
        assert bounds.upper is not None, f"trial {trial}"
        assert bounds.upper <= first + 1e-9
        assert previous is None or bounds.upper > previous
        checked += 1
    assert checked >= 15


def test_rg_upper_closed_form_special_cases():
    d = 8
    reg = qubit_register(3)
    coherent = np.full((d, d), 5e-10, dtype=complex)
    np.fill_diagonal(coherent, 1.0 / d)
    rho = HermOp(reg, coherent)
    maxmix = HermOp(reg, np.eye(d, dtype=complex) / d)
    s = rg_upper_via_mixing(rho, maxmix).upper
    assert s == pytest.approx(4.0, abs=1e-9)
    previous, first = diagonal_mixing_scan(rho.matrix, maxmix.matrix, DIAGONAL_TOL, 8.0)
    assert previous < s <= first
    # Weights are capped at the register dimension: 1e-9 coherences pass only
    # from s = 9 > d = 8 on.
    weak = np.full((d, d), 1e-9, dtype=complex)
    np.fill_diagonal(weak, 1.0 / d)
    assert rg_upper_via_mixing(HermOp(reg, weak), maxmix).upper is None
    _, first = diagonal_mixing_scan(weak, maxmix.matrix, DIAGONAL_TOL, 10.0)
    assert first == pytest.approx(9.0, abs=1e-3)

    bell = density(ghz(2, 0.3))
    assert rg_upper_via_mixing(bell, bell).upper is None
    assert diagonal_mixing_scan(bell.matrix, bell.matrix, DIAGONAL_TOL, 4.0) is None

    for n in (2, 3, 5):
        for phi in (0.0, 0.7, math.pi):
            rho = density(ghz(n, phi))
            pi = density(ghz(n, phi, orthogonal=True))
            assert rg_upper_via_mixing(rho, pi).upper == 1.0


@pytest.mark.parametrize(
    "matrix",
    [np.diag([1.0, 0.5, 0.25, 0.25]), np.diag([1.2, -0.2, 0.0, 0.0])],
    ids=["trace-2", "not-psd"],
)
def test_bad_density_is_rejected(matrix):
    bad = HermOp(qubit_register(2), matrix.astype(complex))
    good = density(ghz(2, 0.0))
    calls = [
        lambda: negativity(bad, part(0)),
        lambda: ppt_check(bad, [part(0)]),
        lambda: negativity_optimal_witness(bad, part(0)),
        lambda: rg_upper_via_mixing(bad, good),
        lambda: rg_upper_via_mixing(good, bad),
        lambda: rg_ppt_sdp(bad, [part(0)]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_rg_lower_via_witness_examples():
    for n in (2, 4):
        rho = density(ghz(n, 0.9))
        bounds = rg_lower_via_witness(rho, ghz_witness(n, 0.9))
        assert bounds.lower == pytest.approx(1.0)
        assert bounds.witness_used is not None

        d = 2**n
        maxmix = HermOp(rho.register, np.eye(d, dtype=complex) / d)
        clamped = rg_lower_via_witness(maxmix, ghz_witness(n, 0.9))
        assert clamped.lower == 0.0

        assert rg_lower_via_witness(rho, zero_witness(rho.register)).lower == 0.0


def test_rg_lower_requires_cap_identity():
    rho = density(ghz(2, 0.0))
    uncapped = Witness(negativity_optimal_witness(rho, part(0)).op)
    with pytest.raises(WitnessClassError):
        rg_lower_via_witness(rho, uncapped)


def test_rg_ppt_sdp_trivial_cases():
    reg = qubit_register(2)
    prod = density(basis_ket(reg, (0, 1)))
    assert rg_ppt_sdp(prod, [part(0)]) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        rg_ppt_sdp(prod, [])


def test_rg_ppt_sdp_rejects_oversize():
    rho = density(ghz(9, 0.0))  # dimension 512 > 256
    d = rho.register.size
    assert d == 512
    with pytest.raises(ValueError):
        rg_ppt_sdp(rho, single_cut_partitions(rho.register))


def test_sandwich_consistency_on_ghz():
    for n in (2, 3, 4):
        rho = density(ghz(n, 0.5))
        lower = rg_lower_via_witness(rho, ghz_witness(n, 0.5)).lower
        upper = rg_upper_via_mixing(
            rho, density(ghz(n, 0.5, orthogonal=True))
        ).upper
        sdp = rg_ppt_sdp(rho, single_cut_partitions(rho.register))
        assert lower <= sdp + 1e-6
        assert sdp <= upper + 1e-6


def test_robustness_bounds_validation():
    with pytest.raises(ValueError):
        RobustnessBounds(lower=-0.1)
    with pytest.raises(ValueError):
        RobustnessBounds(lower=1.0, upper=0.5)
    b = RobustnessBounds(lower=0.3, upper=0.4)
    assert b.lower == 0.3 and not b.certified_upper


def test_quantifier_config_partitions():
    reg = qubit_register(3)
    default = QuantifierConfig().resolve_partitions(reg)
    assert [sorted(p.transposed) for p in default] == [[0], [1], [2]]
    explicit = QuantifierConfig(partitions=(part(0, 1),)).resolve_partitions(reg)
    assert len(explicit) == 1
    with pytest.raises(ValueError):
        QuantifierConfig(partitions=()).resolve_partitions(reg)
    with pytest.raises(ValueError):
        QuantifierConfig(partitions=(part(0, 1, 2),)).resolve_partitions(reg)
