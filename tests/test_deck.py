"""The exact deck: the robustness sandwich on states whose R_g is known in closed form.

Each state carries its truth from ``oracles``; these tests check that truth
against the test's own SVD of the deciding cut, then assert the soundness of
every bound the library reports: ``rg_lower_pure`` <= truth <= ``rg_upper_pure``
to 1e-12 relative, and ``rg_ppt_sdp`` <= truth + tol where the SDP runs here
(d <= 16).
"""

import math

import numpy as np
import pytest

from entsup import sdpcore
from entsup.linops import single_cut_partitions
from entsup.qstate import Ket, qubit_register
from entsup.quantifiers import l1_bound, rg_lower_pure, rg_ppt_sdp, rg_upper_pure

from oracles import block_product, graph_deck, graph_state, local_frame, schmidt_decomposition


def _pair(theta):
    return (math.cos(theta), math.sin(theta))


# Pairs by their Schmidt angle (pi/4 is a Bell pair, 0.05 nearly a product), GHZ blocks by size.
BLOCK_DECK = [
    [_pair(0.3)],
    [3],
    [4],
    [_pair(0.7), _pair(math.pi / 4)],
    [_pair(0.05), 3],
    [3, 3],
    [_pair(0.5)] * 3,
    [_pair(0.2), 4, _pair(0.6)],
    [_pair(0.1 * k) for k in range(1, 6)],
    [5, _pair(0.4), 3, _pair(0.7)],
    [16],
    [_pair(0.6435)] * 8,
]

GRAPH_DECK = graph_deck()


def _cut_bound(ket, cut):
    """(sum_i s_i)^2 - 1 across ``cut``, from an SVD of the reshaped amplitudes."""
    return float(np.sum(schmidt_decomposition(ket, cut)[0]) ** 2 - 1.0)


def _check_sandwich(ket, truth):
    lower, upper = rg_lower_pure(ket)[0], rg_upper_pure(ket)[0]
    assert lower <= truth * (1 + 1e-12)
    assert upper >= truth * (1 - 1e-12)
    d = ket.register.size
    if d <= 16:
        tol = sdpcore.default_tolerance(d)
        assert rg_ppt_sdp(ket, single_cut_partitions(ket.register), tol=tol) <= truth + tol


@pytest.mark.parametrize("index", range(len(BLOCK_DECK)))
def test_block_products_keep_the_sandwich(index):
    blocks = BLOCK_DECK[index]
    amps, truth, cut = block_product(blocks, np.random.default_rng(index))
    ket = Ket(qubit_register(round(math.log2(amps.size))), amps)
    assert _cut_bound(ket, cut) == pytest.approx(truth, rel=1e-12)
    _check_sandwich(ket, truth)


@pytest.mark.parametrize(
    ("name", "n", "edges", "truth", "cut"), GRAPH_DECK, ids=[state[0] for state in GRAPH_DECK]
)
def test_graph_states_keep_the_sandwich(name, n, edges, truth, cut):
    amps = graph_state(n, edges)
    ket = Ket(qubit_register(n), amps)
    assert _cut_bound(ket, cut) == pytest.approx(truth, rel=1e-12)
    # The upper side: a Hadamard on each qubit of a maximal independent set,
    # taken greedily from the last qubit down, meets the truth in l1.
    independent = []
    for q in reversed(range(n)):
        if all((q, i) not in edges and (i, q) not in edges for i in independent):
            independent.append(q)
    local = amps.reshape((2,) * n)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    for q in independent:
        local = np.moveaxis(np.tensordot(hadamard, local, axes=([1], [q])), 0, q)
    assert l1_bound(local.reshape(-1)) == pytest.approx(truth, rel=1e-12)
    _check_sandwich(ket, truth)
    framed, _ = local_frame(amps, n, np.random.default_rng(n))
    _check_sandwich(Ket(ket.register, framed), truth)
