"""The sandwich ledger: the robustness bounds of fixed states, recomputed and pinned.

``sandwich_ledger.json`` holds one row per state: ``lower`` (``rg_lower_pure``),
``upper`` (``rg_upper_pure``), ``ppt_sdp`` (``rg_ppt_sdp`` over the single cuts at
the default tolerance) where d <= 8 and on GHZ_4 in a local frame, the truth where it
is known, and log10(upper / lower), the width of the sandwich in decades. Each state
is rebuilt here and every row recomputed through the library. A row fails if a bound
is unsound, beyond 1e-12 relative of the truth (``ppt_sdp`` beyond its tolerance), or
if any value moved by more than 1e-9 relative from the ledger. So a change that
tightens a bound must write the new row, and its gain shows in the diff;
``PYTHONPATH=src python tests/test_ledger.py`` rewrites the ledger from the library.

The random 4-qubit state's ``ppt_sdp`` is pinned by
``test_sdpcore.test_the_slowest_measured_solve_fits_the_budget``, so it is not solved
again here.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from entsup import sdpcore
from entsup.linops import single_cut_partitions
from entsup.qstate import Ket, qubit_register
from entsup.quantifiers import rg_lower_pure, rg_ppt_sdp, rg_upper_pure

from conftest import random_pure_amplitudes
from oracles import block_product, graph_deck, graph_state

LEDGER = Path(__file__).with_name("sandwich_ledger.json")
SOUND_REL = 1e-12
MOVE_REL = 1e-9


def _random(n):
    """The random n-qubit state with seed 0: normalised complex Gaussian amplitudes."""
    return random_pure_amplitudes(np.random.default_rng(0), 2**n), None


def _ghz_frame(n):
    """GHZ_n after a Haar-random unitary on each qubit and a random qubit order."""
    amps, truth, _ = block_product([n], np.random.default_rng(n))
    return amps, truth


def _dicke(n, k):
    """D(n, k), with R_g = 1/L - 1 for its largest product overlap L.

    L = C(n, k) (k/n)^k ((n - k)/n)^(n - k) (Wei & Goldbart, PRA 68, 042307, 2003;
    Hayashi et al., PRA 77, 012104, 2008).
    """
    index = np.arange(2**n)
    ones = sum((index >> q) & 1 for q in range(n))
    amps = (ones == k) / math.sqrt(math.comb(n, k))
    overlap = math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)
    return amps.astype(complex), 1.0 / overlap - 1.0


def _line(n):
    _, _, edges, truth, _ = next(s for s in graph_deck() if s[0] == f"line-{n}")
    return graph_state(n, edges), truth


STATES = {
    "random-3": lambda: _random(3),
    "random-4": lambda: _random(4),
    "random-5": lambda: _random(5),
    "random-10": lambda: _random(10),
    "random-20": lambda: _random(20),
    "ghz-4-frame": lambda: _ghz_frame(4),
    "ghz-10-frame": lambda: _ghz_frame(10),
    "w-3": lambda: _dicke(3, 1),
    "w-8": lambda: _dicke(8, 1),
    "dicke-10-5": lambda: _dicke(10, 5),
    "w-20": lambda: _dicke(20, 1),
    "line-12": lambda: _line(12),
}
SDP_STATES = {"random-3", "ghz-4-frame", "w-3"}


def _row(name):
    """The ledger row of one state, computed through the library, and the SDP's tolerance."""
    amps, truth = STATES[name]()
    ket = Ket(qubit_register(round(math.log2(amps.size))), amps)
    row = {"state": name, "lower": rg_lower_pure(ket)[0], "upper": rg_upper_pure(ket)[0]}
    if name in SDP_STATES:
        row["ppt_sdp"] = rg_ppt_sdp(ket, single_cut_partitions(ket.register))
    if truth is not None:
        row["truth"] = truth
    row["log10_upper_over_lower"] = math.log10(row["upper"] / row["lower"])
    return row, sdpcore.default_tolerance(ket.register.size)


def _ledger():
    return {row["state"]: row for row in json.loads(LEDGER.read_text(encoding="utf-8"))}


def test_the_ledger_lists_every_state_once():
    rows = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert [row["state"] for row in rows] == list(STATES)


@pytest.mark.parametrize("name", STATES)
def test_a_ledger_row_is_sound_and_unmoved(name):
    (row, tol), pinned = _row(name), _ledger()[name]
    assert row.keys() == pinned.keys()
    moved = {
        key: (pinned[key], value) for key, value in row.items()
        if key != "state" and abs(value - pinned[key]) > MOVE_REL * abs(pinned[key])
    }
    assert not moved, f"{name}: (ledger, now) {moved}"
    assert row["lower"] <= row["upper"] * (1 + SOUND_REL)
    truth = row.get("truth")
    if truth is not None:
        assert row["lower"] <= truth * (1 + SOUND_REL)
        assert row["upper"] >= truth * (1 - SOUND_REL)
    if "ppt_sdp" in row:
        assert row["ppt_sdp"] <= (row["upper"] if truth is None else truth) + tol


if __name__ == "__main__":
    rows = [_row(name)[0] for name in STATES]
    LEDGER.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
