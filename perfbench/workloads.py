"""The three workloads: their ops, generated inputs, and independent oracles.

An op is one ``entsup.cli.main(argv)`` call. A workload is a sequence of
cycles. Every cycle issues the same list of op slots, each slot doing the
same amount of work with fresh inputs, so a slot's latencies across cycles
differ only by the load that other processes put on the machine.
Inputs come from the workload seed only: ``--seed`` of each sweep, and the
state files.

Random states for ``quantify`` are drawn once from a constant seed, one base
state per slot, and every cycle shows them in a new random local frame drawn
from the workload seed: an independent Haar unitary on every qubit, then a
random qubit order. Local unitaries leave the Schmidt coefficients, every
quantifier, and the ADMM iteration count of the robustness SDP unchanged,
while the file the program reads is new in every cycle and for every seed.
The iteration count varies more than tenfold between Haar-random 3-qubit
states (the first eight base states need 375 to 9 075), so drawing fresh
states per seed would make a run's time depend mostly on which states it
drew.

Each oracle recomputes the answer from the amplitudes the benchmark wrote,
with its own numpy SVD. The caller has already failed an op that raised or
exited non-zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BASE_SEED = 0
NEGATIVITY_TOL = 1e-9
LOWER_TOL = 1e-9
GAP_TOL = 1e-8
SATURATION_TOL = 1e-6
DEFAULT_SDP_TOL = 1e-6  # entsup's default for dimension <= 16

# Takes the JSON report of an op that exited 0; returns an error or None.
Check = Callable[[dict], "str | None"]


@dataclass
class Op:
    kind: str
    argv: list[str]
    units: int
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    # Cycle time at the commit that defined the benchmark (2 vCPUs, OpenBLAS
    # with one thread); a run issues round(seconds / nominal) cycles.
    nominal_cycle_s: float
    # Cycles of a traced run: fixed, so its counts repeat exactly for a seed.
    trace_cycles: int
    cycle: Callable[[int, int, Path], list[Op]]


def haar_state(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def base_state(n: int, index: int) -> np.ndarray:
    return haar_state(np.random.default_rng([BASE_SEED, n, index]), n)


def local_frame(rng, amp: np.ndarray, n: int) -> np.ndarray:
    """Apply a Haar unitary to each qubit, then permute the qubits."""
    t = amp.reshape((2,) * n)
    for q in range(n):
        t = np.moveaxis(np.tensordot(haar_unitary(rng, 2), t, axes=([1], [q])), 0, q)
    return np.ascontiguousarray(t.transpose(rng.permutation(n))).reshape(-1)


def ghz_state(n: int, phi: float) -> np.ndarray:
    amp = np.zeros(2**n, dtype=np.complex128)
    amp[0] = 1 / math.sqrt(2)
    amp[-1] = np.exp(1j * phi) / math.sqrt(2)
    return amp


def write_state(path: Path, amp: np.ndarray, n: int) -> str:
    doc = {"dims": [2] * n, "amplitudes": [[z.real, z.imag] for z in amp]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- oracles


def schmidt_sums(amp: np.ndarray, n: int) -> list[float]:
    """Sum of Schmidt coefficients across each single-qubit cut."""
    t = amp.reshape((2,) * n)
    return [
        float(np.linalg.svd(np.moveaxis(t, q, 0).reshape(2, -1), compute_uv=False).sum())
        for q in range(n)
    ]


def negativity_error(results: dict, sums: list[float]) -> str | None:
    """Negativity per cut equals ((sum s_i)^2 - 1) / 2; an entangled cut is not PPT."""
    got = {tuple(e["partition"]): e["value"] for e in results["negativity"]}
    if len(got) != len(sums):
        return f"negativity reported for {len(got)} cuts, expected {len(sums)}"
    for q, s in enumerate(sums):
        want = (s * s - 1) / 2
        value = got.get((q,))
        if value is None or abs(value - want) > NEGATIVITY_TOL:
            return f"negativity cut {q}: got {value!r}, oracle {want!r}"
    for entry in results["ppt"]:
        (q,) = entry["partition"]
        if entry["ppt"] and sums[q] ** 2 - 1 > 1e-6:
            return f"cut {q} reported PPT with oracle negativity {(sums[q] ** 2 - 1) / 2!r}"
    return None


def check_quantify(amp: np.ndarray, n: int, tol: float, ghz: bool = False) -> Check:
    sums = schmidt_sums(amp, n)
    lower = max(s * s - 1 for s in sums)

    def check(report: dict) -> str | None:
        results = report["results"]
        error = negativity_error(results, sums)
        if error:
            return error
        rob = results["robustness"]
        if abs(rob["lower"] - lower) > LOWER_TOL:
            return f"robustness.lower {rob['lower']!r}, oracle {lower!r}"
        sdp = rob["ppt_sdp"]
        if sdp is None or sdp < lower - tol:
            return f"ppt_sdp {sdp!r} below oracle lower bound {lower!r} - {tol}"
        if ghz:
            upper = rob["upper"]
            if upper is None or abs(upper - 1.0) > LOWER_TOL or not rob["upper_certified"]:
                return f"GHZ upper {upper!r} (certified {rob['upper_certified']}), expected 1"
            if abs(sdp - 1.0) > tol:
                return f"GHZ ppt_sdp {sdp!r}, expected 1 within {tol}"
        return None

    return check


def check_negativity(amp: np.ndarray, n: int) -> Check:
    sums = schmidt_sums(amp, n)

    def check(report: dict) -> str | None:
        return negativity_error(report["results"], sums)

    return check


def check_ghz_saturation(report: dict) -> str | None:
    rep = report["results"]["report"]
    if not rep["saturated"] or not 0.0 <= rep["gap"] <= SATURATION_TOL:
        return f"not saturated: gap {rep['gap']!r}"
    if abs(rep["lhs"] - 1.0) > SATURATION_TOL:
        return f"GHZ robustness {rep['lhs']!r}, expected 1"
    return None


def check_sweep(samples: int, rows: int, csv_path: Path) -> Check:
    def check(report: dict) -> str | None:
        results = report["results"]
        if results["violations"] != 0 or results["samples"] != samples:
            return f"violations {results['violations']}, samples {results['samples']}"
        if results["min_gap"] < -GAP_TOL:
            return f"min_gap {results['min_gap']!r}"
        lines = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        if len(lines) != rows:
            return f"{len(lines)} CSV rows, expected {rows}"
        gaps = [float(line.rsplit(",", 1)[1]) for line in lines]
        if min(gaps) < -GAP_TOL or min(gaps) != results["min_gap"]:
            return f"CSV min gap {min(gaps)!r}, report {results['min_gap']!r}"
        return None

    return check


# ---------------------------------------------------------------- cycles

SWEEP_SAMPLES = 100


def sweep_cycle(seed: int, index: int, workdir: Path) -> list[Op]:
    """Both quantifiers on 2 and 3 qubits; the sweep draws its own states."""
    rng = np.random.default_rng([seed, index])
    csv_path = workdir / "sweep.csv"
    ops = []
    for quantifier in ("negativity", "robustness"):
        for qubits in (2, 3):
            sweep_seed = int(rng.integers(2**31))
            # One row per sample and cut for negativity; robustness keeps the best cut.
            rows = SWEEP_SAMPLES * (qubits if quantifier == "negativity" else 1)
            argv = [
                "sweep", "--quantifier", quantifier, "--qubits", str(qubits),
                "--samples", str(SWEEP_SAMPLES), "--seed", str(sweep_seed),
                "--csv", str(csv_path),
            ]
            ops.append(Op(f"sweep {quantifier} {qubits}q", argv, SWEEP_SAMPLES,
                          check_sweep(SWEEP_SAMPLES, rows, csv_path)))
    return ops


QUANTIFY_3Q_PER_CYCLE = 6


def quantify_cycle(seed: int, index: int, workdir: Path) -> list[Op]:
    """Random 3-qubit states, and GHZ_3 and GHZ_4 with a random phase."""
    rng = np.random.default_rng([seed, index])
    ops = []
    for slot in range(QUANTIFY_3Q_PER_CYCLE):
        amp = local_frame(rng, base_state(3, slot), 3)
        path = write_state(workdir / f"q3-{index}-{slot}.json", amp, 3)
        ops.append(Op("quantify 3q", ["quantify", path], 1,
                      check_quantify(amp, 3, DEFAULT_SDP_TOL)))
    for n in (3, 4):
        amp = ghz_state(n, float(rng.uniform(0.1, 2 * math.pi - 0.1)))
        path = write_state(workdir / f"ghz{n}-{index}.json", amp, n)
        ops.append(Op(f"quantify ghz{n}", ["quantify", path], 1,
                      check_quantify(amp, n, DEFAULT_SDP_TOL, ghz=True)))
    return ops


def wide_cycle(seed: int, index: int, workdir: Path) -> list[Op]:
    """Negativity of dense 8-, 8- and 9-qubit states; GHZ saturation at 9 and 10.

    The second 8-qubit slot puts the median op inside the fast group of slots
    (8 qubits, ghz-saturation 9) instead of between the two groups.
    """
    rng = np.random.default_rng([seed, index])
    ops = []
    for n in (8, 8, 9):
        amp = haar_state(rng, n)
        path = write_state(workdir / f"w{n}-{index}-{len(ops)}.json", amp, n)
        ops.append(Op(f"quantify negativity {n}q",
                      ["quantify", path, "--quantifier", "negativity"], 1,
                      check_negativity(amp, n)))
    for n in (9, 10):
        ops.append(Op(f"ghz-saturation {n}", ["ghz-saturation", "--n", str(n)], 1,
                      check_ghz_saturation))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "samples", 0.7, 4, sweep_cycle),
        Workload("quantify", "files", 1.5, 4, quantify_cycle),
        Workload("wide", "ops", 5.4, 3, wide_cycle),
    )
}
