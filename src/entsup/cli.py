"""Command-line front end: parse state files, dispatch, emit JSON reports.

Exit codes are a stable contract: 0 success, 2 input error, 3 solver failure,
4 saturation failure, 5 bound violation.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, linops, quantifiers, sdpcore, supbound
from .linops import Partition
from .qstate import Ket, Register, basis_index
from .quantifiers import QuantifierConfig
from .supbound import BoundViolationError, SaturationFailureError
from .witnesses import DEFAULT_SEED

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_SATURATION = 4
EXIT_VIOLATION = 5


class StateFileError(ValueError):
    """A state file failed to parse; the message carries the location."""


def load_state_file(path: str) -> Ket:
    """Read a JSON state file (dense or sparse amplitude encoding)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise StateFileError(f"{path}: {err}") from err
    except UnicodeDecodeError as err:
        raise StateFileError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from err
    except json.JSONDecodeError as err:
        raise StateFileError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}"
        ) from err
    return parse_state_document(doc, where=path)


def parse_state_document(doc: dict, where: str = "<state>") -> Ket:
    if not isinstance(doc, dict) or "dims" not in doc or "amplitudes" not in doc:
        raise StateFileError(f"{where}: expected an object with dims and amplitudes")
    dims = doc["dims"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise StateFileError(f"{where}: dims must be a list of integers, got {dims!r}")
    try:
        register = Register(tuple(dims))
    except ValueError as err:
        raise StateFileError(f"{where}: dims: {err}") from err
    entries = doc["amplitudes"]
    if not isinstance(entries, list) or not entries:
        raise StateFileError(f"{where}: amplitudes must be a nonempty list")
    amp = np.zeros(register.size, dtype=np.complex128)
    if isinstance(entries[0], dict):
        seen: dict[int, int] = {}
        for pos, entry in enumerate(entries):
            try:
                basis = entry["basis"]
                pair = entry["amp"]
            except (KeyError, TypeError) as err:
                raise StateFileError(
                    f"{where}: amplitudes[{pos}]: need basis and amp [re, im]"
                ) from err
            if not isinstance(basis, str):
                raise StateFileError(
                    f"{where}: amplitudes[{pos}]: basis must be a string of digits, got {basis!r}"
                )
            try:
                flat = basis_index(register, [int(digit) for digit in basis])
            except ValueError as err:
                raise StateFileError(
                    f"{where}: amplitudes[{pos}]: basis {basis!r}: {err}"
                ) from err
            if flat in seen:
                raise StateFileError(
                    f"{where}: amplitudes[{pos}]: basis {basis!r} repeats "
                    f"amplitudes[{seen[flat]}]"
                )
            seen[flat] = pos
            amp[flat] = _amplitude(pair, where, pos)
    else:
        if len(entries) != register.size:
            raise StateFileError(
                f"{where}: expected {register.size} dense amplitudes, "
                f"got {len(entries)}"
            )
        # [re, im] lists of finite non-bool numbers convert in one call; the loop names a bad one.
        pairs = None
        if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
            if set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
                with contextlib.suppress(OverflowError):
                    pairs = np.array(entries, dtype=np.float64)
        if pairs is not None and np.isfinite(pairs).all():
            amp = pairs.view(np.complex128).ravel()
        else:
            for pos, entry in enumerate(entries):
                amp[pos] = _amplitude(entry, where, pos)
    if not np.any(amp):
        raise StateFileError(f"{where}: all amplitudes vanish")
    return Ket(register, amp)


def _amplitude(pair, where: str, pos: int) -> complex:
    """An [re, im] list or tuple of two real, non-bool numbers as a finite complex number."""
    try:
        re, im = pair if isinstance(pair, (list, tuple)) else ()
        # An entry of two floats, as JSON writes them, skips the slower full check.
        if not (type(re) is float is type(im)) and not all(
            isinstance(x, (int, float)) and type(x) is not bool for x in (re, im)
        ):
            raise TypeError("not a pair of real numbers")
        value = complex(float(re), float(im))
        if not cmath.isfinite(value):
            raise ValueError("not finite")
    except (TypeError, ValueError, OverflowError) as err:
        raise StateFileError(
            f"{where}: amplitudes[{pos}]: need an [re, im] pair of finite numbers, "
            f"got {pair!r}"
        ) from err
    return value


def parse_partitions(specs: list[str] | None, register: Register) -> list[Partition]:
    """Explicit cuts, each named once, or every single cut; each a proper nonempty subset."""
    first: dict[Partition, int] = {}  # each cut and the position that names it
    for pos, spec in enumerate(specs or []):
        try:
            p = Partition(frozenset(int(tok) for tok in spec.split(",") if tok != ""))
        except ValueError as err:
            raise StateFileError(f"bad partition {spec!r}: {err}") from err
        if first.setdefault(p, pos) != pos:
            raise StateFileError(f"--partition[{pos}] {spec!r} repeats --partition[{first[p]}]")
    parts = list(first) or linops.single_cut_partitions(register)
    for p in parts:
        p.validate(register)
    return parts


def cmd_quantify(args) -> tuple[dict, int]:
    tol = args.tolerance
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise StateFileError(f"--tolerance must be finite and positive, got {tol}")
    ket = load_state_file(args.state)
    norm_sq = ket.norm() ** 2
    renormalized_input = abs(norm_sq - 1.0) > linops.DENSITY_TOL
    if renormalized_input:
        try:
            ket = ket.normalized()
        except ValueError as err:
            raise StateFileError(f"{args.state}: squared norm {norm_sq!r}: {err}") from err
    parts = parse_partitions(args.partition, ket.register)
    cuts = [sorted(p.transposed) for p in parts]
    results: dict = {}
    exit_code = EXIT_OK

    if args.quantifier in ("negativity", "all"):
        profile = quantifiers.pt_profile(ket, parts)
        results["negativity"] = [{"partition": c, "value": v} for c, (v, _) in zip(cuts, profile)]
        results["ppt"] = [{"partition": c, "ppt": flag} for c, (_, flag) in zip(cuts, profile)]

    if args.quantifier in ("robustness", "all"):
        lower, cut = quantifiers.rg_lower_pure(ket)
        upper, basis = quantifiers.rg_upper_pure(ket)
        bounds = quantifiers.RobustnessBounds(lower, upper, cut, basis)
        try:
            # lower's witness and the l1 operator are SDP-feasible: a closed bracket needs no solve.
            exact = bounds.fixes_ppt(cuts, tol or sdpcore.default_tolerance(ket.register.size))
            value = bounds.upper if exact else quantifiers.rg_ppt_sdp(ket, parts, tol=tol)
            bounds = dataclasses.replace(bounds, ppt_sdp=value, exact=exact)
        except sdpcore.SolverFailureError as err:
            bounds = dataclasses.replace(bounds, ppt_sdp_best=err.best_value, ppt_sdp_error=str(err))
            exit_code = EXIT_SOLVER
        except sdpcore.DimensionLimitError as err:
            bounds = dataclasses.replace(bounds, ppt_sdp_error=str(err))
        results["robustness"] = bounds.report()

    config = {
        "state": args.state,
        "quantifier": args.quantifier,
        "partitions": cuts,
        "renormalized_input": renormalized_input,
    }
    return _run_report("quantify", config, results), exit_code


def cmd_ghz_saturation(args) -> tuple[dict, int]:
    if args.n < 2:
        raise StateFileError(f"--n must be at least 2, got {args.n}")
    if not math.isfinite(args.phi):
        raise StateFileError(f"--phi must be finite, got {args.phi}")
    config = {"n": args.n, "phi": args.phi}
    try:
        report = supbound.ghz_saturation_experiment(args.n, args.phi)
    except SaturationFailureError as err:
        results = {"error": str(err), "lower": err.lower, "upper": err.upper}
        return _run_report("ghz-saturation", config, results), EXIT_SATURATION
    except BoundViolationError as err:
        results = {"error": str(err), "instance": err.instance}
        return _run_report("ghz-saturation", config, results), EXIT_VIOLATION
    return _run_report("ghz-saturation", config, {"report": dataclasses.asdict(report)}), EXIT_OK


def cmd_sweep(args) -> tuple[dict, int]:
    if args.samples < 1:
        raise StateFileError(f"--samples must be at least 1, got {args.samples}")
    if args.qubits < 2:
        raise StateFileError(f"--qubits must be at least 2, got {args.qubits}")
    if args.seed < 0:
        raise StateFileError(f"--seed must be nonnegative, got {args.seed}")
    kind = "negativity" if args.quantifier == "negativity" else "generalized_robustness"
    config = QuantifierConfig(kind=kind)
    blocks = supbound.sweep_blocks(config, args.qubits, args.samples, args.seed)
    try:
        gaps = _consume_sweep(blocks, args.csv)
    except BoundViolationError as err:
        results = {"error": str(err), "instance": err.instance}
        cfg = supbound.sweep_config(config, args.qubits)
        return _run_report("sweep", cfg, results, seed=args.seed), EXIT_VIOLATION
    summary = supbound.summarize_sweep(config, args.qubits, args.samples, gaps)
    results = dataclasses.asdict(summary)
    return _run_report("sweep", summary.config, results, seed=args.seed), EXIT_OK


def _consume_sweep(blocks, path: str | None) -> list[np.ndarray]:
    """Run the sweep's blocks and return their gap columns; rows stream to ``path``.

    The rows go to ``path.part``, opened before the first sample and moved onto
    ``path`` once the last block passed, so a failed sweep leaves ``path`` as it
    was. An unwritable target is an input error.
    """
    if path is None:
        return [block.gap for block in blocks]
    part = path + ".part"
    try:
        handle = open(part, "w", encoding="utf-8")
    except OSError as err:
        raise StateFileError(f"--csv {path}: {err.strerror or err}") from err
    try:
        with handle:
            handle.write("index,abs_a,abs_b,lhs,rhs,gap\n")
            gaps = []
            for block in blocks:
                # Floats at full precision, one line at a time, so no copy of the table is held.
                handle.writelines(
                    f"{index},{abs_a!r},{abs_b!r},{lhs!r},{rhs!r},{gap!r}\n"
                    for index, abs_a, abs_b, lhs, rhs, gap in zip(*(c.tolist() for c in block))
                )
                gaps.append(block.gap)
        os.replace(part, path)
    except OSError as err:
        os.remove(part)
        raise StateFileError(f"--csv {path}: {err.strerror or err}") from err
    except BaseException:
        os.remove(part)
        raise
    return gaps


def _run_report(command: str, config: dict, results: dict, **extra) -> dict:
    """The JSON report; ``sweep``, the one command that draws samples, adds its seed."""
    return {
        "command": command,
        "config": config,
        "version": __version__,
        **extra,
        "results": results,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entsup",
        description="Entanglement quantifiers and superposition bounds for qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantify = sub.add_parser("quantify", help="quantify entanglement of a state file")
    quantify.add_argument("state", help="path to a JSON state file")
    quantify.add_argument(
        "--quantifier",
        choices=["negativity", "robustness", "all"],
        default="all",
    )
    quantify.add_argument(
        "--partition",
        action="append",
        metavar="I,J,...",
        help="subsystem indices forming the transposed side; repeatable",
    )
    quantify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="SDP certificate tolerance (default: dimension-based)",
    )

    sat = sub.add_parser("ghz-saturation", help="run the GHZ saturation experiment")
    sat.add_argument("--n", type=int, required=True, help="qubit count (>= 2)")
    sat.add_argument("--phi", type=float, default=0.0, help="relative phase in radians")

    sweep = sub.add_parser("sweep", help="random stress sweep of the bounds")
    sweep.add_argument(
        "--quantifier", choices=["negativity", "robustness"], default="negativity"
    )
    sweep.add_argument("--samples", type=int, default=1000)
    sweep.add_argument("--qubits", type=int, default=2)
    sweep.add_argument("--csv", metavar="PATH", help="write per-sample rows to PATH")
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


# The process's one parser, built on the first main() call rather than at import.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0

    started = time.perf_counter()
    try:
        if args.command == "quantify":
            report, code = cmd_quantify(args)
        elif args.command == "ghz-saturation":
            report, code = cmd_ghz_saturation(args)
        else:
            report, code = cmd_sweep(args)
    except np.linalg.LinAlgError:  # a ValueError, but an internal fault, not an input error
        raise
    except (StateFileError, ValueError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return EXIT_INPUT

    report["duration_s"] = time.perf_counter() - started
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
