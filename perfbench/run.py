"""Benchmark of the entsup CLI: one closed-loop client calling entsup.cli.main.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,quantify,wide} --seed N \
        --seconds S --trace {0,1}

Each op is one in-process ``entsup.cli.main(argv)`` call with stdout
captured; the next op starts only after the previous one returned and its
output passed the workload's oracle. A run issues round(S / nominal) whole
cycles of its workload (see workloads.py), so every version of the program
does the same work and a run lasts about S seconds at the commit that defined
the benchmark.

--trace 0 reports the end-to-end metrics. --trace 1 issues the workload's
fixed number of trace cycles, each op once untraced and once under the
outside-in tracer (tracer.py), and reports the per-layer metrics; the spans
are written to .perfbench_work/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
describe the environment and each metric.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 8
TAIL_BEYOND = 10
# The keys of workloads.WORKLOADS, which cannot be imported before entsup's
# import is timed because it imports numpy.
WORKLOAD_NAMES = ("sweep", "quantify", "wide")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_setup_time() -> float:
    """Import time of entsup and entsup.cli in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "import_probe.py"), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Client:
    """The single closed-loop client: one op at a time, failures recorded."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.errors: list[str] = []

    def issue(self, op) -> float:
        """Run one op, check its output, and return its latency."""
        self.attempted += 1
        latency, error = self._call(op)
        if error:
            self.errors.append(f"{op.kind} {' '.join(op.argv)}: {error}")
        return latency

    def _call(self, op) -> tuple[float, str | None]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(op.argv)
        except Exception as err:  # a raising op is a failed op, not a failed run
            return time.perf_counter() - start, f"raised {type(err).__name__}: {err}"
        latency = time.perf_counter() - start
        if code != 0:
            return latency, f"exit code {code}"
        lines = buf.getvalue().strip().splitlines()
        try:
            return latency, op.check(json.loads(lines[-1]))
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return latency, f"malformed report: {type(err).__name__}: {err}"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1  # short runs: the maximum
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def environment(args, workload, deck) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": len(deck),
        "ops_per_kind": dict(Counter(op.kind for cycle in deck for op in cycle)),
    }


def measure(client, workload, deck, own_import_s):
    """End-to-end metrics, units and notes of an untraced run."""
    # The import probes run between cycles, spread over the run, so that
    # setup_s samples the load on the machine over the whole run.
    probes_after = Counter(i * len(deck) // IMPORT_PROBES for i in range(IMPORT_PROBES))
    per_cycle, setup = [], [own_import_s]
    for index, cycle in enumerate(deck):
        per_cycle.append([client.issue(op) for op in cycle])
        setup.extend(import_setup_time() for _ in range(probes_after[index]))
    # Every cycle issues the same slots, and load from elsewhere on the
    # machine only ever adds time, in stretches of seconds to minutes. So each
    # op counts at its slot's best latency over the run's cycles.
    best = [min(cycle[s] for cycle in per_cycle) for s in range(len(deck[0]))]
    latencies = best * len(deck)
    cycle_units = sum(op.units for op in deck[0])
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": cycle_units / sum(best),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "units_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB"}
    at_best = f"each at its slot's best latency over {len(deck)} cycles"
    notes = {
        "setup_s": f"median of {len(setup)} imports, each in a fresh interpreter, "
                   "spread over the run",
        "units_per_s": f"{cycle_units} {workload.unit} per cycle over {sum(best):.3f} s, "
                       f"the sum of each slot's best latency over {len(deck)} cycles",
        "op_p50_s": f"median of {len(latencies)} ops, {at_best}",
        "op_tail_s": f"p{tail_pct:.1f} of {len(latencies)} ops, {beyond} beyond it, {at_best}",
    }
    return metrics, units, notes


def measure_traced(client, ops, spans_path):
    """Per-layer metrics, units and notes of a traced run."""
    from tracer import Tracer

    # Each op runs untraced and traced back to back, alternating which goes
    # first, so warm-up and drift cancel out of the overhead.
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for index, op in enumerate(ops):
        tracer.op = index
        for traced in (index % 2 == 1, index % 2 == 0):
            if traced:
                with tracer.installed():
                    traced_s += client.issue(op)
            else:
                untraced_s += client.issue(op)
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    units = {name: per_layer_unit(name) for name in metrics}
    notes = {
        "numpy.eig_d3_sum": "computed from argument shapes, not timed",
        "trace.overhead_frac": f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s - 1; "
                               f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}",
    }
    return metrics, units, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entsup" / "__init__.py").is_file():
        print(f"perfbench: no entsup sources under {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy is imported, here and in the import probes.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import entsup
    import entsup.cli as cli
    own_import_s = time.perf_counter() - start
    if Path(entsup.__file__).resolve().parent != SRC / "entsup":
        print(f"perfbench: imported entsup from {entsup.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        cycles = workload.trace_cycles
    else:
        cycles = max(1, round(args.seconds / workload.nominal_cycle_s))
    inputs = WORKDIR / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    client = Client(cli)
    try:
        deck = [workload.cycle(args.seed, c, inputs) for c in range(cycles)]
        ops = [op for cycle in deck for op in cycle]
        client.issue(ops[0])  # warm-up: checked and counted, not timed
        if args.trace:
            spans_path = WORKDIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            metrics, units, notes = measure_traced(client, ops, spans_path)
        else:
            metrics, units, notes = measure(client, workload, deck, own_import_s)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failed = len(client.errors)
    print("environment " + json.dumps(environment(args, workload, deck)))
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"metric {name} = {value!r} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"metric failed_frac = {failed / client.attempted!r}  "
          f"({failed} of {client.attempted} ops)")
    for error in client.errors:
        print(f"failed: {error}")
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", "s_per_iteration")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
