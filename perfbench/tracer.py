"""Outside-in tracer for entsup: spans per public function, eigensolve counts.

Nothing under ``src/`` knows about this module. ``Tracer.install`` rebinds
every public function of the traced modules in every ``entsup`` namespace that
holds it: modules import names directly (``supbound`` binds
``rg_upper_via_mixing``) and the package re-exports them, so rebinding only the
defining module would miss those calls. ``numpy.linalg.eigh``, ``eigvalsh``
and ``svd`` are wrapped as well; each call, and its cost in d^3 computed from
the argument's shape, is counted against the innermost open entsup span.

Spans live in memory until ``write_spans`` dumps them. A span's self time is
its duration minus the time its child spans cover; the program is
single-threaded, so children never overlap and coverage is their summed
duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "supbound", "qstate", "witnesses", "quantifiers", "sdpcore", "linops")
LINALG = ("eigh", "eigvalsh", "svd")

# Values read off what a traced function returns, stored on its span.
RESULT_PROBES = {
    ("sdpcore", "solve"): lambda sol: {
        "iterations": int(sol.iterations),
        "status": sol.status,
        "gap": float(sol.gap),
    },
    ("quantifiers", "rg_upper_via_mixing"): lambda bounds: {
        "found": bounds.upper is not None
    },
}


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op", "linalg", "extra")

    def __init__(self, sid, name, layer, parent, op):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.linalg = None  # {"eigh": [calls, d3], ...}
        self.extra = None


def linalg_cost(name: str, a) -> int:
    """d^3 of one eigensolve, or m*n*min(m, n) of one SVD, times the batch size."""
    shape = np.shape(a)
    batch = math.prod(shape[:-2])
    if name == "svd":
        m, n = shape[-2:]
        return batch * m * n * min(m, n)
    return batch * shape[-1] ** 3


class Tracer:
    """Records spans while installed; ``op`` tags new spans with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"entsup.{layer}"]
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = (value, self._wrap_function(layer, name, value))
        for modname, module in list(sys.modules.items()):
            if modname != "entsup" and not modname.startswith("entsup."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        for name in LINALG:
            self._rebind(np.linalg, name, self._wrap_linalg(name, getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebind(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_function(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        probe = RESULT_PROBES.get((layer, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, layer, stack[-1].sid if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.extra = probe(result)
            return result

        return traced

    def _wrap_linalg(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if stack:
                span = stack[-1]
                if span.linalg is None:
                    span.linalg = {}
                entry = span.linalg.setdefault(name, [0, 0])
                entry[0] += 1
                entry[1] += linalg_cost(name, a)
            return fn(a, *args, **kwargs)

        return counted

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times over every span recorded so far."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        linalg = defaultdict(int)
        d3_sum = 0
        mixing_s = 0.0
        mixing_calls = mixing_found = 0
        sdp_s = 0.0
        sdp_calls = sdp_iterations = sdp_certified = 0
        for span, own in zip(self.spans, self.self_times()):
            calls[span.layer] += 1
            self_s[span.layer] += own
            for fn, (count, cost) in (span.linalg or {}).items():
                linalg[span.layer, fn] += count
                d3_sum += cost
            if span.layer == "quantifiers" and span.name == "rg_upper_via_mixing":
                mixing_s += span.end - span.start
                mixing_calls += 1
                mixing_found += bool(span.extra and span.extra["found"])
            elif span.layer == "sdpcore" and span.name == "solve":
                sdp_s += span.end - span.start
                sdp_calls += 1
                if span.extra is not None:
                    sdp_iterations += span.extra["iterations"]
                    sdp_certified += span.extra["status"] == "optimal"
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["witnesses.eigvalsh_calls"] = linalg["witnesses", "eigvalsh"]
        out["quantifiers.eigvalsh_calls"] = linalg["quantifiers", "eigvalsh"]
        out["quantifiers.mixing_s"] = mixing_s
        out["quantifiers.mixing_found_ratio"] = mixing_found / mixing_calls if mixing_calls else 0.0
        out["sdpcore.iterations"] = sdp_iterations
        out["sdpcore.s_per_iteration"] = sdp_s / sdp_iterations if sdp_iterations else 0.0
        out["sdpcore.certified_ratio"] = sdp_certified / sdp_calls if sdp_calls else 0.0
        out["sdpcore.eigh_calls"] = linalg["sdpcore", "eigh"]
        out["sdpcore.eigvalsh_calls"] = linalg["sdpcore", "eigvalsh"]
        for fn in LINALG:
            out[f"linops.{fn}_calls"] = linalg["linops", fn]
        out["numpy.eig_d3_sum"] = d3_sum
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self.self_times()):
                record = {
                    "id": span.sid,
                    "name": span.name,
                    "layer": span.layer,
                    "start": span.start - t0,
                    "end": span.end - t0,
                    "self": own,
                    "parent": span.parent,
                    "op": span.op,
                }
                if span.linalg:
                    record["linalg"] = span.linalg
                if span.extra:
                    record["extra"] = span.extra
                handle.write(json.dumps(record) + "\n")
