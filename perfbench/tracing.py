"""In-memory spans around the calls into each ghzent layer.

A span is [name, start, end, parent, request, raised]; ``parent`` is the
index of the enclosing span (-1 for none).  Spans are kept in a list and
only summarised when the run ends.  Layers are traced without editing the
program: ``installed`` swaps traced wrappers in for the names the program
looks up at call time (module globals of ``ghzent.cli`` and
``ghzent.oracle``, and ``ClassificationReport.to_json_dict``) and puts the
originals back afterwards.  This module imports only the standard library,
so a fresh CLI process can load it before it imports ghzent.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import types
from collections import defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux

# (span name, module, attribute): the program's own internal call sites.
PATCHED = (
    ("state.load", "ghzent.cli", "load_state"),
    ("subsets.enumerate", "ghzent.cli", "enumerate_bipartitions"),
    ("analytic.classify", "ghzent.cli", "classify"),
    ("analytic.noise_threshold", "ghzent.cli", "noise_threshold"),
    ("analytic.full_threshold", "ghzent.cli", "full_entanglement_threshold"),
    ("state.to_dense", "ghzent.oracle", "to_dense"),
    ("oracle.partial_transpose", "ghzent.oracle", "partial_transpose"),
    ("oracle.eigensolve", "ghzent.oracle", "eigenvalues_symmetric"),
)

# Every layer the per-layer metrics cover, in report order.
LAYERS = (
    "cli.interpreter",
    "cli.import",
    "state.load",
    "subsets.enumerate",
    "analytic.classify",
    "analytic.report",
    "analytic.noise_threshold",
    "analytic.full_threshold",
    "analytic.is_ppt",
    "cli.dumps",
    "state.to_dense",
    "oracle.partial_transpose",
    "oracle.eigensolve",
    "oracle.is_ppt_dense",
    "cli.exit",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.max_residual = 0.0
        self.request = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except Exception:
            self.spans[idx][5] = True
            raise
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.request, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span around each call; counters are taken after it returns."""
        observe = _OBSERVERS.get(name)

        # span() inlined: this runs on every traced call, up to ~4000 per request.
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.spans[idx][5] = True
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def adopt(self, name: str, spawn: float, entry: float, end: float, child: dict) -> None:
        """Graft what a traced child process sent under a new span ``name``.

        The child's start-up, from spawn to the first line of its script,
        becomes the ``cli.interpreter`` span, and its shutdown, from the
        end of ``main`` until the process has been reaped, ``cli.exit``.
        """
        parent = len(self.spans)
        outer = self._stack[-1] if self._stack else -1
        self.spans.append([name, spawn, end, outer, self.request, False])
        self.spans.append(["cli.interpreter", spawn, entry, parent, self.request, False])
        self.spans.append(["cli.exit", child["exit"], end, parent, self.request, False])
        base = len(self.spans)
        for cname, start, cend, p, _, raised in child["spans"]:
            self.spans.append([cname, start, cend, parent if p < 0 else base + p, self.request, raised])
        for key, value in child["counts"].items():
            self.counts[key] += value
        self.max_residual = max(self.max_residual, child["max_residual"])

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "max_residual": self.max_residual}


def _observe_load(tracer, args, state) -> None:
    tracer.counts["state.weights_parsed"] += args[0].count('"beta"')


def _observe_classify(tracer, args, report) -> None:
    tracer.counts["analytic.partitions"] += len(report.partitions)
    tracer.counts["analytic.ppt"] += sum(1 for v in report.partitions if v.is_ppt)


def _observe_is_ppt(tracer, args, result) -> None:
    tracer.counts["analytic.partitions"] += 1
    tracer.counts["analytic.ppt"] += bool(result[0])


def _observe_eigensolve(tracer, args, result) -> None:
    tracer.max_residual = max(tracer.max_residual, result.residual)


_OBSERVERS = {
    "state.load": _observe_load,
    "analytic.classify": _observe_classify,
    "analytic.is_ppt": _observe_is_ppt,
    "oracle.eigensolve": _observe_eigensolve,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the program's internal calls for the duration of the block."""
    cli = importlib.import_module("ghzent.cli")
    analytic = importlib.import_module("ghzent.analytic")
    saved = []
    for name, module, attr in PATCHED:
        mod = importlib.import_module(module)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    report_cls = analytic.ClassificationReport
    saved.append((report_cls, "to_json_dict", report_cls.to_json_dict))
    report_cls.to_json_dict = tracer.wrap("analytic.report", report_cls.to_json_dict)
    # cli._print_json calls json.dumps through the module object it imported.
    json_shim = types.ModuleType("json")
    json_shim.__dict__.update(json.__dict__)
    json_shim.dumps = tracer.wrap("cli.dumps", json.dumps)
    saved.append((cli, "json", cli.json))
    cli.json = json_shim
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarise(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer figures of a traced run of ``requests`` requests.

    A span's self time is its duration minus the time its child spans
    cover.  Each layer's figure is its share of all traced request time,
    applied to the traced request median; ``cli.unattributed_ms`` is the
    share no layer span covers.  The layers and it therefore add up to the
    traced request median exactly.  Calls are per request; errors count
    the calls that raised.
    """
    import statistics  # not at module level: a traced CLI process loads this module

    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _, raised) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        errors[name] += raised
    totals = [end - start for name, start, end, _, _, _ in spans if name == "request"]
    request_ms = statistics.median(totals) * 1e3
    scale = request_ms / sum(totals)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_ms"] = self_time[layer] * scale
        out[f"{layer}.calls"] = calls[layer] / requests
        out[f"{layer}.errors"] = errors[layer]
    partitions = tracer.counts["analytic.partitions"]
    out["state.weights_parsed"] = tracer.counts["state.weights_parsed"] / requests
    out["analytic.partitions"] = partitions / requests
    out["analytic.ppt_share"] = tracer.counts["analytic.ppt"] / partitions if partitions else 0.0
    out["oracle.max_residual"] = tracer.max_residual
    out["oracle.mismatches"] = tracer.counts["oracle.mismatches"] / requests
    out["cli.unattributed_ms"] = request_ms - sum(out[f"{layer}_ms"] for layer in LAYERS)
    out["trace.request_ms"] = request_ms
    return out
