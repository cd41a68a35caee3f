"""In-process spans around the public functions of every wtnrank layer.

``install()`` wraps each public function of the layer modules at every name
it is bound to inside the package (``build_google``, for example, is bound in
``gmatrix``, ``analysis`` and ``cli``), plus a few methods on their classes,
and returns the Tracer that collects the spans. A span is
``[name, parent index, start, end, info]``; ``info`` holds what a probe read
from the call's arguments or result. Probe work is itself recorded as a
``trace.probe`` span under the caller's parent, so it counts as tracing
overhead and not as time of any layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

import numpy as np

#: Modules whose public functions are wrapped; the span name is "<module>.<function>".
MODULES = ("ingest", "gmatrix", "ranks", "analysis", "regomax", "cli", "_text")

#: Per-row and per-value helpers: wrapping them would cost more than they do,
#: so their time stays in their caller.
NOT_WRAPPED = frozenset({"sitc_to_product", "fmt"})

#: Methods wrapped on their class, where they exist.
METHODS = {
    ("ingest", "MoneyMatrix"): ("__init__", "to_dense", "transposed"),
    ("ingest", "CountryRegistry"): ("build",),
    ("gmatrix", "GoogleMatrix"): ("apply",),
}


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, time.perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe_span = ["trace.probe", parent, span[3], None, None]
                spans.append(probe_span)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = probe(bound.arguments, result)
                probe_span[3] = time.perf_counter()
            return result

        return traced


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=12)
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def _call_key(arguments, result) -> str:
    """Identity of a call: objects by id, plain values by value."""
    plain = (int, float, str, bool, type(None))
    return repr([v if isinstance(v, plain) else id(v) for v in arguments.values()])


def _probabilities_key(arguments, result) -> str:
    return digest(result[0].values, result[1].values)


def _solver_report(arguments, result) -> list:
    report = result[1]
    return [report.iterations, bool(report.converged)]


def _record_count(arguments, result) -> int:
    return len(result)


def _reduction(arguments, result) -> list:
    subset = arguments["subset"]
    colsum_err = float(np.max(np.abs(np.asarray(result.matrix).sum(axis=0) - 1.0)))
    return [subset.size_total - subset.n_kept, colsum_err]


def _richardson_ratio(arguments, result):
    # the same mask the CLI's run manifest uses for its median ratio
    mask = np.abs(result["d_h2"] - result["d_h4"]) > 1e-12
    return float(np.median(result["ratio"][mask])) if mask.any() else None


def install() -> Tracer:
    """Wrap the layer functions and methods of the imported package."""
    tracer = Tracer()
    modules = {name: sys.modules[f"wtnrank.{name}"] for name in MODULES if f"wtnrank.{name}" in sys.modules}
    apply = modules["gmatrix"].GoogleMatrix.apply
    probe_vectors = {}

    def operator_key(arguments, result) -> str:
        # equal operators give equal products with a fixed vector
        n = result.size
        if n not in probe_vectors:
            probe_vectors[n] = np.random.default_rng(0).random(n)
        return digest(apply(result, probe_vectors[n]))

    probes = {
        "ingest.parse_trade_records": _record_count,
        "gmatrix.build_google": operator_key,
        "ranks.pagerank": _solver_report,
        "analysis.perturb_money": _call_key,
        "analysis.gma_country_probabilities": _probabilities_key,
        "analysis.sensitivity_richardson": _richardson_ratio,
        "regomax.reduced_google_matrix": _reduction,
    }

    replaced = {}
    for module_name, module in modules.items():
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in NOT_WRAPPED
            ):
                name = f"{module_name}.{attr}"
                replaced[id(value)] = (value, tracer.wrap(name, value, probes.get(name)))
    for package_name, package_module in list(sys.modules.items()):
        if package_name == "wtnrank" or package_name.startswith("wtnrank."):
            for attr, value in list(vars(package_module).items()):
                original, wrapper = replaced.get(id(value), (None, None))
                if original is value:
                    setattr(package_module, attr, wrapper)

    for (module_name, class_name), methods in METHODS.items():
        cls = getattr(modules[module_name], class_name, None)
        for method in methods:
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                continue
            name = f"{module_name}.{class_name}.{method}"
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, method, tracer.wrap(name, raw))
    return tracer
