"""Per-layer metrics derived from the spans of one traced invocation.

Layers are the package's modules; ``_text`` (the shared writers) belongs to
``cli``. A span's *self* time is its duration minus that of its direct
children; an *inclusive* time is the duration of the outermost spans of a
set of names, minus the tracer's own probe spans inside them.
"""

from __future__ import annotations

import statistics

LAYERS = ("ingest", "gmatrix", "ranks", "analysis", "regomax", "cli")

#: name -> (unit, better). Input properties are fixed by the workload.
METRICS = {
    "ingest.parse_s": ("s", "lower"),
    "ingest.rows_in": ("count", "lower"),
    "ingest.records": ("count", "lower"),
    "ingest.kept_frac": ("frac", "lower"),
    "ingest.aggregate_s": ("s", "lower"),
    "ingest.assemble_s": ("s", "lower"),
    "ingest.entries": ("count", "lower"),
    "ingest.money_builds": ("count", "lower"),
    "ingest.money_build_s": ("s", "lower"),
    "ingest.to_dense_calls": ("count", "lower"),
    "ingest.to_dense_s": ("s", "lower"),
    "ingest.self_s": ("s", "lower"),
    "gmatrix.nodes": ("count", "lower"),
    "gmatrix.nnz": ("count", "lower"),
    "gmatrix.dangling": ("count", "lower"),
    "gmatrix.build_calls": ("count", "lower"),
    "gmatrix.build_unique_frac": ("frac", "higher"),
    "gmatrix.build_s": ("s", "lower"),
    "gmatrix.apply_calls": ("count", "lower"),
    "gmatrix.apply_s": ("s", "lower"),
    "gmatrix.apply_flops": ("flop", "lower"),
    "gmatrix.apply_bytes": ("B", "lower"),
    "gmatrix.self_s": ("s", "lower"),
    "ranks.solves": ("count", "lower"),
    "ranks.iterations": ("count", "lower"),
    "ranks.iterations_max": ("count", "lower"),
    "ranks.unconverged": ("count", "lower"),
    "ranks.solve_s": ("s", "lower"),
    "ranks.volume_s": ("s", "lower"),
    "ranks.table_s": ("s", "lower"),
    "ranks.self_s": ("s", "lower"),
    "analysis.perturb_calls": ("count", "lower"),
    "analysis.perturb_unique_frac": ("frac", "higher"),
    "analysis.perturb_s": ("s", "lower"),
    "analysis.prob_calls": ("count", "lower"),
    "analysis.prob_unique_frac": ("frac", "higher"),
    "analysis.sensitivity_s": ("s", "lower"),
    "analysis.richardson_s": ("s", "lower"),
    "analysis.richardson_ratio": ("ratio", "lower"),
    "analysis.self_s": ("s", "lower"),
    "regomax.reduce_calls": ("count", "lower"),
    "regomax.reduce_s": ("s", "lower"),
    "regomax.complement": ("count", "lower"),
    "regomax.colsum_err": ("abs", "lower"),
    "regomax.restriction_err": ("l1", "lower"),
    "regomax.friends_s": ("s", "lower"),
    "regomax.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.files": ("count", "lower"),
    "cli.bytes": ("B", "lower"),
    "cli.other_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "cli" if module == "_text" else module


def _is_writer(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("write_")


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [end - start for _, _, start, end, _ in spans]
        self.self_time = list(self.duration)
        self.probe_time = [0.0] * len(spans)
        for k, (name, parent, *_) in enumerate(spans):
            if parent >= 0:
                self.self_time[parent] -= self.duration[k]
            if name == "trace.probe":
                while parent >= 0:
                    self.probe_time[parent] += self.duration[k]
                    parent = spans[parent][1]

    def _outermost(self, chosen) -> list[int]:
        picked = []
        for k, span in enumerate(self.spans):
            if not chosen(span[0]):
                continue
            parent = span[1]
            while parent >= 0 and not chosen(self.spans[parent][0]):
                parent = self.spans[parent][1]
            if parent < 0:
                picked.append(k)
        return picked

    def time_of(self, chosen) -> float:
        """Duration of the outermost spans whose name ``chosen`` accepts, less the probes inside."""
        return sum(self.duration[k] - self.probe_time[k] for k in self._outermost(chosen))

    def inclusive(self, *names: str) -> float:
        return self.time_of(set(names).__contains__)

    def calls(self, name: str) -> list[int]:
        return [k for k, span in enumerate(self.spans) if span[0] == name]

    def infos(self, name: str) -> list:
        return [self.spans[k][4] for k in self.calls(name)]

    def self_of(self, chosen) -> float:
        return sum(t for t, span in zip(self.self_time, self.spans) if chosen(span[0]))


def _unique_frac(keys: list) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(spans: list[list], wall: float, props: dict, files: int, size: int,
                  restriction_err: float) -> dict[str, float]:
    """Every METRICS entry but trace.overhead_s for one traced invocation."""
    idx = SpanIndex(spans)
    nnz, nodes = props["nnz"], props["nodes"]
    records = idx.infos("ingest.parse_trade_records")
    builds = idx.infos("gmatrix.build_google")
    solves = idx.infos("ranks.pagerank")
    perturbs = idx.infos("analysis.perturb_money")
    probs = idx.infos("analysis.gma_country_probabilities")
    ratios = [r for r in idx.infos("analysis.sensitivity_richardson") if r is not None]
    reductions = idx.infos("regomax.reduced_google_matrix")
    metrics = {
        "ingest.parse_s": idx.inclusive("ingest.parse_trade_records"),
        "ingest.rows_in": props["rows"],
        "ingest.records": sum(records),
        "ingest.kept_frac": sum(records) / props["rows"],
        "ingest.aggregate_s": idx.inclusive("ingest.CountryRegistry.build", "ingest.apply_aggregation"),
        "ingest.assemble_s": idx.inclusive("ingest.assemble_money_matrix"),
        "ingest.entries": nnz,
        "ingest.money_builds": len(idx.calls("ingest.MoneyMatrix.__init__")),
        "ingest.money_build_s": idx.inclusive("ingest.MoneyMatrix.__init__"),
        "ingest.to_dense_calls": len(idx.calls("ingest.MoneyMatrix.to_dense")),
        "ingest.to_dense_s": idx.inclusive("ingest.MoneyMatrix.to_dense"),
        "gmatrix.nodes": nodes,
        "gmatrix.nnz": nnz,
        "gmatrix.dangling": props["dangling_direct"] + props["dangling_inverted"],
        "gmatrix.build_calls": len(builds),
        "gmatrix.build_unique_frac": _unique_frac(builds),
        "gmatrix.build_s": idx.inclusive("gmatrix.build_google"),
        "gmatrix.apply_calls": len(idx.calls("gmatrix.GoogleMatrix.apply")),
        "gmatrix.apply_s": idx.inclusive("gmatrix.GoogleMatrix.apply"),
        # computed, not counted: CSC product (2 nnz), dangling sum and teleport (5 N);
        # 8-byte values + 4-byte row indices per link, indptr, x, v and the result per node
        "gmatrix.apply_flops": 2 * nnz + 5 * nodes,
        "gmatrix.apply_bytes": 12 * nnz + 28 * nodes,
        "ranks.solves": len(solves),
        "ranks.iterations": sum(it for it, _ in solves),
        "ranks.iterations_max": max((it for it, _ in solves), default=0),
        "ranks.unconverged": sum(1 for _, ok in solves if not ok),
        "ranks.solve_s": idx.self_of("ranks.pagerank".__eq__),
        "ranks.volume_s": idx.inclusive("ranks.volume_probabilities"),
        "ranks.table_s": idx.inclusive("ranks.build_rank_table"),
        "analysis.perturb_calls": len(perturbs),
        "analysis.perturb_unique_frac": _unique_frac(perturbs),
        "analysis.perturb_s": idx.inclusive("analysis.perturb_money"),
        "analysis.prob_calls": len(probs),
        "analysis.prob_unique_frac": _unique_frac(probs),
        "analysis.sensitivity_s": idx.inclusive("analysis.balance_sensitivity", "analysis.sensitivity_richardson"),
        "analysis.richardson_s": idx.inclusive("analysis.sensitivity_richardson"),
        "analysis.richardson_ratio": statistics.median(ratios) if ratios else 0.0,
        "regomax.reduce_calls": len(reductions),
        "regomax.reduce_s": idx.inclusive("regomax.reduced_google_matrix"),
        "regomax.complement": max((c for c, _ in reductions), default=0),
        "regomax.colsum_err": max((e for _, e in reductions), default=0.0),
        "regomax.restriction_err": restriction_err,
        "regomax.friends_s": idx.inclusive("regomax.friends_network"),
        "cli.write_s": idx.time_of(_is_writer),
        "cli.files": files,
        "cli.bytes": size,
        # start-up, imports, argument handling and CLI glue: what no layer span covers
        "cli.other_s": wall - idx.time_of(lambda n: layer_of(n) not in ("cli", "trace") or _is_writer(n))
        - sum(idx.duration[k] for k in idx.calls("trace.probe")),
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = idx.self_of(lambda n, layer=layer: layer_of(n) == layer)
    return metrics
