"""Seeded inputs of the benchmark workloads and the references their outputs are checked against.

Every money tensor comes from ``wtnrank.testkit.synthetic_money`` with a seed
derived from the workload seed, and is rendered here in the trade-file format
the CLI reads (values as the exact decimal expansion of the float, the form
``testkit.write_trade_file`` uses). The program under test only receives the
rendered files. Rendering lives in the benchmark so that a change to the
package cannot change a workload's input bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from wtnrank import CountryRegistry, MoneyMatrix, build_google, pagerank
from wtnrank.testkit import SyntheticSpec, dense_google_from_money, synthetic_money

YEAR = 2018
N_PRODUCTS = 10
ALPHA = 0.5
SUBSET_SIZE = 4

#: Largest node count whose reference PageRank comes from one dense solve.
DENSE_REFERENCE_MAX = 2000


@dataclass
class Prepared:
    """One workload's generated inputs, CLI arguments and output references."""

    argv: list[str]
    expected: list[str]
    codes: tuple[str, ...]
    properties: dict
    # node-level stationary vectors by direction, for the rank and REGOMAX checks
    reference: dict = field(default_factory=dict)


def synthetic_tensor(seed: int, n_countries: int, density: float) -> tuple[tuple[str, ...], np.ndarray]:
    """Country codes and float tensor M[p, importer, exporter] of one synthetic year."""
    money = synthetic_money(SyntheticSpec(seed, n_countries, N_PRODUCTS, density))
    return tuple(money.registry.codes), money.to_dense()


def trade_rows(codes, tensor, year: int) -> list[str]:
    """One line per non-zero flow, sorted by (product, importer, exporter)."""
    p, i, e = np.nonzero(tensor)
    values = tensor[p, i, e].tolist()
    return [
        f"{year},{codes[ee]},{codes[ii]},{pp},{Decimal(v)}"
        for pp, ii, ee, v in zip(p.tolist(), i.tolist(), e.tolist(), values)
    ]


def write_text(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def aggregate(codes, tensor, blocs: dict[str, str]):
    """Collapse member codes onto their bloc, summing flows and dropping self-flows."""
    canonical = sorted({blocs.get(c, c) for c in codes})
    index = {c: k for k, c in enumerate(canonical)}
    target = np.array([index[blocs.get(c, c)] for c in codes])
    p, i, e = np.nonzero(tensor)
    merged = np.zeros((tensor.shape[0], len(canonical), len(canonical)))
    np.add.at(merged, (p, target[i], target[e]), tensor[p, i, e])
    for block in merged:
        np.fill_diagonal(block, 0.0)
    return tuple(canonical), merged


def dense_stationary_solve(G: np.ndarray) -> np.ndarray:
    """Stationary vector of a column-stochastic matrix: (I - G + 1 1^T) x = 1."""
    n = G.shape[0]
    return np.linalg.solve(np.eye(n) - G + 1.0, np.ones(n))


def reference_pageranks(codes, tensor) -> dict:
    """Node-level PageRank ("direct") and CheiRank ("inverted") of a tensor.

    Up to DENSE_REFERENCE_MAX nodes this is a dense solve on the independent
    ``testkit.dense_google_from_money``; above it, the package's own power
    iteration (the REGOMAX check still compares two different solvers).
    """
    registry = CountryRegistry(codes=tuple(codes), names=tuple(codes), aggregation={})
    money = MoneyMatrix.from_dense(tensor, registry, YEAR)
    dense = len(codes) * tensor.shape[0] <= DENSE_REFERENCE_MAX
    vectors = {}
    for direction in ("direct", "inverted"):
        if dense:
            P = dense_stationary_solve(dense_google_from_money(money, direction, ALPHA))
        else:
            P = pagerank(build_google(money, direction, ALPHA), tol=1e-13)[0].values
        vectors[direction] = P / P.sum()
    return vectors


def country_order(codes, node_vector: np.ndarray) -> list[str]:
    """Country codes by descending country-level probability, ties by code."""
    country = node_vector.reshape(N_PRODUCTS, len(codes)).sum(axis=0)
    return [codes[c] for c in sorted(range(len(codes)), key=lambda c: (-country[c], codes[c]))]


def structure(codes, tensor) -> dict:
    """Input properties the package's work depends on."""
    n = len(codes)
    outflow = tensor.sum(axis=1)   # (p, exporter): column sums of the direct blocks
    inflow = tensor.sum(axis=2)    # (p, importer): column sums of the inverted blocks
    return {
        "countries": n,
        "nodes": n * tensor.shape[0],
        "nnz": int(np.count_nonzero(tensor)),
        "dangling_direct": int(np.count_nonzero(outflow == 0.0)),
        "dangling_inverted": int(np.count_nonzero(inflow == 0.0)),
        "complement": (n - SUBSET_SIZE) * tensor.shape[0],
    }


def _single_year(path: Path, codes, tensor) -> int:
    rows = trade_rows(codes, tensor, YEAR)
    write_text(path, ["year,exporter,importer,sitc,value_usd"] + rows)
    return len(rows)


def _expected(kinds) -> list[str]:
    return [f"{kind}_{YEAR}.{ext}" for kind, ext in kinds]


RANK_FILES = [("rank_table", "csv"), ("top_table", "csv"),
              ("rank_plane_google", "csv"), ("rank_plane_volume", "csv")]
REGOMAX_FILES = [("gr_direct", "csv"), ("gr_inverted", "csv"),
                 ("friends_direct", "csv"), ("friends_inverted", "csv")]


def pipeline_paper(seed: int, work: Path) -> Prepared:
    """194 raw countries at density 0.4; a 27-member bloc leaves 168 after aggregation."""
    raw_codes, raw = synthetic_tensor(seed, 194, 0.4)
    rng = np.random.default_rng(seed)
    members = sorted(raw_codes[k] for k in rng.choice(len(raw_codes), size=27, replace=False))
    blocs = {member: "EUU" for member in members}
    write_text(work / "blocs.csv", ["member_code,bloc_code"] + [f"{m},EUU" for m in members])
    rows = _single_year(work / "trade.csv", raw_codes, raw)
    codes, tensor = aggregate(raw_codes, raw, blocs)
    reference = reference_pageranks(codes, tensor)
    sens = [(f"sensitivity_{source}_s{p}", "csv") for p in (3, 7) for source in ("gma", "iea")]
    sens += [(f"sensitivity_s{p}", "json") for p in (3, 7)]
    return Prepared(
        argv=["pipeline", "--input", "trade.csv", "--year", str(YEAR), "--aggregate", "blocs.csv"],
        expected=_expected(RANK_FILES + [("balance", "csv")] + sens + REGOMAX_FILES),
        codes=codes,
        properties={"rows": rows, "records": rows, **structure(codes, tensor)},
        reference=reference,
    )


def regomax_large(seed: int, work: Path) -> Prepared:
    """420 countries at density 0.1 (N = 4200); subset = the top four PageRank countries."""
    codes, tensor = synthetic_tensor(seed, 420, 0.1)
    rows = _single_year(work / "trade.csv", codes, tensor)
    reference = reference_pageranks(codes, tensor)
    subset = country_order(codes, reference["direct"])[:SUBSET_SIZE]
    return Prepared(
        argv=["regomax", "--input", "trade.csv", "--year", str(YEAR), "--subset", ",".join(subset)],
        expected=_expected(REGOMAX_FILES),
        codes=codes,
        properties={"rows": rows, "records": rows, **structure(codes, tensor)},
        reference=reference,
    )


WORKLOADS = {
    "pipeline-paper": pipeline_paper,
    "regomax-large": regomax_large,
}
