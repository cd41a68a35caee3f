"""PageRank/CheiRank by exact block solve, rank indexes and volume-based ranks.

PageRank is the stationary vector of the direct GoogleMatrix; CheiRank is
the same computation on the inverted one. Rank indexes K order entities by
descending probability with a deterministic tie-break (country code, then
product index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._text import write_columns
from .errors import EmptyNetworkError
from .gmatrix import GoogleMatrix, NodeSpace
from .ingest import CountryRegistry, MoneyMatrix

#: Probability vectors are validated to sum to 1 within this.
PROBABILITY_TOL = 1e-10

DEFAULT_TOL = 1e-12

_NODE_KINDS = {"direct": "pagerank", "inverted": "cheirank"}


@dataclass(frozen=True)
class SolverReport:
    """Solves made (1 per vector), measured L1 residual |G P - P| and whether it is below tol."""

    iterations: int
    residual: float
    converged: bool

    def as_dict(self) -> dict:
        return {"iterations": self.iterations, "residual": self.residual, "converged": self.converged}


@dataclass(frozen=True)
class ProbabilityVector:
    """Normalized distribution over nodes, countries or products.

    ``keys`` hold the deterministic tie-break/display key of every entry:
    (code, product) tuples at node level, codes at country level, product
    indexes at product level. ``space`` is set for node-level vectors only.
    """

    values: np.ndarray
    kind: str
    level: str
    keys: tuple
    space: NodeSpace | None = None

    def __post_init__(self):
        if len(self.keys) != len(self.values):
            raise ValueError("one key per entry required")

    def validate(self, tol: float = PROBABILITY_TOL) -> None:
        if np.any(self.values < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(self.values.sum() - 1.0) >= tol:
            raise ValueError("probabilities must sum to 1")


class RankOrder(NamedTuple):
    """Descending-probability permutation: order[k] = entity at rank k+1."""

    order: np.ndarray
    rank_of: np.ndarray


def pagerank(G: GoogleMatrix, tol: float = DEFAULT_TOL) -> tuple[ProbabilityVector, SolverReport]:
    """Stationary vector of G by one exact solve; on the inverted matrix, CheiRank.

    P solves (I - alpha S~) P = (1 - alpha) v, where S~ = S + (1/N) 1 d^T and
    d marks the dangling columns. With z_v, z_1 the block solves of
    I - alpha S against (1 - alpha) v and (alpha/N) 1 (``G._link_solves``),
    Sherman-Morrison adds the rank-one term: P = z_v + z_1 (d.z_v) / (1 - d.z_1).
    The report holds iterations=1, the residual |G P - P|_1 measured with
    one apply, and converged = residual < tol.
    """
    return _stationary(G, *G._link_solves.T, tol, G.apply)


def _stationary(G: GoogleMatrix, z: np.ndarray, z_1: np.ndarray, tol: float, apply) -> tuple:
    """(P, report) from the solves z, z_1 of an operator with G's dangling columns and ``apply``.

    As in :func:`pagerank`: add the dangling columns' rank-one term, rescale
    to sum 1, and measure the residual |apply(P) - P|_1 against ``tol``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    dangling = G.S.dangling
    x = z + z_1 * (z[dangling].sum() / (1.0 - z_1[dangling].sum()))
    x /= x.sum()
    residual = float(np.abs(apply(x) - x).sum())
    keys = tuple((code, p) for p in range(G.space.n_products) for code in G.registry.codes)
    vector = ProbabilityVector(x, _NODE_KINDS[G.direction], "node", keys, G.space)
    return vector, SolverReport(1, residual, residual < tol)


def order_indexes(P: ProbabilityVector) -> RankOrder:
    """Rank entities by descending probability; ties break by ascending key."""
    order = sorted(range(len(P.values)), key=lambda i: (-P.values[i], P.keys[i]))
    order = np.asarray(order, dtype=np.int64)
    rank_of = np.empty(len(order), dtype=np.int64)
    rank_of[order] = np.arange(1, len(order) + 1)
    return RankOrder(order, rank_of)


def aggregate_country(P: ProbabilityVector) -> ProbabilityVector:
    """Sum a node-level vector over products: P_c = sum_p P_(c,p)."""
    if P.level != "node" or P.space is None:
        raise ValueError("country aggregation needs a node-level vector")
    table = P.values.reshape(P.space.n_products, P.space.n_countries)
    codes = tuple(key[0] for key in P.keys[: P.space.n_countries])
    return ProbabilityVector(table.sum(axis=0), P.kind, "country", codes)


def aggregate_product(P: ProbabilityVector) -> ProbabilityVector:
    """Sum a node-level vector over countries: P_p = sum_c P_(c,p)."""
    if P.level != "node" or P.space is None:
        raise ValueError("product aggregation needs a node-level vector")
    table = P.values.reshape(P.space.n_products, P.space.n_countries)
    keys = tuple(range(P.space.n_products))
    return ProbabilityVector(table.sum(axis=1), P.kind, "product", keys)


def volume_probabilities(money: MoneyMatrix) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Import/export volume shares per node, both normalized by the total volume."""
    total = money.value.sum()
    if total == 0.0:
        raise EmptyNetworkError("money matrix has zero total volume")
    imports, exports = money.node_volumes()
    keys = tuple((code, p) for p in range(money.n_products) for code in money.registry.codes)
    space = NodeSpace(money.n_countries, money.n_products)
    p_hat = ProbabilityVector(imports / total, "import_volume", "node", keys, space)
    p_hat_star = ProbabilityVector(exports / total, "export_volume", "node", keys, space)
    return p_hat, p_hat_star


@dataclass(frozen=True)
class RankTable:
    """Per-country probabilities and rank indexes for all four rankings.

    K/Kstar come from PageRank/CheiRank, Khat/Khatstar from import/export
    volume; each index column is a permutation of 1..n_countries.
    """

    codes: tuple[str, ...]
    P: np.ndarray
    Pstar: np.ndarray
    Phat: np.ndarray
    Phatstar: np.ndarray
    K: np.ndarray
    Kstar: np.ndarray
    Khat: np.ndarray
    Khatstar: np.ndarray

    def top(self, column: str, count: int) -> list[str]:
        """Codes of the ``count`` best-ranked countries in one index column."""
        ranks = getattr(self, column)
        order = np.argsort(ranks, kind="stable")
        return [self.codes[i] for i in order[:count]]


RANK_TABLE_HEADER = "entity,P,Pstar,K,Kstar,Phat,Phatstar,Khat,Khatstar"

#: Index columns of the top-k table, in display order.
TOP_TABLE_COLUMNS = ("K", "Kstar", "Khat", "Khatstar")

RANK_PLANE_KINDS = ("google", "volume")


def write_rank_table(table: RankTable, path) -> Path:
    """Write the full table as delimited text, rows ordered by K."""
    header = RANK_TABLE_HEADER.split(",")
    order = np.argsort(table.K, kind="stable")
    columns = [[table.codes[i] for i in order]] + [getattr(table, name)[order] for name in header[1:]]
    return write_columns(path, header, columns)


def write_top_table(table: RankTable, path, count: int = 20) -> Path:
    """Write the best ``count`` countries of each index side by side."""
    count = min(count, len(table.codes))
    if count < 1:
        raise ValueError("top table needs at least one row")
    columns = [np.arange(1, count + 1)] + [table.top(name, count) for name in TOP_TABLE_COLUMNS]
    return write_columns(path, ("rank", "pagerank", "cheirank", "importrank", "exportrank"), columns)


def rank_plane_points(
    table: RankTable,
    kind: str = "google",
    cutoff: int = 61,
) -> list[tuple[str, int, int]]:
    """(entity, K, K*) scatter points with both indexes below the cutoff.

    kind picks the plane: "google" pairs K with K*, "volume" pairs the
    import/export indexes Khat with Khatstar. Points come back sorted by
    (K, K*) so the scatter files are deterministic.
    """
    if kind not in RANK_PLANE_KINDS:
        raise ValueError(f"kind must be one of {RANK_PLANE_KINDS}")
    if cutoff < 2:
        raise ValueError("cutoff must leave room for rank 1")
    kx, ky = (table.K, table.Kstar) if kind == "google" else (table.Khat, table.Khatstar)
    points = [
        (table.codes[i], int(kx[i]), int(ky[i]))
        for i in range(len(table.codes))
        if kx[i] < cutoff and ky[i] < cutoff
    ]
    points.sort(key=lambda point: (point[1], point[2]))
    return points


def build_rank_table(
    pagerank_c: ProbabilityVector,
    cheirank_c: ProbabilityVector,
    import_c: ProbabilityVector,
    export_c: ProbabilityVector,
) -> RankTable:
    """Combine the four country-level vectors into one indexed table."""
    codes = pagerank_c.keys
    for vec in (cheirank_c, import_c, export_c):
        if vec.keys != codes:
            raise ValueError("rank table inputs must share the same country keys")
    return RankTable(
        codes=tuple(codes),
        P=pagerank_c.values,
        Pstar=cheirank_c.values,
        Phat=import_c.values,
        Phatstar=export_c.values,
        K=order_indexes(pagerank_c).rank_of,
        Kstar=order_indexes(cheirank_c).rank_of,
        Khat=order_indexes(import_c).rank_of,
        Khatstar=order_indexes(export_c).rank_of,
    )
