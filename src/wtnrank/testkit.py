"""Brute-force oracles and synthetic fixtures for the test suites.

Everything here re-derives the numerics independently of the main modules:
densification, normalization, damping and the reduction formula are written
out against plain dense arrays, so agreement with the production path is
meaningful. Deliberately naive; sizes are capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from ._text import write_lines
from .gmatrix import GoogleMatrix, StochasticMatrix
from .ingest import CountryRegistry, MoneyMatrix
from .regomax import NodeSubset

_DENSE_PAGERANK_CAP = 2000
_DENSE_REGOMAX_CAP = 500


@dataclass(frozen=True)
class SyntheticSpec:
    """Reproducible random money-tensor description: same spec, same matrix."""

    seed: int
    n_countries: int
    n_products: int
    density: float = 0.3
    value_range: tuple[float, float] = (1.0, 1000.0)

    def __post_init__(self):
        if self.n_countries < 2 or self.n_products < 1:
            raise ValueError("need at least 2 countries and 1 product")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.value_range[0] < 0 or self.value_range[1] <= self.value_range[0]:
            raise ValueError("value range must be non-negative and increasing")


def synthetic_registry(n_countries: int) -> CountryRegistry:
    codes = tuple(f"C{i:03d}" for i in range(n_countries))
    return CountryRegistry(codes=codes, names=codes, aggregation={})


def synthetic_money(spec: SyntheticSpec) -> MoneyMatrix:
    """Seeded sparse non-negative tensor with a zero diagonal.

    Raises when the expected number of off-diagonal entries per product
    drops below one (empty-network risk).
    """
    nc, npr = spec.n_countries, spec.n_products
    if spec.density * nc * (nc - 1) < 1.0:
        raise ValueError("density too low: expected fewer than one flow per product")
    rng = np.random.default_rng(spec.seed)
    mask = rng.random((npr, nc, nc)) < spec.density
    lo, hi = spec.value_range
    values = lo + (hi - lo) * rng.random((npr, nc, nc))
    dense = np.where(mask, values, 0.0)
    for p in range(npr):
        np.fill_diagonal(dense[p], 0.0)
    return MoneyMatrix.from_dense(dense, synthetic_registry(nc), year=2018)


def perturb_money(
    money: MoneyMatrix, product: int, delta: float, country: str | None = None, side: str = "export"
) -> MoneyMatrix:
    """Scale ``product``'s flows, or only ``country``'s exports or imports of it, by (1 + delta).

    The sensitivities' oracle: they never scale the tensor themselves.
    """
    if not (np.isfinite(delta) and 1.0 + delta > 0.0):
        raise ValueError(f"delta must be finite with 1 + delta positive, got {delta}")
    if not 0 <= product < money.n_products or side not in ("export", "import"):
        raise ValueError(f"no product {product} or side {side!r} to perturb")
    flow_product, importer = np.divmod(money.nodes[0], money.n_countries)
    hit = flow_product == product
    if country is not None:
        flows = money.nodes[1] % money.n_countries if side == "export" else importer
        hit &= flows == money.registry.index_of(country)
    return MoneyMatrix(money.registry, money.year, money.nodes,
                       np.where(hit, money.value * (1.0 + delta), money.value), money.n_products)


def transposed(money: MoneyMatrix) -> MoneyMatrix:
    """Money matrix with every flow reversed (importer <-> exporter)."""
    return MoneyMatrix(money.registry, money.year, money.nodes[::-1], money.value, money.n_products)


def dense_google_from_money(
    money: MoneyMatrix,
    direction: str = "direct",
    alpha: float = 0.5,
    personalization: str = "uniform-by-product",
) -> np.ndarray:
    """Money tensor -> dense Google matrix, sharing no code with gmatrix.

    Blocks are normalized column by column, zero columns replaced by 1/N,
    then damped against the product-weight teleport vector.
    """
    dense = money.to_dense()
    nc, npr = money.n_countries, money.n_products
    n = nc * npr
    S = np.zeros((n, n))
    for p in range(npr):
        block = dense[p] if direction == "direct" else dense[p].T
        for col in range(nc):
            j = p * nc + col
            total = block[:, col].sum()
            if total == 0.0:
                S[:, j] = 1.0 / n
            else:
                S[p * nc:(p + 1) * nc, j] = block[:, col] / total
    product_volume = dense.sum(axis=(1, 2))
    total_volume = product_volume.sum()
    if personalization == "uniform-by-product":
        v = np.repeat(product_volume / (nc * total_volume), nc)
    else:
        v = np.zeros(n)
        for p in range(npr):
            if product_volume[p] == 0.0:
                continue
            w = dense[p].sum(axis=1) + dense[p].sum(axis=0)
            v[p * nc:(p + 1) * nc] = (product_volume[p] / total_volume) * w / w.sum()
    return alpha * S + (1.0 - alpha) * np.outer(v, np.ones(n))


def dense_links(S: StochasticMatrix) -> np.ndarray:
    """The stored links of S as a dense (N, N) array; dangling columns stay zero."""
    dense = np.zeros((S.size, S.size))
    dense[S.row, S.col] = S.value
    return dense


def densify(G: GoogleMatrix) -> np.ndarray:
    """Explicit dense matrix of a GoogleMatrix (dangling columns written out)."""
    n = G.size
    S = dense_links(G.S)
    S[:, G.S.dangling] = 1.0 / n
    return G.alpha * S + (1.0 - G.alpha) * np.outer(G.v.values, np.ones(n))


def dense_pagerank_oracle(G: GoogleMatrix) -> np.ndarray:
    """Stationary vector by dense linear solve (I - alpha*S')P = (1-alpha)v.

    One N x N solve, independent of the block solves; valid for any alpha in (0, 1) because
    the system matrix is strictly diagonally dominant in the column sense.
    """
    n = G.size
    if n > _DENSE_PAGERANK_CAP:
        raise ValueError(f"dense oracle capped at N={_DENSE_PAGERANK_CAP}")
    S = dense_links(G.S)
    S[:, G.S.dangling] = 1.0 / n
    P = np.linalg.solve(np.eye(n) - G.alpha * S, (1.0 - G.alpha) * G.v.values)
    return P / P.sum()


def dense_stationary(matrix: np.ndarray, tol: float = 1e-14, max_iter: int = 100_000) -> np.ndarray:
    """Stationary vector of a dense column-stochastic matrix by long power iteration."""
    n = matrix.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = matrix @ x
        nxt /= nxt.sum()
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise RuntimeError("stationary iteration did not converge")


def dense_regomax_oracle(G: GoogleMatrix, subset: NodeSubset) -> np.ndarray:
    """Literal block formula with an explicit dense inverse.

    A subset covering every node is treated as a pass-through (returns the
    densified matrix), which the production module disallows.
    """
    n = G.size
    if n > _DENSE_REGOMAX_CAP:
        raise ValueError(f"dense oracle capped at N={_DENSE_REGOMAX_CAP}")
    full = densify(G)
    r = np.asarray(subset.node_ids, dtype=np.int64)
    if len(r) == n:
        return full
    mask = np.ones(n, dtype=bool)
    mask[r] = False
    s = np.flatnonzero(mask)
    G_rr = full[np.ix_(r, r)]
    G_rs = full[np.ix_(r, s)]
    G_sr = full[np.ix_(s, r)]
    G_ss = full[np.ix_(s, s)]
    inverse = np.linalg.inv(np.eye(len(s)) - G_ss)
    return G_rr + G_rs @ inverse @ G_sr


def write_trade_file(money: MoneyMatrix, path) -> Path:
    """Render a money matrix back into the ingest file format.

    Each entry becomes one row with the product's index as a single-digit
    SITC code, in entry order, its value written as the exact decimal
    expansion of the float, so loading the file for ``money.year``
    reproduces the matrix exactly.
    """
    lines = ["year,exporter,importer,sitc,value_usd"]
    codes = money.registry.codes
    columns = (*np.divmod(money.nodes[0], money.n_countries), money.nodes[1] % money.n_countries, money.value)
    for p, importer, exporter, value in zip(*(column.tolist() for column in columns)):
        lines.append(f"{money.year},{codes[exporter]},{codes[importer]},{p},{Decimal(value)}")
    return write_lines(path, lines)
