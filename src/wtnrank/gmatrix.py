"""Google-matrix construction over (country, product) nodes.

Trade links connect nodes of the same product only: the node space is laid
out product-major (node = p * n_countries + c) and the stochastic matrix is
block diagonal over products. Cross-product coupling enters only through the
personalization vector and the dangling-node repair. The damped operator

    G = alpha * S' + (1 - alpha) * v 1^T

is never densified; consumers go through :meth:`GoogleMatrix.apply`, which
evaluates the three terms (sparse links, uniform dangling columns, teleport).
The links of S are COO arrays ``row``, ``col``, ``value`` in the money
tensor's (product, importer, exporter) order, so each product's links are one
run ``blocks[p]:blocks[p + 1]`` and each row meets its columns in ascending
order, in either direction. ``row`` and ``col`` are the tensor's read-only
``MoneyMatrix.nodes``, which both directions share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._text import write_columns, write_lines
from .errors import EmptyNetworkError
from .ingest import CountryRegistry, MoneyMatrix

DIRECTIONS = ("direct", "inverted")

PERSONALIZATION_MODES = ("uniform-by-product", "volume-by-country")

#: Unit tolerance on column sums of S and of the implied G.
COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NodeSpace:
    """Bijection node id <-> (country c, product p) with id = p * n_countries + c."""

    n_countries: int
    n_products: int

    def __post_init__(self):
        if self.n_countries < 1 or self.n_products < 1:
            raise ValueError("node space needs at least one country and one product")

    @property
    def size(self) -> int:
        return self.n_countries * self.n_products

    def node_id(self, country: int, product: int) -> int:
        if not 0 <= country < self.n_countries:
            raise ValueError(f"country index {country} out of range")
        if not 0 <= product < self.n_products:
            raise ValueError(f"product index {product} out of range")
        return product * self.n_countries + country

    def country_of(self, node: int) -> int:
        return node % self.n_countries

    def product_of(self, node: int) -> int:
        return node // self.n_countries


@dataclass
class StochasticMatrix:
    """Column-stochastic link matrix S with the dangling columns kept implicit.

    The normalized trade links are held per entry as ``row``, ``col`` and
    ``value``, in the order of the money tensor they came from: direct links
    run importer <- exporter, inverted ones exporter <- importer. ``row`` and
    ``col`` are the tensor's read-only node arrays, shared by both directions.
    Product p's entries are ``blocks[p]:blocks[p + 1]``. Dangling columns are
    empty; ``dangling`` marks them, each standing for a uniform 1/N column.
    """

    blocks: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    dangling: np.ndarray
    space: NodeSpace
    registry: CountryRegistry
    direction: str

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.blocks.shape != (self.space.n_products + 1,) or not (
            self.row.shape == self.col.shape == self.value.shape == (self.blocks[-1],)
        ):
            raise ValueError(f"link arrays do not describe {self.space.n_products} product blocks")

    @property
    def size(self) -> int:
        return self.space.size

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.col, weights=self.value, minlength=self.size)

    def validate(self, tol: float = COLUMN_SUM_TOL) -> None:
        sums = self.column_sums()
        if np.any(sums[self.dangling] != 0.0):
            raise ValueError("dangling columns must hold no explicit entries")
        live = ~self.dangling
        if live.any() and np.max(np.abs(sums[live] - 1.0)) >= tol:
            raise ValueError("non-dangling column sums deviate from 1")
        if np.any(self.value < 0):
            raise ValueError("negative transition weight")


@dataclass(frozen=True)
class PersonalizationVector:
    """Teleportation distribution over nodes; sums to 1."""

    values: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in PERSONALIZATION_MODES:
            raise ValueError(f"mode must be one of {PERSONALIZATION_MODES}")

    def validate(self, tol: float = COLUMN_SUM_TOL) -> None:
        if np.any(self.values < 0):
            raise ValueError("personalization entries must be non-negative")
        if abs(self.values.sum() - 1.0) >= tol:
            raise ValueError("personalization must sum to 1")


@dataclass
class GoogleMatrix:
    """Damped operator alpha*S' + (1-alpha)*v 1^T, applied without densifying."""

    S: StochasticMatrix
    v: PersonalizationVector
    alpha: float

    @property
    def direction(self) -> str:
        return self.S.direction

    @property
    def size(self) -> int:
        return self.S.size

    @property
    def space(self) -> NodeSpace:
        return self.S.space

    @property
    def registry(self) -> CountryRegistry:
        return self.S.registry

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return G @ x (links, uniform dangling columns, teleport); preserves the mass of x."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.size,):
            raise ValueError(f"vector length {x.shape} does not match N={self.size}")
        # each row meets its columns in ascending order, so it adds its terms as a CSC matvec does
        S = self.S
        out = self.alpha * np.bincount(S.row, weights=S.value * x[S.col], minlength=self.size)
        out += self.alpha * x[S.dangling].sum() / self.size
        out += (1.0 - self.alpha) * x.sum() * self.v.values
        return out

    @cached_property
    def _link_solves(self) -> np.ndarray:
        """(I - alpha S)^{-1} [(1 - alpha) v, (alpha / N) 1], solved on first use; see ``ranks.pagerank``."""
        teleport, dangling = (1.0 - self.alpha) * self.v.values, np.full(self.size, self.alpha / self.size)
        return _solve_links(self.S, self.alpha, np.column_stack([teleport, dangling]), np.arange(self.size))


def _dense_links(S: StochasticMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """S[rows, cols] as a dense array, from the entries of the products cols span.

    Masks of the rows and columns asked for pick the entries; only kept ones
    are gathered, through one flat index into the block, built in place.
    """
    n_countries = S.space.n_countries
    first, last = S.blocks[cols.min() // n_countries], S.blocks[cols.max() // n_countries + 1]
    row_at = np.full(S.size, -1)
    row_at[rows] = np.arange(len(rows))
    col_at = np.full(S.size, -1)
    col_at[cols] = np.arange(len(cols))
    row, col = S.row[first:last], S.col[first:last]
    keep = (row_at >= 0)[row] & (col_at >= 0)[col]
    flat = row_at[row[keep]]
    flat *= len(cols)
    flat += col_at[col[keep]]
    values = S.value[first:last][keep]
    del keep, row_at, col_at
    links = np.zeros((len(rows), len(cols)))
    links.ravel()[flat] = values
    return links


def _identity_minus(links: np.ndarray, alpha: float) -> np.ndarray:
    """Overwrite the square ``links`` with the bits of ``np.eye(n) - alpha * links`` and return it."""
    np.subtract(0.0, np.multiply(links, alpha, out=links), out=links)   # 0 - x, so no -0.0
    links.ravel()[:: len(links) + 1] += 1.0   # 1 + (-x) is 1 - x, bit for bit
    return links


def _solve_links(S: StochasticMatrix, alpha: float, rhs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Solve (I - alpha S[nodes, nodes]) Z = rhs in place, one dense product block at a time.

    Overwrites the caller's float64 ``rhs`` with Z and returns it. S links
    nodes of one product only, and a product's entries are one ``blocks``
    run, so each block's system matrix is built in the buffer its links are
    densified into. Row i of ``rhs`` belongs to ``nodes[i]``; nodes ascend.
    alpha S has column sums at most alpha < 1, so no block is singular.
    """
    # node = p * n_countries + c, so each product is one run of the ascending nodes
    bounds = np.searchsorted(nodes, S.space.n_countries * np.arange(S.space.n_products + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            block = nodes[lo:hi]
            rhs[lo:hi] = np.linalg.solve(_identity_minus(_dense_links(S, block, block), alpha), rhs[lo:hi])
    return rhs


def build_stochastic(money: MoneyMatrix, direction: str = "direct") -> StochasticMatrix:
    """Normalize the money tensor into the column-stochastic link matrix.

    direction="direct" sends mass from exporter to importer columns
    (block p holds M^p column-normalized); "inverted" uses the transposed
    flows. Columns with zero outflow are flagged dangling.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if not money.value.size:
        raise EmptyNetworkError("money matrix has no flows; no network to build")
    space = NodeSpace(money.n_countries, money.n_products)
    importer, exporter = money.nodes
    row, col = (importer, exporter) if direction == "direct" else (exporter, importer)
    sums = np.bincount(col, weights=money.value, minlength=space.size)
    dangling = sums == 0.0
    value = money.value / np.where(dangling, 1.0, sums)[col]
    blocks = np.searchsorted(money.product, np.arange(money.n_products + 1))
    return StochasticMatrix(blocks, row, col, value, dangling, space, money.registry, direction)


def build_personalization(money: MoneyMatrix, mode: str = "uniform-by-product") -> PersonalizationVector:
    """Teleport vector weighting each product by its share of global volume.

    uniform-by-product spreads a product's weight evenly over countries:
    v_(c,p) = V_p / (n_countries * V). volume-by-country spreads it in
    proportion to each country's traded volume (imports + exports) of that
    product. Zero-volume products contribute zero weight either way.
    """
    values = _teleport(money.product_volumes(), money.node_volumes, money.n_countries, mode)
    return PersonalizationVector(values, mode)


def _teleport(product_volume: np.ndarray, node_volumes, n_countries: int, mode: str) -> np.ndarray:
    """:func:`build_personalization`'s values from V_p; volume-by-country calls ``node_volumes()``."""
    if mode not in PERSONALIZATION_MODES:
        raise ValueError(f"mode must be one of {PERSONALIZATION_MODES}")
    total = product_volume.sum()
    if total == 0.0:
        raise EmptyNetworkError("money matrix has zero total volume")
    if mode == "uniform-by-product":
        return np.repeat(product_volume / (n_countries * total), n_countries)
    imports, exports = node_volumes()
    country_volume = (imports + exports).reshape(len(product_volume), n_countries)
    block_volume = country_volume.sum(axis=1, keepdims=True)
    # within-product shares sum to 1 (a zero-volume block stays 0); the block carries V_p / V
    shares = country_volume / np.where(block_volume > 0, block_volume, 1.0)
    return ((product_volume / total)[:, None] * shares).ravel()


def make_google(S: StochasticMatrix, v: PersonalizationVector, alpha: float = 0.5) -> GoogleMatrix:
    """Assemble the damped operator; alpha must lie strictly inside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"damping alpha must lie in (0, 1), got {alpha}")
    if v.values.shape != (S.size,):
        raise ValueError("personalization length does not match node space")
    return GoogleMatrix(S, v, alpha)


def build_google(
    money: MoneyMatrix,
    direction: str = "direct",
    alpha: float = 0.5,
    personalization: str = "uniform-by-product",
) -> GoogleMatrix:
    """Money tensor -> GoogleMatrix in one step (shared v formula per direction)."""
    S = build_stochastic(money, direction)
    v = build_personalization(money, personalization)
    return make_google(S, v, alpha)


def write_matrix_dump(G: GoogleMatrix, path, sidecar=None) -> tuple[Path, Path]:
    """Dump the link matrix as ``row,col,value`` triplets for cross-checking.

    The triplets cover the sparse part of S only; the sidecar file carries
    everything else another implementation needs to rebuild G bit-for-bit:
    an ``alpha=`` line, the dangling column ids and the dense v vector.
    """
    path = Path(path)
    if sidecar is None:
        sidecar = path.with_suffix(".meta")
    S = G.S
    order = np.lexsort((S.col, S.row))
    write_columns(path, ("row", "col", "value"), (S.row[order], S.col[order], S.value[order]))
    meta = [
        f"alpha={float(G.alpha)!r}",
        "dangling=" + ",".join(map(repr, np.flatnonzero(S.dangling).tolist())),
        "v=" + ",".join(map(repr, G.v.values.tolist())),
    ]
    write_lines(sidecar, meta)
    return path, Path(sidecar)
