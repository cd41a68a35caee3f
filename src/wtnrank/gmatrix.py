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
order, in either direction. ``row`` and ``col`` are the arrays of the
tensor's read-only ``MoneyMatrix.nodes`` and ``blocks`` is its own, all
shared by both directions, so S adds only its normalized values to the
tensor's 24 bytes a flow.
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


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic link matrix S with the dangling columns kept implicit.

    The normalized trade links are held per entry as ``row``, ``col`` and
    ``value``, in the order of the money tensor they came from: direct links
    run importer <- exporter, inverted ones exporter <- importer. ``row`` and
    ``col`` are the tensor's read-only node arrays and ``blocks`` its product
    runs, shared by both directions: product p's entries are
    ``blocks[p]:blocks[p + 1]``. Dangling columns are empty; ``dangling``
    marks them, each standing for a uniform 1/N column.
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
        self.value.setflags(write=False)
        self.dangling.setflags(write=False)

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
        self.values.setflags(write=False)

    def validate(self, tol: float = COLUMN_SUM_TOL) -> None:
        if np.any(self.values < 0):
            raise ValueError("personalization entries must be non-negative")
        if abs(self.values.sum() - 1.0) >= tol:
            raise ValueError("personalization must sum to 1")


@dataclass(frozen=True)   # over read-only arrays, so _link_solves cannot go stale; replace() solves afresh
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
        terms = x[S.col]
        terms *= S.value   # in place: one link-long temporary
        out = self.alpha * np.bincount(S.row, weights=terms, minlength=self.size)
        out += self.alpha * x[S.dangling].sum() / self.size
        out += (1.0 - self.alpha) * x.sum() * self.v.values
        return out

    @cached_property
    def _link_solves(self) -> np.ndarray:
        """(I - alpha S)^{-1} [(1 - alpha) v, (alpha / N) 1], solved on first use; see ``ranks.pagerank``."""
        teleport, dangling = (1.0 - self.alpha) * self.v.values, np.full(self.size, self.alpha / self.size)
        return _solve_links(self.S, self.alpha, np.column_stack([teleport, dangling]), np.arange(self.size))


def _block_system(S: StochasticMatrix, at: np.ndarray, run: slice, m: int, alpha: float) -> np.ndarray:
    """I - alpha S over one product's m solved nodes, from that product's ``run`` of links alone.

    ``at`` maps each solved node to its row in the block and the product's other nodes to -1.
    """
    row, col = at[S.row[run]], at[S.col[run]]
    keep = (row >= 0) & (col >= 0)
    flat = row[keep]
    flat *= m
    flat += col[keep]
    values = np.subtract(0.0, alpha * S.value[run][keep])   # 0 - x, so a zero link stays +0.0
    del row, col, keep
    system = np.zeros((m, m))
    system.ravel()[flat] = values
    system.ravel()[:: m + 1] += 1.0   # 1 + (-x) is 1 - x, bit for bit
    return system


def _solve_links(S: StochasticMatrix, alpha: float, rhs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Solve (I - alpha S[nodes, nodes]) Z = rhs in place, one dense product block at a time.

    Overwrites the caller's float64 ``rhs`` with Z and returns it. S links
    nodes of one product only, and a product's entries are one ``blocks``
    run, so each block is assembled from its product's run of links and
    freed before the next. Row i of ``rhs`` belongs to ``nodes[i]``; nodes
    ascend. alpha S has column sums at most alpha < 1, so no block is singular.
    """
    # node = p * n_countries + c, so each product is one run of the ascending nodes
    bounds = np.searchsorted(nodes, S.space.n_countries * np.arange(S.space.n_products + 1))
    at = np.full(S.size, -1)   # a solved node's row in its block; block p reads product p's entries only
    for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo < hi:
            at[nodes[lo:hi]] = np.arange(hi - lo)
            run = slice(S.blocks[p], S.blocks[p + 1])
            rhs[lo:hi] = np.linalg.solve(_block_system(S, at, run, hi - lo, alpha), rhs[lo:hi])
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
    row, col = money.nodes if direction == "direct" else money.nodes[::-1]
    sums = np.bincount(col, weights=money.value, minlength=space.size)
    dangling = sums == 0.0
    value = np.where(dangling, 1.0, sums)[col]
    np.divide(money.value, value, out=value)   # each flow over its column's sum, in place
    return StochasticMatrix(money.blocks, row, col, value, dangling, space, money.registry, direction)


def build_personalization(money: MoneyMatrix, mode: str = "uniform-by-product") -> PersonalizationVector:
    """Teleport vector weighting each product by its share of global volume.

    uniform-by-product spreads a product's weight evenly over countries:
    v_(c,p) = V_p / (n_countries * V). volume-by-country spreads it in
    proportion to each country's traded volume (imports + exports) of that
    product. Zero-volume products contribute zero weight either way.
    """
    values = _teleport(money.nodes, money.value, money.n_countries, money.n_products, mode)
    return PersonalizationVector(values, mode)


def _teleport(nodes: tuple, value: np.ndarray, n_countries: int, n_products: int, mode: str) -> np.ndarray:
    """:func:`build_personalization`'s values from flows: their (importer, exporter) node ids and ``value``."""
    if mode not in PERSONALIZATION_MODES:
        raise ValueError(f"mode must be one of {PERSONALIZATION_MODES}")
    product_volume = np.bincount(nodes[0] // n_countries, weights=value, minlength=n_products)
    total = product_volume.sum()
    if total == 0.0:
        raise EmptyNetworkError("money matrix has zero total volume")
    if mode == "uniform-by-product":
        return np.repeat(product_volume / (n_countries * total), n_countries)
    imports, exports = (np.bincount(ids, weights=value, minlength=n_products * n_countries) for ids in nodes)
    country_volume = (imports + exports).reshape(n_products, n_countries)
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


def write_matrix_dump(G: GoogleMatrix, path) -> tuple[Path, Path]:
    """Dump the link matrix as ``row,col,value`` triplets, and a ``.meta`` sidecar beside them.

    The triplets cover the sparse part of S only; the sidecar carries
    everything else another implementation needs to rebuild G bit-for-bit:
    an ``alpha=`` line, the dangling column ids and the dense v vector.
    """
    path = Path(path)
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
    return path, sidecar
