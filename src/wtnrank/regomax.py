"""Reduced Google matrix over a node subset and its strongest-links network.

With the full operator partitioned over subset rows/columns (r) and the
complement (s), the reduction

    G_R = G_rr + G_rs (1 - G_ss)^{-1} G_sr

keeps every direct and indirect pathway between the chosen nodes and stays
column-stochastic. Its stationary vector equals the normalized restriction
of the full PageRank, which the test suite uses as the exactness oracle.

(1 - G_ss) is solved exactly, one way at every size: its link part
I - alpha S_ss is block diagonal over products and is solved block by
block as PageRank's is (``gmatrix._solve_links``), against |s| x (k + 2)
columns, k the most kept nodes of a product. S_rr, S_sr and S_rs are
gathered through one map of each kept node's row in G_R. The dangling and
teleport terms are a rank-2 update applied with the Woodbury identity; its
2 x 2 capacitance is conditioned and inverted in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._text import write_columns
from .gmatrix import GoogleMatrix, _solve_links

#: Column-sum tolerance of the reduced matrix.
REDUCED_SUM_TOL = 1e-10

FRIEND_MODES = ("column", "row")


@dataclass(frozen=True)
class NodeSubset:
    """Ordered node ids to keep; the complement must stay non-empty."""

    node_ids: tuple[int, ...]
    size_total: int

    def __post_init__(self):
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("subset contains duplicate node ids")
        if not 1 <= len(self.node_ids) < self.size_total:
            raise ValueError("subset must keep at least one node and leave a non-empty complement")
        for node in self.node_ids:
            if not 0 <= node < self.size_total:
                raise ValueError(f"node id {node} outside [0, {self.size_total})")

    @property
    def n_kept(self) -> int:
        return len(self.node_ids)

    def complement(self) -> np.ndarray:
        mask = np.ones(self.size_total, dtype=bool)
        mask[list(self.node_ids)] = False
        return np.flatnonzero(mask)


def subset_from_countries(
    G: GoogleMatrix,
    countries: Sequence[str],
) -> tuple[NodeSubset, tuple[str, ...]]:
    """Node ids p * n + c of all products of the named countries, country-major, with labels ``code_p``."""
    repeated = sorted({code for code in countries if countries.count(code) > 1})
    if repeated:
        raise ValueError(f"subset names {', '.join(repeated)} more than once")
    n, n_products = G.registry.n, G.size // G.registry.n
    indexed = [(code, G.registry.index_of(code)) for code in countries]
    ids = tuple(p * n + c for _, c in indexed for p in range(n_products))
    labels = tuple(f"{code}_{p}" for code, _ in indexed for p in range(n_products))
    return NodeSubset(ids, G.size), labels


@dataclass(frozen=True)
class ReducedGoogleMatrix:
    """Dense column-stochastic matrix over the kept nodes."""

    matrix: np.ndarray
    subset: NodeSubset
    direction: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = REDUCED_SUM_TOL) -> None:
        if np.any(self.matrix < 0):
            raise ValueError("reduced matrix entries must be non-negative")
        if np.max(np.abs(self.matrix.sum(axis=0) - 1.0)) >= tol:
            raise ValueError("reduced matrix columns must sum to 1")


@dataclass(frozen=True)
class FriendsNetwork:
    """Top-k strongest outgoing transitions per node of a reduced matrix."""

    edges: tuple[tuple[int, int, float], ...]   # (source, target, weight)
    k: int
    mode: str


def _cond2(C: np.ndarray) -> float:
    """2-norm condition number of a 2 x 2 matrix from ||C||_F and det C; inf when det C is 0.

    (sigma_1 +- sigma_2)^2 = ||C||_F^2 +- 2 |det C|, which for C = [[a, b], [c, d]] are the
    squares of hypot(a +- d, b -+ c), with no cancellation; cond = sigma_1^2 / |det C|.
    """
    (a, b), (c, d) = C
    det = abs(a * d - b * c)
    return float((np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) ** 2 / (4.0 * det)) if det else np.inf


def reduced_google_matrix(G: GoogleMatrix, subset: NodeSubset) -> ReducedGoogleMatrix:
    """Compute G_R = G_rr + G_rs (1 - G_ss)^{-1} G_sr for the subset.

    The inverse is never formed. With d the dangling indicator,
    1 - G_ss = A - U V^T and G_sr = alpha S_sr + U W_r^T, where
    A = I - alpha S_ss is block diagonal over products, V = [d_s, 1],
    U = [alpha/N 1, (1 - alpha) v_s] and W_r = [d_r, 1]. A kept node's links
    stay in its own product, so it takes a slot among that product's kept
    nodes, and A is solved against one |s| x (k + 2) right-hand side, k the
    most kept nodes of a product: [alpha S_sr by slot, U]. Raises LinAlgError
    if (1 - G_ss) is singular; column stochasticity of the result is asserted.
    """
    if subset.size_total != G.size:
        raise ValueError("subset was built for a different node space")
    S, alpha, n_countries = G.S, G.alpha, G.registry.n
    r_ids = np.asarray(subset.node_ids, dtype=np.int64)
    s_ids = subset.complement()
    product = r_ids // n_countries
    same = product[:, None] == product
    slot = np.tril(same, -1).sum(axis=1)   # the kept nodes of its product before it
    k = int(slot.max()) + 1
    at = np.full(G.size, -1)   # a kept node's row in G_R; -1 in the complement
    at[r_ids] = np.arange(len(r_ids))
    U = np.column_stack([np.full(G.size, alpha / G.size), (1.0 - alpha) * G.v.values])
    rhs = np.hstack([np.zeros((len(s_ids), k)), U[s_ids]])
    kept = at >= 0
    row_kept, col_kept = kept[S.row], kept[S.col]
    # the links of S_sr, S_rs and S_rr; the link-long masks go before the solve
    sr, rs, rr = (np.flatnonzero(m) for m in (col_kept & ~row_kept, row_kept & ~col_kept, row_kept & col_kept))
    del row_kept, col_kept
    rhs[np.searchsorted(s_ids, S.row[sr]), slot[at[S.col[sr]]]] = alpha * S.value[sr]
    Z = _solve_links(S, alpha, rhs, s_ids)   # [B, Y] = A^{-1} [alpha S_sr, U]
    bounds = np.searchsorted(s_ids, n_countries * np.arange(len(S.blocks)))
    V = np.column_stack([S.dangling[s_ids], np.ones(len(s_ids))])
    VtZ = np.array([V[lo:hi].T @ Z[lo:hi] for lo, hi in zip(bounds, bounds[1:])])   # per product block
    K, VtB = VtZ[:, :, k:].sum(axis=0), VtZ[product, :, slot].T
    # A is never singular (alpha S_ss has column sums <= alpha < 1), so a singular (1 - G_ss) shows in the
    # Woodbury capacitance C = I - K; past this condition number C's rounding alone can exceed the tolerance.
    (a, b), (c, d) = capacitance = np.eye(2) - K
    cond = _cond2(capacitance)
    if not cond * np.finfo(float).eps < REDUCED_SUM_TOL:
        raise np.linalg.LinAlgError(
            f"(1 - G_ss) is singular: Woodbury capacitance condition number {cond:.3g}"
        )
    # G_R = alpha (S_rr + S_rs B + S_rs Y M) + U_r (W_r^T + V^T B + K M), M = W_r^T + C^{-1} (V^T B + K W_r^T),
    # with C^{-1} = adj C / det C: Z >= 0 leaves adj C non-negative, so no term rounds below 0 and a 0 stays 0
    Wt = np.vstack([S.dangling[r_ids], np.ones(len(r_ids))])
    M = Wt + np.array([[d, -b], [-c, a]]) @ (VtB + K @ Wt) / (a * d - b * c)
    rows, cols = at[S.row[rs]], np.searchsorted(s_ids, S.col[rs])
    SZ = np.column_stack([np.bincount(rows, S.value[rs] * z[cols], len(r_ids)) for z in Z.T])   # S_rs Z
    S_rr = np.zeros((len(r_ids), len(r_ids)))
    S_rr[at[S.row[rr]], at[S.col[rr]]] = S.value[rr]
    walks = S_rr + np.where(same, SZ[:, slot], 0.0) + SZ[:, k:] @ M
    reduced = ReducedGoogleMatrix(alpha * walks + U[r_ids] @ (Wt + VtB + K @ M), subset, G.direction)
    reduced.validate()
    return reduced


def friends_network(GR: ReducedGoogleMatrix, k: int = 4, mode: str = "column") -> FriendsNetwork:
    """Per node, the k largest off-diagonal transitions out of it.

    Column mode (default) reads column j as the outgoing transitions of node
    j and emits edges j -> i; row mode treats rows as outgoing instead. Ties
    break by ascending node index, as in a stable sort of the negated weights.
    """
    if not 1 <= k <= GR.n - 1:
        raise ValueError(f"k must lie in [1, {GR.n - 1}], got {k}")
    if mode not in FRIEND_MODES:
        raise ValueError(f"mode must be one of {FRIEND_MODES}")
    weights = GR.matrix if mode == "column" else GR.matrix.T
    keys = np.where(np.eye(GR.n, dtype=bool), np.inf, -weights)   # a node's own entry sorts last
    targets = np.argsort(keys, axis=0, kind="stable")[:k].T.tolist()
    edges = [(s, t, float(weights[t, s])) for s, row in enumerate(targets) for t in row]
    return FriendsNetwork(tuple(edges), k, mode)


def write_reduced_matrix(GR: ReducedGoogleMatrix, labels: Sequence[str], path) -> Path:
    """Write G_R as dense delimited text; the header row holds node labels.

    Row i and column i both correspond to labels[i]; columns sum to 1.
    """
    if len(labels) != GR.n:
        raise ValueError("one label per kept node required")
    return write_columns(path, labels, GR.matrix.T)


def write_edge_list(net: FriendsNetwork, labels: Sequence[str], path) -> Path:
    """Write the friends network as a ``source,target,weight`` edge list."""
    if len(labels) < 1 + max((max(s, t) for s, t, _ in net.edges), default=0):
        raise ValueError("edge list references a node without a label")
    sources = [labels[source] for source, _, _ in net.edges]
    targets = [labels[target] for _, target, _ in net.edges]
    weights = np.array([weight for _, _, weight in net.edges], dtype=np.float64)
    return write_columns(path, ("source", "target", "weight"), (sources, targets, weights))
