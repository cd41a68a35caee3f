"""Reduced Google matrix over a node subset and its strongest-links network.

With the full operator partitioned over subset rows/columns (r) and the
complement (s), the reduction

    G_R = G_rr + G_rs (1 - G_ss)^{-1} G_sr

keeps every direct and indirect pathway between the chosen nodes and stays
column-stochastic. Its stationary vector equals the normalized restriction
of the full PageRank, which the test suite uses as the exactness oracle.

(1 - G_ss) is solved exactly, one way at every size: its link part
I - alpha S_ss is block diagonal over products and is solved block by
block as PageRank's is (``gmatrix._solve_links``), and the dangling and
teleport terms are a rank-2 update applied with the Woodbury identity.
No dense teleport block is formed, and the 2 x 2 Woodbury capacitance is
conditioned in closed form, from its Frobenius norm and determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._text import write_columns
from .gmatrix import GoogleMatrix, _dense_links, _solve_links

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
    """All products of the named countries, country-major, with node labels."""
    space = G.space
    indexed = [(code, G.registry.index_of(code)) for code in countries]
    ids = tuple(space.node_id(c, p) for _, c in indexed for p in range(space.n_products))
    labels = tuple(f"{code}_{p}" for code, _ in indexed for p in range(space.n_products))
    return NodeSubset(ids, space.size), labels


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


def _dense_block(G: GoogleMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Densify G[rows, cols]: the links of S + dangling repair + teleport, in one buffer."""
    block = _dense_links(G.S, rows, cols)
    block[:, G.S.dangling[cols]] = 1.0 / G.size
    block *= G.alpha
    block += ((1.0 - G.alpha) * G.v.values[rows])[:, None]
    return block


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

    The inverse is never formed. With d_s the dangling indicator of the
    complement, 1 - G_ss = A - U V^T where A = I - alpha S_ss is block
    diagonal over products, U = [alpha/N 1, (1 - alpha) v_s] and
    V = [d_s, 1]. Each product block of A is solved densely against
    [G_sr, U], then a 2 x 2 Woodbury capacitance system adds the rank-2
    correction, so the cost is one dense solve per product block of at
    most n_countries nodes. Raises LinAlgError if (1 - G_ss) is singular;
    column stochasticity of the result is asserted.
    """
    if subset.size_total != G.size:
        raise ValueError("subset was built for a different node space")
    r_ids = np.asarray(subset.node_ids, dtype=np.int64)
    s_ids = subset.complement()
    alpha = G.alpha
    U = np.column_stack([np.full(len(s_ids), alpha / G.size), (1.0 - alpha) * G.v.values[s_ids]])
    Z = _solve_links(G.S, alpha, np.hstack([_dense_block(G, s_ids, r_ids), U]), s_ids)
    # (A - U V^T)^{-1} B = A^{-1} B + A^{-1} U C^{-1} V^T A^{-1} B with C = I - V^T A^{-1} U.
    # A itself is never singular (alpha S_ss has column sums <= alpha < 1), so a
    # singular (1 - G_ss) shows in C; past this condition number the rounding
    # of C alone can exceed the column-sum tolerance.
    VtZ = np.vstack([Z[G.S.dangling[s_ids]].sum(axis=0), Z.sum(axis=0)])
    capacitance = np.eye(2) - VtZ[:, -2:]
    cond = _cond2(capacitance)
    if not cond * np.finfo(float).eps < REDUCED_SUM_TOL:
        raise np.linalg.LinAlgError(
            f"(1 - G_ss) is singular: Woodbury capacitance condition number {cond:.3g}"
        )
    X = Z[:, -2:] @ np.linalg.solve(capacitance, VtZ[:, :-2])
    X += Z[:, :-2]   # a + b is b + a, bit for bit
    del Z
    G_rr = _dense_block(G, r_ids, r_ids)
    G_rs = _dense_block(G, r_ids, s_ids)
    reduced = ReducedGoogleMatrix(G_rr + G_rs @ X, subset, G.direction)
    reduced.validate()
    return reduced


def friends_network(GR: ReducedGoogleMatrix, k: int = 4, mode: str = "column") -> FriendsNetwork:
    """Per node, the k largest off-diagonal transitions out of it.

    Column mode (default) reads column j as the outgoing transitions of node
    j and emits edges j -> i; row mode treats rows as outgoing instead. Ties
    break by ascending node index.
    """
    n = GR.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    if mode not in FRIEND_MODES:
        raise ValueError(f"mode must be one of {FRIEND_MODES}")
    edges = []
    for source in range(n):
        column = GR.matrix[:, source] if mode == "column" else GR.matrix[source, :]
        targets = sorted((i for i in range(n) if i != source), key=lambda i: (-column[i], i))
        for target in targets[:k]:
            edges.append((source, target, float(column[target])))
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
    needed = 1 + max((max(s, t) for s, t, _ in net.edges), default=0)
    if len(labels) < needed:
        raise ValueError("edge list references a node without a label")
    sources = [labels[source] for source, _, _ in net.edges]
    targets = [labels[target] for _, target, _ in net.edges]
    weights = np.array([weight for _, _, weight in net.edges], dtype=np.float64)
    return write_columns(path, ("source", "target", "weight"), (sources, targets, weights))
