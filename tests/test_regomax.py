"""Reduced Google matrix, friends network, and their exports."""

import tracemalloc

import numpy as np
import pytest

from wtnrank import (
    NodeSubset,
    build_google,
    friends_network,
    pagerank,
    reduced_google_matrix,
    subset_from_countries,
    write_edge_list,
    write_reduced_matrix,
)
from wtnrank import regomax
from wtnrank.errors import UnknownCountryError
from wtnrank.gmatrix import _solve_links
from wtnrank.regomax import FRIEND_MODES, REDUCED_SUM_TOL, ReducedGoogleMatrix, _cond2
from wtnrank.testkit import (
    SyntheticSpec,
    dense_regomax_oracle,
    dense_stationary,
    synthetic_money,
)

from conftest import money_from_dense
from test_gmatrix import uniform_google


def reduced_fixture(seed=0, n_countries=6, n_products=2, kept=4, direction="direct"):
    money = synthetic_money(SyntheticSpec(seed=seed, n_countries=n_countries, n_products=n_products, density=0.5))
    G = build_google(money, direction)
    subset = NodeSubset(tuple(range(kept)), G.size)
    return G, subset


class TestNodeSubset:
    def test_complement_partitions_the_space(self):
        subset = NodeSubset((1, 4, 2), 6)
        assert subset.n_kept == 3
        assert list(subset.complement()) == [0, 3, 5]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NodeSubset((0, 1, 1), 5)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            NodeSubset((), 5)

    def test_full_coverage_rejected(self):
        # the complement block (1 - G_ss) must exist
        with pytest.raises(ValueError, match="non-empty complement"):
            NodeSubset((0, 1, 2), 3)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            NodeSubset((0, 7), 5)


class TestReduction:
    def test_matches_dense_oracle(self):
        for seed in range(8):
            G, subset = reduced_fixture(seed=seed)
            GR = reduced_google_matrix(G, subset)
            assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10
        # at the oracle's N = 500 cap, with kept nodes in several product blocks
        money = synthetic_money(SyntheticSpec(seed=11, n_countries=48, n_products=10, density=0.3))
        for direction in ("direct", "inverted"):
            G = build_google(money, direction)
            subset = NodeSubset((3, 50, 101, 102, 250, 479), G.size)
            GR = reduced_google_matrix(G, subset)
            assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10

    def test_subset_covering_a_whole_product_block(self):
        # product 0 leaves no complement nodes, so its block of (1 - G_ss) is empty
        for direction in ("direct", "inverted"):
            G, subset = reduced_fixture(seed=5, kept=6, direction=direction)
            GR = reduced_google_matrix(G, subset)
            assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10

    def test_inverted_direction_matches_oracle(self):
        G, subset = reduced_fixture(seed=3, direction="inverted")
        GR = reduced_google_matrix(G, subset)
        assert GR.direction == "inverted"
        assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10

    def test_columns_sum_to_one(self):
        G, subset = reduced_fixture(seed=5, kept=5)
        GR = reduced_google_matrix(G, subset)
        assert np.allclose(GR.matrix.sum(axis=0), 1.0, atol=1e-12, rtol=0)
        assert np.all(GR.matrix >= 0)

    def test_stationary_vector_is_restricted_pagerank(self):
        # the reduction must preserve the relative weights of the kept nodes
        G, subset = reduced_fixture(seed=2, n_countries=8, n_products=3, kept=6)
        GR = reduced_google_matrix(G, subset)
        P, report = pagerank(G)
        assert report.converged
        restricted = P.values[list(subset.node_ids)]
        restricted = restricted / restricted.sum()
        assert np.max(np.abs(dense_stationary(GR.matrix) - restricted)) < 1e-8

    def test_two_node_reduction_is_scalar_one(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 30.0
        G = build_google(money_from_dense(dense))
        GR = reduced_google_matrix(G, NodeSubset((0,), 2))
        assert GR.matrix.shape == (1, 1)
        assert abs(GR.matrix[0, 0] - 1.0) < 1e-14

    def test_uniform_matrix_reduces_to_uniform(self):
        G = uniform_google()
        subset = NodeSubset((0, 2), G.size)
        GR = reduced_google_matrix(G, subset)
        assert np.allclose(GR.matrix, 0.5, atol=1e-14, rtol=0)

    def test_singular_complement_named(self):
        # country 0 trades nothing and gets no teleport weight, so no mass
        # ever leaves the complement: G_ss is column-stochastic. Unrounded
        # weights keep an LU from spotting the singularity exactly.
        dense = np.random.default_rng(1).uniform(1.0, 100.0, size=(2, 4, 4))
        dense[:, 0, :] = 0.0
        dense[:, :, 0] = 0.0
        for p in range(2):
            np.fill_diagonal(dense[p], 0.0)
        money = money_from_dense(dense)
        for direction in ("direct", "inverted"):
            G = build_google(money, direction, personalization="volume-by-country")
            with pytest.raises(np.linalg.LinAlgError, match=r"\(1 - G_ss\) is singular"):
                reduced_google_matrix(G, NodeSubset((0, 4), 8))

    def test_entry_that_is_zero_stays_zero(self):
        # country 0 trades nothing in products 0 and 2, so by volume its nodes
        # there get no teleport weight: kept node 8 gains only dangling mass,
        # and none flows to it from product 1, kept whole. A 2 x 2 solve of the
        # capacitance rounded G_R[4, :4] to -3e-25, which validate rejects.
        dense = np.full((5, 4, 4), 0.75)
        for p in range(5):
            np.fill_diagonal(dense[p], 0.0)
        dense[[0, 2], 0, :] = 0.0
        dense[[0, 2], :, 0] = 0.0
        dense[1, 0, 1] = 1e6
        subset = NodeSubset((4, 5, 6, 7, 8), 20)
        for direction in ("direct", "inverted"):
            G = build_google(money_from_dense(dense), direction, 0.85, "volume-by-country")
            GR = reduced_google_matrix(G, subset)
            assert np.all(GR.matrix[4, :4] == 0.0)
            assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10

    def test_large_complement_keeps_restricted_pagerank(self):
        # 420 x 10 with the top 4 PageRank countries kept: complement 4160
        money = synthetic_money(SyntheticSpec(seed=0, n_countries=420, n_products=10, density=0.1))
        G = build_google(money)
        P, report = pagerank(G)
        assert report.converged
        countries = P.values.reshape(10, 420).sum(axis=0)
        top = [G.registry.codes[c] for c in np.argsort(-countries, kind="stable")[:4]]
        subset, _ = subset_from_countries(G, top)
        assert len(subset.complement()) == 4160
        GR = reduced_google_matrix(G, subset)
        assert np.max(np.abs(GR.matrix.sum(axis=0) - 1.0)) < REDUCED_SUM_TOL
        restricted = P.values[list(subset.node_ids)]
        restricted = restricted / restricted.sum()
        assert np.max(np.abs(dense_stationary(GR.matrix) - restricted)) < 1e-8

    def test_permutation_equivariance(self):
        G, _ = reduced_fixture(seed=4)
        ids = (5, 0, 3, 2)
        perm = (2, 0, 3, 1)
        base = reduced_google_matrix(G, NodeSubset(ids, G.size))
        shuffled = reduced_google_matrix(G, NodeSubset(tuple(ids[i] for i in perm), G.size))
        reindexed = base.matrix[np.ix_(perm, perm)]
        assert np.max(np.abs(shuffled.matrix - reindexed)) < 1e-13

    def test_subset_from_other_space_rejected(self):
        G, _ = reduced_fixture()
        with pytest.raises(ValueError, match="different node space"):
            reduced_google_matrix(G, NodeSubset((0, 1), G.size + 1))

    def test_validate_rejects_cooked_matrices(self):
        subset = NodeSubset((0, 1), 4)
        negative = ReducedGoogleMatrix(np.array([[1.2, 0.5], [-0.2, 0.5]]), subset, "direct")
        with pytest.raises(ValueError, match="non-negative"):
            negative.validate()
        lossy = ReducedGoogleMatrix(np.array([[0.4, 0.5], [0.4, 0.5]]), subset, "direct")
        with pytest.raises(ValueError, match="sum to 1"):
            lossy.validate()

    @pytest.mark.parametrize("direction", ["direct", "inverted"])
    def test_complement_solved_against_its_product_slots(self, direction, monkeypatch):
        # 4 countries x 10 products: a column per slot (4 kept nodes in each
        # product) plus the two of U, not one per kept node (|r| + 2 = 42);
        # REGOMAX holds its own reference to the helper
        money = synthetic_money(SyntheticSpec(seed=7, n_countries=30, n_products=10, density=0.3))
        G = build_google(money, direction)
        subset, _ = subset_from_countries(G, money.registry.codes[:4])
        shapes = []

        def recording(S, alpha, rhs, nodes):
            shapes.append(rhs.shape)
            return _solve_links(S, alpha, rhs, nodes)

        monkeypatch.setattr(regomax, "_solve_links", recording)
        GR = reduced_google_matrix(G, subset)
        assert shapes == [(G.size - 40, 4 + 2)]
        assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < 1e-10

    @pytest.mark.parametrize("direction", ["direct", "inverted"])
    def test_peak_memory_in_dense_blocks(self, direction):
        # the traced rise above the inputs, in units of one dense product block of
        # the complement plus the |s| x (k + 2) right-hand side, k = 4 kept nodes
        # a product. It measures about 1.80: assembling a complement block sets
        # it (the block, its flat index and its scaled links), just above the
        # S_rr gather after the solve (1.77).
        money = synthetic_money(SyntheticSpec(seed=7, n_countries=120, n_products=10, density=0.3))
        G = build_google(money, direction)
        subset, _ = subset_from_countries(G, money.registry.codes[:4])
        n_s = G.size - subset.n_kept
        unit = 8 * ((money.n_countries - 4) ** 2 + n_s * (4 + 2))
        tracemalloc.start()
        try:
            reduced_google_matrix(G, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / unit < 2.1


class TestCapacitanceCondition:
    """The closed-form 2-norm condition number against the SVD's, up to rounding of about eps * cond."""

    def test_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            C = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-5, 5)
            assert _cond2(C) == pytest.approx(np.linalg.cond(C, 2), rel=1e-9, abs=0)

    @pytest.mark.parametrize("exponent", range(1, 7))
    def test_ill_conditioned_matrices(self, exponent):
        # up to 1e6, past the 4.5e5 (= REDUCED_SUM_TOL / eps) at which the guard trips
        rng = np.random.default_rng(exponent)
        for _ in range(200):
            left, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            right, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            C = left @ np.diag([1.0, 10.0**-exponent]) @ right * 10.0 ** rng.uniform(-3, 3)
            assert _cond2(C) == pytest.approx(np.linalg.cond(C, 2), rel=1e-9, abs=0)
        for C in (np.diag([3.0, 3e-15]), np.array([[1e-12, 0.0], [0.0, -2.0]]), np.eye(2) - 0.25):
            assert _cond2(C) == pytest.approx(np.linalg.cond(C, 2), rel=1e-9, abs=0)

    def test_exactly_singular_is_infinite(self):
        for C in ([[1.0, 2.0], [2.0, 4.0]], [[0.0, 3.0], [0.0, 5.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]):
            assert _cond2(np.array(C)) == np.inf

class TestSubsetFromCountries:
    def test_country_major_ids_and_labels(self, small_money):
        G = build_google(small_money)
        subset, labels = subset_from_countries(G, ["C003", "C000"])
        n_c = G.space.n_countries
        # node_id = p * n_countries + c, listed product-by-product per country
        assert subset.node_ids == (3, n_c + 3, 0, n_c + 0)
        assert labels == ("C003_0", "C003_1", "C000_0", "C000_1")

    def test_unknown_country_rejected(self, small_money):
        G = build_google(small_money)
        with pytest.raises(UnknownCountryError, match="ZZZ"):
            subset_from_countries(G, ["C000", "ZZZ"])

    def test_repeated_country_named(self, small_money):
        G = build_google(small_money)
        with pytest.raises(ValueError, match="subset names C000, C002 more than once"):
            subset_from_countries(G, ["C002", "C000", "C001", "C000", "C002"])


class TestFriendsNetwork:
    def fixture(self):
        G, subset = reduced_fixture(seed=6, kept=5)
        return reduced_google_matrix(G, subset)

    def test_exactly_k_edges_per_source(self):
        GR = self.fixture()
        for k in (1, 2, GR.n - 1):
            net = friends_network(GR, k=k)
            assert len(net.edges) == k * GR.n
            sources = [s for s, _, _ in net.edges]
            assert all(sources.count(i) == k for i in range(GR.n))

    def test_k_one_picks_largest_offdiagonal_column_entry(self):
        GR = self.fixture()
        for source, target, weight in friends_network(GR, k=1).edges:
            column = GR.matrix[:, source].copy()
            column[source] = -np.inf
            assert target == int(np.argmax(column))
            assert weight == pytest.approx(GR.matrix[target, source], abs=0)

    def test_full_k_lists_every_offdiagonal_pair(self):
        GR = self.fixture()
        net = friends_network(GR, k=GR.n - 1)
        pairs = {(s, t) for s, t, _ in net.edges}
        assert pairs == {(s, t) for s in range(GR.n) for t in range(GR.n) if s != t}

    def test_weights_sorted_descending_per_source(self):
        GR = self.fixture()
        net = friends_network(GR, k=3)
        for source in range(GR.n):
            weights = [w for s, _, w in net.edges if s == source]
            assert weights == sorted(weights, reverse=True)

    def test_ties_break_by_ascending_index(self):
        matrix = np.full((3, 3), 1.0 / 3.0)
        GR = ReducedGoogleMatrix(matrix, NodeSubset((0, 1, 2), 4), "direct")
        net = friends_network(GR, k=2)
        assert net.edges[:2] == ((0, 1, 1.0 / 3.0), (0, 2, 1.0 / 3.0))
        assert net.edges[2:4] == ((1, 0, 1.0 / 3.0), (1, 2, 1.0 / 3.0))

    def test_exact_ties_match_a_sort_by_weight_then_index(self):
        # weights drawn from four values, so most rows and columns tie off the diagonal
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 9, size=40):
            matrix = rng.choice([0.0, 0.125, 0.25, 0.5], size=(n, n))
            GR = ReducedGoogleMatrix(matrix, NodeSubset(tuple(range(n)), n + 1), "direct")
            for mode in FRIEND_MODES:
                weights = matrix if mode == "column" else matrix.T
                for k in range(1, n):
                    expected = tuple(
                        (source, target, float(weights[target, source]))
                        for source in range(n)
                        for target in sorted(set(range(n)) - {source}, key=lambda i: (-weights[i, source], i))[:k]
                    )
                    edges = friends_network(GR, k=k, mode=mode).edges
                    assert edges == expected
                    assert all(type(s) is int and type(t) is int and type(w) is float for s, t, w in edges)

    def test_row_mode_transposes_the_reading(self):
        GR = self.fixture()
        transposed = ReducedGoogleMatrix(GR.matrix.T.copy(), GR.subset, GR.direction)
        assert friends_network(GR, k=2, mode="row").edges == friends_network(transposed, k=2).edges

    def test_k_out_of_range(self):
        GR = self.fixture()
        with pytest.raises(ValueError, match="k must lie"):
            friends_network(GR, k=0)
        with pytest.raises(ValueError, match="k must lie"):
            friends_network(GR, k=GR.n)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            friends_network(self.fixture(), mode="diagonal")


class TestExports:
    def test_reduced_matrix_roundtrip(self, tmp_path):
        G, subset = reduced_fixture(seed=8, kept=3)
        GR = reduced_google_matrix(G, subset)
        labels = tuple(f"n{i}" for i in range(GR.n))
        path = write_reduced_matrix(GR, labels, tmp_path / "gr.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n0,n1,n2"
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, GR.matrix)

    def test_reduced_matrix_label_count_checked(self, tmp_path):
        G, subset = reduced_fixture(kept=3)
        GR = reduced_google_matrix(G, subset)
        with pytest.raises(ValueError, match="one label per kept node"):
            write_reduced_matrix(GR, ("a", "b"), tmp_path / "gr.csv")

    def test_edge_list_roundtrip(self, tmp_path):
        G, subset = reduced_fixture(seed=9, kept=4)
        GR = reduced_google_matrix(G, subset)
        net = friends_network(GR, k=2)
        labels = tuple(f"n{i}" for i in range(GR.n))
        path = write_edge_list(net, labels, tmp_path / "friends.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "source,target,weight"
        assert len(lines) == 1 + len(net.edges)
        for line, (s, t, w) in zip(lines[1:], net.edges):
            assert line == f"n{s},n{t},{w!r}"

    def test_edge_list_missing_label_rejected(self, tmp_path):
        G, subset = reduced_fixture(kept=4)
        net = friends_network(reduced_google_matrix(G, subset), k=1)
        with pytest.raises(ValueError, match="without a label"):
            write_edge_list(net, ("only", "three", "labels"), tmp_path / "friends.csv")

    def test_deterministic_bytes(self, tmp_path):
        G, subset = reduced_fixture(seed=10, kept=3)
        GR = reduced_google_matrix(G, subset)
        labels = ("a", "b", "c")
        first = write_reduced_matrix(GR, labels, tmp_path / "one.csv").read_bytes()
        second = write_reduced_matrix(GR, labels, tmp_path / "two.csv").read_bytes()
        assert first == second
