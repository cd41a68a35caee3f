"""Exact rank solves, rank indexes, aggregation and volume ranks."""

import numpy as np
import pytest

from wtnrank import (
    ProbabilityVector,
    aggregate_country,
    aggregate_product,
    build_google,
    build_rank_table,
    gma_country_probabilities,
    iea_country_probabilities,
    order_indexes,
    pagerank,
    volume_probabilities,
)
from wtnrank.ranks import rank_plane_points, write_rank_table, write_top_table
from wtnrank.testkit import SyntheticSpec, dense_pagerank_oracle, synthetic_money

from conftest import money_from_dense
from test_gmatrix import uniform_google


def two_cycle_money():
    dense = np.zeros((1, 2, 2))
    dense[0, 0, 1] = 5.0
    dense[0, 1, 0] = 5.0
    return money_from_dense(dense)


class TestPagerank:
    def test_uniform_fixed_point_after_one_iteration(self):
        G = uniform_google()
        P, report = pagerank(G)
        assert report.iterations == 1 and report.converged
        assert np.allclose(P.values, 1.0 / G.size, atol=1e-16, rtol=0)

    def test_two_node_cycle(self):
        G = build_google(two_cycle_money())
        P, report = pagerank(G)
        assert report.converged
        assert np.allclose(P.values, [0.5, 0.5], atol=1e-15, rtol=0)

    def test_matches_dense_oracle(self):
        for seed in range(10):
            money = synthetic_money(SyntheticSpec(seed=seed, n_countries=7, n_products=3))
            for direction in ("direct", "inverted"):
                G = build_google(money, direction)
                P, report = pagerank(G)
                assert report.converged
                assert np.abs(P.values - dense_pagerank_oracle(G)).sum() < 1e-10

    def test_iteration_budget_at_default_tolerance(self, small_money):
        G = build_google(small_money)
        _, report = pagerank(G, tol=1e-12)
        assert report.iterations <= 45

    def test_residual_contracts_by_alpha(self, small_money):
        # the L1 step size must shrink at least by the damping factor
        G = build_google(small_money, alpha=0.5)
        x = np.full(G.size, 1.0 / G.size)
        previous = None
        for _ in range(12):
            nxt = G.apply(x)
            nxt /= nxt.sum()
            residual = np.abs(nxt - x).sum()
            if previous is not None and previous > 1e-13:
                assert residual <= 0.5 * previous + 1e-15
            previous = residual
            x = nxt

    def test_non_convergence_reported(self, small_money):
        # the solve leaves a rounding residual here; a tol that does not exceed it is not met
        G = build_google(small_money)
        _, met = pagerank(G)
        assert met.converged and met.residual > 0.0
        P, report = pagerank(G, tol=met.residual)
        assert not report.converged
        assert report.iterations == 1 and report.residual == met.residual
        P.validate()

    def test_parameter_validation(self, small_money):
        G = build_google(small_money)
        for tol in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                pagerank(G, tol=tol)
        # there is no iteration cap to set
        with pytest.raises(TypeError):
            pagerank(G, max_iter=1000)

    def test_kind_follows_direction(self, small_money):
        P, _ = pagerank(build_google(small_money, "direct"))
        Pstar, _ = pagerank(build_google(small_money, "inverted"))
        assert P.kind == "pagerank" and Pstar.kind == "cheirank"

    def test_node_keys_are_built_once_per_tensor(self, small_money):
        P, _ = pagerank(build_google(small_money, "direct"))
        Pstar, _ = pagerank(build_google(small_money, "inverted", personalization="volume-by-country"))
        p_hat, p_hat_star = volume_probabilities(small_money)
        assert P.keys is Pstar.keys is p_hat.keys is p_hat_star.keys
        assert P.keys == tuple((code, p) for p in range(2) for code in small_money.registry.codes)


class TestOrderIndexes:
    def test_descending(self):
        P = ProbabilityVector(np.array([0.5, 0.3, 0.2]), "pagerank", "country", ("A", "B", "C"))
        order = order_indexes(P)
        assert list(order.rank_of) == [1, 2, 3]

    def test_tie_breaks_by_code(self):
        P = ProbabilityVector(
            np.array([0.4, 0.4, 0.2]), "pagerank", "country", ("FRA", "CHN", "USA")
        )
        order = order_indexes(P)
        assert list(order.order) == [1, 0, 2]  # CHN before FRA on equal probability
        assert list(order.rank_of) == [2, 1, 3]

    def test_permutation(self, small_money):
        P, _ = pagerank(build_google(small_money))
        order = order_indexes(P)
        assert sorted(order.rank_of) == list(range(1, len(P.values) + 1))


class TestAggregation:
    def test_single_product_identity(self):
        dense = np.zeros((1, 3, 3))
        dense[0, 1, 0] = 2.0
        dense[0, 0, 2] = 3.0
        P, _ = pagerank(build_google(money_from_dense(dense)))
        assert np.array_equal(aggregate_country(P).values, P.values)

    def test_uniform(self):
        G = uniform_google(n_countries=3, n_products=2)
        P, _ = pagerank(G)
        assert np.allclose(aggregate_country(P).values, 1.0 / 3.0, atol=1e-15, rtol=0)
        assert np.allclose(aggregate_product(P).values, 1.0 / 2.0, atol=1e-15, rtol=0)

    def test_hand_sums(self):
        space_keys = (("C000", 0), ("C001", 0), ("C000", 1), ("C001", 1))
        from wtnrank import NodeSpace

        P = ProbabilityVector(
            np.array([0.1, 0.2, 0.3, 0.4]), "pagerank", "node", space_keys, NodeSpace(2, 2)
        )
        assert np.allclose(aggregate_country(P).values, [0.4, 0.6], atol=1e-15, rtol=0)
        assert np.allclose(aggregate_product(P).values, [0.3, 0.7], atol=1e-15, rtol=0)

    def test_conservation(self, small_money):
        P, _ = pagerank(build_google(small_money))
        assert abs(aggregate_country(P).values.sum() - P.values.sum()) < 1e-15
        assert abs(aggregate_product(P).values.sum() - P.values.sum()) < 1e-15

    def test_country_level_input_rejected(self, small_money):
        P, _ = pagerank(build_google(small_money))
        with pytest.raises(ValueError):
            aggregate_country(aggregate_country(P))


class TestVolumeProbabilities:
    def test_single_flow(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 1, 0] = 10.0  # C000 exports to C001
        p_hat, p_hat_star = volume_probabilities(money_from_dense(dense))
        assert np.array_equal(p_hat.values, [0.0, 1.0])
        assert np.array_equal(p_hat_star.values, [1.0, 0.0])

    def test_symmetric_trade(self):
        p_hat, p_hat_star = volume_probabilities(two_cycle_money())
        assert np.array_equal(p_hat.values, p_hat_star.values)

    def test_sums_to_one(self, small_money):
        p_hat, p_hat_star = volume_probabilities(small_money)
        p_hat.validate()
        p_hat_star.validate()

    def test_ordering_matches_raw_volumes(self, small_money):
        p_hat, p_hat_star = volume_probabilities(small_money)
        dense = small_money.to_dense()
        codes = small_money.registry.codes
        for vec, raw in (
            (aggregate_country(p_hat), dense.sum(axis=(0, 2))),
            (aggregate_country(p_hat_star), dense.sum(axis=(0, 1))),
        ):
            by_prob = sorted(range(len(codes)), key=lambda i: (-vec.values[i], codes[i]))
            by_raw = sorted(range(len(codes)), key=lambda i: (-raw[i], codes[i]))
            assert by_prob == by_raw


class TestRankTable:
    @pytest.fixture
    def table(self, small_money):
        p_c, pstar_c, _ = gma_country_probabilities(small_money)
        phat_c, phatstar_c = iea_country_probabilities(small_money)
        return build_rank_table(p_c, pstar_c, phat_c, phatstar_c)

    def test_index_columns_are_permutations(self, table):
        n = len(table.codes)
        for column in (table.K, table.Kstar, table.Khat, table.Khatstar):
            assert sorted(column) == list(range(1, n + 1))

    def test_probability_monotone_along_index(self, table):
        for values, ranks in ((table.P, table.K), (table.Pstar, table.Kstar)):
            by_rank = values[np.argsort(ranks)]
            assert np.all(np.diff(by_rank) <= 0)

    def test_top(self, table):
        top2 = table.top("K", 2)
        assert len(top2) == 2
        assert table.K[table.codes.index(top2[0])] == 1

    def test_write_rank_table(self, table, tmp_path):
        path = write_rank_table(table, tmp_path / "table.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "entity,P,Pstar,K,Kstar,Phat,Phatstar,Khat,Khatstar"
        assert len(lines) == 1 + len(table.codes)
        # rows come out in PageRank order and round-trip as floats
        ks = [int(line.split(",")[3]) for line in lines[1:]]
        assert ks == list(range(1, len(table.codes) + 1))
        first = lines[1].split(",")
        assert float(first[1]) == table.P[table.codes.index(first[0])]

    def test_write_top_table_row_count(self, table, tmp_path):
        path = write_top_table(table, tmp_path / "top.csv", count=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,pagerank,cheirank,importrank,exportrank"
        assert len(lines) == 4

    def test_rank_plane_points_cutoff(self, table):
        n = len(table.codes)
        everything = rank_plane_points(table, "google", cutoff=n + 1)
        assert len(everything) == n
        clipped = rank_plane_points(table, "google", cutoff=3)
        assert all(kx < 3 and ky < 3 for _, kx, ky in clipped)
        with pytest.raises(ValueError):
            rank_plane_points(table, "nonsense")

    def test_mismatched_keys_rejected(self, small_money):
        p_c, pstar_c, _ = gma_country_probabilities(small_money)
        shuffled = ProbabilityVector(
            pstar_c.values, pstar_c.kind, "country", tuple(reversed(pstar_c.keys))
        )
        with pytest.raises(ValueError):
            build_rank_table(p_c, shuffled, p_c, p_c)
