"""Fixture generators and dense oracles must be trustworthy themselves."""

import numpy as np
import pytest

from wtnrank import NodeSubset, build_google, load_money_matrix, pagerank
from wtnrank.testkit import (
    SyntheticSpec,
    dense_google_from_money,
    dense_pagerank_oracle,
    dense_regomax_oracle,
    dense_stationary,
    densify,
    synthetic_money,
    synthetic_registry,
    write_trade_file,
)

from conftest import flows, money_from_dense


class TestSyntheticMoney:
    def test_same_spec_same_matrix(self):
        spec = SyntheticSpec(seed=11, n_countries=6, n_products=3)
        assert flows(synthetic_money(spec)) == flows(synthetic_money(spec))

    def test_different_seeds_differ(self):
        a = synthetic_money(SyntheticSpec(seed=0, n_countries=6, n_products=2))
        b = synthetic_money(SyntheticSpec(seed=1, n_countries=6, n_products=2))
        assert flows(a) != flows(b)

    def test_full_density_fills_every_offdiagonal_cell(self):
        money = synthetic_money(SyntheticSpec(seed=2, n_countries=4, n_products=2, density=1.0))
        dense = money.to_dense()
        for p in range(2):
            off = ~np.eye(4, dtype=bool)
            assert np.all(dense[p][off] > 0)
            assert np.all(np.diag(dense[p]) == 0)

    def test_density_too_low_rejected(self):
        with pytest.raises(ValueError, match="density too low"):
            synthetic_money(SyntheticSpec(seed=0, n_countries=3, n_products=1, density=0.01))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least 2 countries"):
            SyntheticSpec(seed=0, n_countries=1, n_products=1)
        with pytest.raises(ValueError, match="density"):
            SyntheticSpec(seed=0, n_countries=4, n_products=1, density=1.5)
        with pytest.raises(ValueError, match="value range"):
            SyntheticSpec(seed=0, n_countries=4, n_products=1, value_range=(5.0, 2.0))

    def test_values_respect_range(self):
        money = synthetic_money(
            SyntheticSpec(seed=3, n_countries=5, n_products=2, value_range=(10.0, 20.0))
        )
        values = money.value.tolist()
        assert values and all(10.0 <= v <= 20.0 for v in values)

    def test_registry_codes(self):
        registry = synthetic_registry(3)
        assert registry.codes == ("C000", "C001", "C002")


class TestDenseGoogleOracle:
    def test_matches_production_builder(self):
        for personalization in ("uniform-by-product", "volume-by-country"):
            money = synthetic_money(SyntheticSpec(seed=4, n_countries=6, n_products=3))
            G = build_google(money, personalization=personalization)
            dense = dense_google_from_money(money, personalization=personalization)
            assert np.max(np.abs(densify(G) - dense)) < 1e-14

    def test_columns_sum_to_one(self):
        money = synthetic_money(SyntheticSpec(seed=5, n_countries=5, n_products=2))
        dense = dense_google_from_money(money)
        assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-12, rtol=0)


class TestStationaryOracles:
    def test_stationary_of_densified_matches_linear_solve(self):
        money = synthetic_money(SyntheticSpec(seed=6, n_countries=7, n_products=2))
        G = build_google(money)
        assert np.max(np.abs(dense_stationary(densify(G)) - dense_pagerank_oracle(G))) < 1e-12

    def test_two_node_cycle_splits_evenly(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 5.0
        dense[0, 1, 0] = 5.0
        G = build_google(money_from_dense(dense))
        assert np.allclose(dense_pagerank_oracle(G), [0.5, 0.5], atol=1e-15, rtol=0)

    def test_oracle_agrees_with_power_iteration(self):
        money = synthetic_money(SyntheticSpec(seed=7, n_countries=6, n_products=3))
        G = build_google(money)
        P, _ = pagerank(G)
        assert np.abs(P.values - dense_pagerank_oracle(G)).sum() < 1e-10

    def test_pagerank_cap(self):
        money = synthetic_money(SyntheticSpec(seed=0, n_countries=50, n_products=45, density=0.05))
        G = build_google(money)
        with pytest.raises(ValueError, match="capped"):
            dense_pagerank_oracle(G)


class TestRegomaxOracle:
    def test_full_subset_is_pass_through(self):
        money = synthetic_money(SyntheticSpec(seed=8, n_countries=4, n_products=2))
        G = build_google(money)
        # the public constructor forbids a full cover, so bypass validation
        subset = object.__new__(NodeSubset)
        object.__setattr__(subset, "node_ids", tuple(range(G.size)))
        object.__setattr__(subset, "size_total", G.size)
        assert np.array_equal(dense_regomax_oracle(G, subset), densify(G))

    def test_oracle_columns_sum_to_one(self):
        money = synthetic_money(SyntheticSpec(seed=9, n_countries=5, n_products=2))
        G = build_google(money)
        GR = dense_regomax_oracle(G, NodeSubset((0, 3, 7), G.size))
        assert np.allclose(GR.sum(axis=0), 1.0, atol=1e-10, rtol=0)


class TestTradeFileRoundtrip:
    def test_load_reproduces_matrix_exactly(self, tmp_path):
        money = synthetic_money(SyntheticSpec(seed=12, n_countries=5, n_products=3))
        path = write_trade_file(money, tmp_path / "trade.csv")
        again = load_money_matrix(path, year=money.year)
        assert flows(again) == flows(money)
        assert again.registry.codes == money.registry.codes

    def test_deterministic_bytes(self, tmp_path):
        money = synthetic_money(SyntheticSpec(seed=13, n_countries=4, n_products=2))
        first = write_trade_file(money, tmp_path / "one.csv").read_bytes()
        second = write_trade_file(money, tmp_path / "two.csv").read_bytes()
        assert first == second

    def test_header_and_row_shape(self, tmp_path):
        dense = np.zeros((1, 2, 2))
        dense[0, 1, 0] = 7.5
        money = money_from_dense(dense)
        lines = write_trade_file(money, tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "year,exporter,importer,sitc,value_usd"
        assert lines[1] == "2018,C000,C001,0,7.5"
