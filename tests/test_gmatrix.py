"""Stochastic-matrix construction, personalization, damped operator."""

import dataclasses
import math

import numpy as np
import pytest

from wtnrank import (
    GoogleMatrix,
    MoneyMatrix,
    PersonalizationVector,
    StochasticMatrix,
    build_google,
    build_personalization,
    build_stochastic,
    pagerank,
    write_matrix_dump,
)
from wtnrank.errors import EmptyNetworkError
from wtnrank.gmatrix import _solve_links
from wtnrank.testkit import (
    SyntheticSpec,
    dense_links,
    densify,
    synthetic_money,
    synthetic_registry,
    transposed,
)

from conftest import money_from_dense


def uniform_google(n_countries=3, n_products=2, alpha=0.5):
    """All-dangling S: the implied G is exactly uniform 1/N."""
    n = n_countries * n_products
    S = StochasticMatrix(
        np.zeros(n_products + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0),
        np.ones(n, dtype=bool),
        synthetic_registry(n_countries),
        "direct",
    )
    v = PersonalizationVector(np.full(n, 1.0 / n), "uniform-by-product")
    return GoogleMatrix(S, v, alpha)


class TestBuildStochastic:
    def test_single_link(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 1, 0] = 7.0  # AAA exports 7 to BBB
        S = build_stochastic(money_from_dense(dense), "direct")
        assert dense_links(S)[1, 0] == 1.0
        assert S.column_sums()[0] == 1.0
        assert not S.dangling[0] and S.dangling[1]

    def test_single_link_inverted(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 1, 0] = 7.0
        S = build_stochastic(money_from_dense(dense), "inverted")
        assert dense_links(S)[0, 1] == 1.0
        assert S.dangling[0] and not S.dangling[1]

    def test_proportional_normalization(self):
        dense = np.zeros((1, 3, 3))
        dense[0, 1, 0] = 3.0
        dense[0, 2, 0] = 1.0
        S = build_stochastic(money_from_dense(dense), "direct")
        links = dense_links(S)
        assert links[1, 0] == 0.75
        assert links[2, 0] == 0.25

    def test_all_zero_money(self):
        registry = synthetic_registry(2)
        with pytest.raises(EmptyNetworkError):
            build_stochastic(MoneyMatrix.from_dense(np.zeros((1, 2, 2)), registry, 2018), "direct")

    def test_block_diagonal_over_products(self, small_money):
        S = build_stochastic(small_money, "direct")
        nc = small_money.n_countries
        dense = dense_links(S)
        for p_row in range(small_money.n_products):
            for p_col in range(small_money.n_products):
                if p_row == p_col:
                    continue
                block = dense[p_row * nc:(p_row + 1) * nc, p_col * nc:(p_col + 1) * nc]
                assert not block.any()

    def test_direction_duality(self, small_money):
        inverted = build_stochastic(small_money, "inverted")
        direct_of_transposed = build_stochastic(transposed(small_money), "direct")

        def entries(S):
            order = np.lexsort((S.col, S.row))
            return S.row[order], S.col[order], S.value[order]

        for ours, theirs in zip(entries(inverted), entries(direct_of_transposed)):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(inverted.blocks, direct_of_transposed.blocks)
        assert np.array_equal(inverted.dangling, direct_of_transposed.dangling)

    def test_directions_hold_the_tensor_node_arrays(self, small_money):
        importer, exporter = small_money.nodes
        direct, inverted = (build_stochastic(small_money, d) for d in ("direct", "inverted"))
        assert direct.row is importer and direct.col is exporter
        assert inverted.row is exporter and inverted.col is importer
        flipped = transposed(small_money)
        assert build_stochastic(flipped, "direct").row is flipped.nodes[0] is not exporter

    def test_validate_passes_on_fixtures(self):
        for seed in range(5):
            money = synthetic_money(SyntheticSpec(seed=seed, n_countries=6, n_products=3))
            for direction in ("direct", "inverted"):
                build_stochastic(money, direction).validate()

    @pytest.mark.parametrize(
        "column0, column1, dangling, message",
        [
            ([0.0, 1.0], [1.5, -0.5], [False, False], "negative transition weight"),
            ([0.0, 1.0], [1.0, 0.0], [False, True], "dangling columns must hold no explicit entries"),
            ([0.0, 0.9], [1.0, 0.0], [False, False], "non-dangling column sums deviate from 1"),
        ],
        ids=["negative-weight", "dangling-with-entry", "column-sum"],
    )
    def test_validate_rejections(self, column0, column1, dangling, message):
        columns = np.array([column0, column1])
        col, row = np.nonzero(columns)
        S = StochasticMatrix(
            np.array([0, len(row)]), row, col, columns[col, row], np.array(dangling),
            synthetic_registry(2), "direct",
        )
        with pytest.raises(ValueError, match=message):
            S.validate()

    def test_size_is_countries_times_product_blocks(self, small_money):
        S = build_stochastic(small_money, "direct")
        assert S.size == S.registry.n * (len(S.blocks) - 1) == small_money.n_countries * small_money.n_products
        with pytest.raises(ValueError, match="blocks\\[-1\\] long"):
            dataclasses.replace(S, blocks=S.blocks[:-1])

    def test_total_inside_the_float64_headroom_builds_finite_operators(self):
        # one exporter's two flows make a column sum and a node volume of T; the uniform teleport forms n T
        n = 3
        dense = np.zeros((2, n, n))
        dense[0, 1, 0] = dense[0, 2, 0] = 0.999 * np.finfo(float).max / (2 * n) / 2
        money = money_from_dense(dense)
        for direction in ("direct", "inverted"):
            for mode in ("uniform-by-product", "volume-by-country"):
                G = build_google(money, direction, personalization=mode)
                P, report = pagerank(G)
                assert np.isfinite(G.v.values).all() and report.converged and np.isfinite(P.values).all()
        with pytest.raises(ValueError, match=f"total flow .* over {n} countries is past the float64 headroom"):
            money_from_dense(2.0 * dense)


class TestPersonalization:
    def test_single_product_uniform(self):
        dense = np.zeros((1, 3, 3))
        dense[0, 1, 0] = 5.0
        v = build_personalization(money_from_dense(dense))
        assert np.allclose(v.values, 1.0 / 3.0, atol=0, rtol=0)

    def test_product_weights(self):
        # volumes 75 and 25 over 2 countries -> (0.375, 0.375, 0.125, 0.125)
        dense = np.zeros((2, 2, 2))
        dense[0, 1, 0] = 75.0
        dense[1, 0, 1] = 25.0
        v = build_personalization(money_from_dense(dense))
        assert np.array_equal(v.values, [0.375, 0.375, 0.125, 0.125])

    def test_zero_volume_product(self):
        dense = np.zeros((2, 2, 2))
        dense[0, 1, 0] = 10.0
        v = build_personalization(money_from_dense(dense))
        assert np.array_equal(v.values[2:], [0.0, 0.0])
        assert v.values.sum() == 1.0

    def test_zero_total_volume(self):
        registry = synthetic_registry(2)
        with pytest.raises(EmptyNetworkError):
            build_personalization(MoneyMatrix.from_dense(np.zeros((1, 2, 2)), registry, 2018))

    def test_volume_by_country_mode(self, small_money):
        v = build_personalization(small_money, "volume-by-country")
        v.validate()
        dense = small_money.to_dense()
        total = dense.sum()
        nc = small_money.n_countries
        # per product block: share of product volume, split by country turnover
        for p in range(small_money.n_products):
            w = dense[p].sum(axis=1) + dense[p].sum(axis=0)
            expected = (dense[p].sum() / total) * w / w.sum()
            assert np.allclose(v.values[p * nc:(p + 1) * nc], expected, atol=1e-15)

    def test_direction_independence(self, small_money):
        direct = build_google(small_money, "direct")
        inverted = build_google(small_money, "inverted")
        assert np.array_equal(direct.v.values, inverted.v.values)


class TestMakeGoogle:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, -0.2, math.nan])
    def test_alpha_open_interval(self, small_money, alpha):
        S = build_stochastic(small_money, "direct")
        v = build_personalization(small_money)
        with pytest.raises(ValueError, match="damping alpha must lie in"):
            GoogleMatrix(S, v, alpha)
        # a replace() is checked too: pagerank would otherwise report convergence, or residual nan, for any alpha
        with pytest.raises(ValueError, match="damping alpha must lie in"):
            dataclasses.replace(GoogleMatrix(S, v, 0.5), alpha=alpha)

    def test_personalization_of_another_length(self, small_money):
        G = build_google(small_money)
        v = PersonalizationVector(np.full(G.size + 1, 1.0 / (G.size + 1)), G.v.mode)
        for build in (lambda: GoogleMatrix(G.S, v, G.alpha), lambda: dataclasses.replace(G, v=v)):
            with pytest.raises(ValueError, match="personalization length does not match the node count"):
                build()

    def test_column_sums_via_basis_vectors(self, small_money):
        G = build_google(small_money)
        n = G.size
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            assert abs(G.apply(e).sum() - 1.0) < 1e-12

    def test_uniform_everything_gives_uniform_matrix(self):
        G = uniform_google()
        n = G.size
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            assert np.allclose(G.apply(e), 1.0 / n, atol=1e-16, rtol=0)


class TestApply:
    def test_zero_vector(self, small_money):
        G = build_google(small_money)
        assert np.array_equal(G.apply(np.zeros(G.size)), np.zeros(G.size))

    def test_uniform_s_on_v(self):
        G = uniform_google(alpha=0.5)
        n = G.size
        result = G.apply(G.v.values)
        assert np.allclose(result, 0.5 / n + 0.5 * G.v.values, atol=1e-16, rtol=0)

    def test_mass_preservation(self, small_money):
        G = build_google(small_money)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.random(G.size)
            assert abs(G.apply(x).sum() - x.sum()) < 1e-12

    def test_dimension_mismatch(self, small_money):
        G = build_google(small_money)
        with pytest.raises(ValueError):
            G.apply(np.ones(G.size + 1))

    def test_matches_independent_dense_operator(self, small_money):
        G = build_google(small_money)
        dense = densify(G)
        rng = np.random.default_rng(1)
        x = rng.random(G.size)
        assert np.abs(G.apply(x) - dense @ x).max() < 1e-14


class TestFrozenOperators:
    """A solved operator cannot change under its cached solves; a varied one is a new operator."""

    @pytest.mark.parametrize("owner, name", [("G", "alpha"), ("G", "v"), ("S", "value"), ("S", "dangling")])
    def test_fields_cannot_be_reassigned(self, small_money, owner, name):
        G = build_google(small_money)
        pagerank(G)
        target = G if owner == "G" else G.S
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, getattr(target, name))

    @pytest.mark.parametrize("owner, name", [("S", "value"), ("S", "dangling"), ("v", "values")])
    def test_arrays_are_read_only(self, small_money, owner, name):
        G = build_google(small_money)
        array = getattr(getattr(G, owner), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]

    def test_replace_solves_afresh(self, small_money):
        G = build_google(small_money)
        pagerank(G)
        P, report = pagerank(dataclasses.replace(G, alpha=0.85))
        expected, _ = pagerank(build_google(small_money, alpha=0.85))
        assert report.converged and np.array_equal(P.values, expected.values)


class TestBlockSolves:
    @pytest.mark.parametrize("alpha", [0.5, 0.15, 0.85, 1.0 / 3.0])
    def test_identity_minus_has_the_bits_of_eye_minus_scaled_links(self, alpha, monkeypatch):
        # each block handed to np.linalg.solve, against the dense links: zero links on and off the
        # diagonal, a dangling column (C003 exports nothing of product 0) and C001 left out of the solve
        rng = np.random.default_rng(3)
        dense = rng.random((2, 6, 6)) * (rng.random((2, 6, 6)) < 0.6)
        dense[:, np.arange(6), np.arange(6)] = 0.0
        dense[0, :, 3] = 0.0
        S = build_stochastic(money_from_dense(dense))
        assert S.dangling[3]
        nodes = np.flatnonzero(np.arange(S.size) % 6 != 1)
        blocks, solve = [], np.linalg.solve

        def recording(a, b):
            blocks.append(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        _solve_links(S, alpha, np.ones((len(nodes), 1)), nodes)
        assert len(blocks) == 2
        for built, block in zip(blocks, np.split(nodes, 2)):
            links = dense_links(S)[np.ix_(block, block)]
            expected = np.eye(len(block)) - alpha * links
            assert np.array_equal(built.view(np.int64), expected.view(np.int64))
            assert np.array_equal(np.signbit(built), np.signbit(expected))
            assert not np.signbit(built[links == 0]).any()   # +0.0, not -0.0

    def test_solve_links_overwrites_the_right_hand_side(self, small_money):
        G = build_google(small_money)
        n = small_money.n_countries
        nodes = np.flatnonzero(np.arange(G.size) % n != 1)   # one country left out of every block
        rhs = np.random.default_rng(4).random((len(nodes), 3))
        expected = rhs.copy()
        for p in range(small_money.n_products):
            rows = slice(p * (n - 1), (p + 1) * (n - 1))
            links = dense_links(G.S)[np.ix_(nodes[rows], nodes[rows])]
            expected[rows] = np.linalg.solve(np.eye(n - 1) - G.alpha * links, expected[rows])
        assert _solve_links(G.S, G.alpha, rhs, nodes) is rhs
        assert np.array_equal(rhs, expected)


class TestMatrixDump:
    def test_roundtrip(self, small_money, tmp_path):
        G = build_google(small_money)
        path, sidecar = write_matrix_dump(G, tmp_path / "gm.csv")
        n = G.size

        rows = path.read_text().splitlines()
        assert rows[0] == "row,col,value"
        rebuilt_links = np.zeros((n, n))
        for line in rows[1:]:
            r, c, value = line.split(",")
            rebuilt_links[int(r), int(c)] = float(value)

        meta = dict(line.split("=", 1) for line in sidecar.read_text().splitlines())
        alpha = float(meta["alpha"])
        dangling = [int(i) for i in meta["dangling"].split(",") if i]
        v = np.array([float(x) for x in meta["v"].split(",")])

        rebuilt_links[:, dangling] = 1.0 / n
        rebuilt = alpha * rebuilt_links + (1 - alpha) * np.outer(v, np.ones(n))
        assert np.abs(rebuilt - densify(G)).max() == 0.0

    def test_deterministic_bytes(self, small_money, tmp_path):
        G = build_google(small_money)
        a, a_meta = write_matrix_dump(G, tmp_path / "a.csv")
        b, b_meta = write_matrix_dump(G, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
        assert a_meta.read_bytes() == b_meta.read_bytes()
