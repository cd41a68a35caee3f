"""Trade balance, perturbations and sensitivity differencing."""

from dataclasses import replace

import numpy as np
import pytest

from wtnrank import (
    MoneyMatrix,
    ProbabilityVector,
    SensitivityConfig,
    balance_sensitivity,
    build_google,
    gma_balance,
    gma_country_probabilities,
    iea_balance,
    sensitivity_richardson,
    trade_balance,
)
from wtnrank import analysis
from wtnrank.analysis import write_balance, write_sensitivity
from wtnrank.errors import ConvergenceError
from wtnrank.gmatrix import DIRECTIONS
from wtnrank.testkit import SyntheticSpec, perturb_money, synthetic_money, synthetic_registry

from conftest import flows, indexes, money_from_dense


def country_vec(values, kind="pagerank"):
    codes = tuple(f"C{i:03d}" for i in range(len(values)))
    return ProbabilityVector(np.asarray(values, dtype=float), kind, "country", codes)


class TestTradeBalance:
    def test_equal_gives_zero(self):
        B = trade_balance(country_vec([0.25, 0.75]), country_vec([0.25, 0.75]), "gma")
        assert np.array_equal(B.values, [0.0, 0.0])

    def test_triple_gives_half(self):
        P = country_vec([0.1, 0.2])
        Pstar = country_vec([0.3, 0.6])
        B = trade_balance(P, Pstar, "gma")
        assert np.allclose(B.values, [0.5, 0.5], atol=1e-15, rtol=0)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.random(6)
            q = rng.random(6)
            B = trade_balance(country_vec(p / p.sum()), country_vec(q / q.sum()), "iea")
            assert np.all(np.abs(B.values) <= 1.0)

    def test_zero_denominator_marks_undefined(self):
        B = trade_balance(country_vec([0.0, 1.0]), country_vec([0.0, 1.0]), "gma")
        assert np.isnan(B.values[0]) and B.values[1] == 0.0
        assert B.undefined() == ("C000",)

    def test_zero_trade_country_is_undefined_in_both_sources(self):
        # C0->C1, C1->C2, C2->C0, C1->C0; C3 trades nothing, so under
        # volume-by-country it gets no teleport mass and no dangling mass reaches it
        dense = np.zeros((1, 4, 4))
        dense[0, 1, 0], dense[0, 2, 1], dense[0, 0, 2], dense[0, 0, 1] = 3.0, 2.0, 5.0, 4.0
        money = money_from_dense(dense)
        P, Pstar, _ = gma_country_probabilities(money, personalization="volume-by-country")
        assert P.values[3] == 0.0 and Pstar.values[3] == 0.0
        gma = gma_balance(money, personalization="volume-by-country")
        assert gma.undefined() == iea_balance(money).undefined() == ("C003",)

    def test_extreme_value_only_at_zero_side(self):
        B = trade_balance(country_vec([0.0, 0.5]), country_vec([0.5, 0.5]), "gma")
        assert B.values[0] == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trade_balance(country_vec([1.0]), country_vec([1.0]), "nonsense")
        with pytest.raises(ValueError):
            trade_balance(
                country_vec([1.0, 0.0]),
                ProbabilityVector(np.array([1.0]), "cheirank", "country", ("X",)),
                "gma",
            )

    def test_symmetric_fixture_balances_zero(self, symmetric_money):
        for B in (gma_balance(symmetric_money), iea_balance(symmetric_money)):
            assert np.abs(B.values).max() < 1e-10

    def test_sign_agreement_two_countries_one_product(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 30.0  # C001 only exports, C000 only imports
        money = money_from_dense(dense)
        gma = gma_balance(money)
        iea = iea_balance(money)
        assert np.all(np.sign(gma.values) == np.sign(iea.values))
        assert gma.values[1] > 0 > gma.values[0]

    def test_two_way_two_country_gma_balance_is_scale_blind(self):
        # column normalization erases flow magnitudes on a 2-node network,
        # so GMA balance is exactly 0 however lopsided the values are
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 30.0
        dense[0, 1, 0] = 10.0
        money = money_from_dense(dense)
        assert np.abs(gma_balance(money).values).max() < 1e-12
        assert iea_balance(money).values[1] == 0.5


def perturbed_as_expected(money, perturbed, factor, hit):
    """Same flows; values scaled by ``factor`` exactly where ``hit`` says so."""
    expected = [
        (p, imp, exp, value * factor if hit(p, imp, exp) else value) for p, imp, exp, value in flows(money)
    ]
    return flows(perturbed) == expected


class TestPerturbMoney:
    def test_zero_delta_identity(self, small_money):
        assert flows(perturb_money(small_money, 0, 0.0)) == flows(small_money)

    def test_global_slice_doubling(self, small_money):
        doubled = perturb_money(small_money, 1, 1.0)
        assert perturbed_as_expected(small_money, doubled, 2.0, lambda p, imp, exp: p == 1)

    def test_country_export_scaling(self, small_money):
        target = small_money.registry.codes[1]
        scaled = perturb_money(small_money, 0, 0.5, country=target)
        assert perturbed_as_expected(small_money, scaled, 1.5, lambda p, imp, exp: p == 0 and exp == 1)

    def test_country_import_scaling(self, small_money):
        target = small_money.registry.codes[1]
        scaled = perturb_money(small_money, 0, 0.5, country=target, side="import")
        assert perturbed_as_expected(small_money, scaled, 1.5, lambda p, imp, exp: p == 0 and imp == 1)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_non_finite_delta(self, small_money, delta):
        with pytest.raises(ValueError, match="finite"):
            perturb_money(small_money, 0, delta)

    def test_delta_floor(self, small_money):
        with pytest.raises(ValueError):
            perturb_money(small_money, 0, -1.0)

    def test_product_range(self, small_money):
        with pytest.raises(ValueError):
            perturb_money(small_money, small_money.n_products, 0.1)


class TestSensitivity:
    def test_zero_volume_slice_gives_zeros(self):
        dense = np.zeros((2, 3, 3))
        dense[0, 1, 0] = 10.0
        dense[0, 2, 1] = 5.0
        dense[0, 0, 2] = 2.0
        money = money_from_dense(dense)
        for source in ("gma", "iea"):
            sens = balance_sensitivity(money, SensitivityConfig(product=1, source=source))
            assert np.array_equal(sens.values, np.zeros(3))

    def test_single_product_global_perturbation_null(self):
        # dense enough that every country trades, so no balance is undefined
        money = synthetic_money(SyntheticSpec(seed=4, n_countries=6, n_products=1, density=0.8))
        for source in ("gma", "iea"):
            sens = balance_sensitivity(money, SensitivityConfig(product=0, source=source))
            assert not np.any(np.isnan(sens.values))
            assert np.abs(sens.values).max() < 1e-8

    @pytest.mark.parametrize("source", ["gma", "iea"])
    def test_richardson_ratio(self, source):
        money = synthetic_money(SyntheticSpec(seed=7, n_countries=8, n_products=3, density=0.4))
        # the global target, then one country's exports and imports of the slice
        targets = [(None, "export"), ("C003", "export"), ("C003", "import")]
        for country, side in targets:
            config = SensitivityConfig(product=1, country=country, side=side, source=source)
            result = sensitivity_richardson(money, config)
            mask = np.abs(result["d_h2"] - result["d_h4"]) > 1e-9
            assert mask.any(), (country, side)
            assert np.all((result["ratio"][mask] >= 3.0) & (result["ratio"][mask] <= 5.0)), (country, side)

    @pytest.mark.parametrize("source", ["gma", "iea"])
    @pytest.mark.parametrize("side", ["export", "import"])
    @pytest.mark.parametrize("global_target", [True, False])
    def test_richardson_d_h_is_balance_sensitivity(self, small_money, source, side, global_target):
        # entries are sorted by product, so the first entry trades product 0 both ways
        flows = indexes(small_money)[2 if side == "export" else 1]
        country = None if global_target else small_money.registry.codes[flows[0]]
        config = SensitivityConfig(product=0, country=country, source=source, side=side)
        result = sensitivity_richardson(small_money, config)
        sens = balance_sensitivity(small_money, config)
        assert np.array_equal(result["d_h"], sens.values, equal_nan=True)
        assert result["reports"] == sens.reports

    def test_reports_attached_for_gma(self, small_money):
        # a global target solves once per direction, with the slice's teleport block
        sens = balance_sensitivity(small_money, SensitivityConfig(product=0))
        assert len(sens.reports) == 2
        assert all(r.converged for r in sens.reports)
        # a country target solves the direct response once and re-solves the
        # inverted block at +h and at -h; entries are sorted by product, so
        # the first is an export of product 0
        code = small_money.registry.codes[indexes(small_money)[2][0]]
        sens = balance_sensitivity(small_money, SensitivityConfig(product=0, country=code))
        assert len(sens.reports) == 3
        assert all(r.converged for r in sens.reports)

    @pytest.mark.parametrize("product, country", [(1, None), (0, "C002")])
    def test_target_without_flows_solves_nothing(self, monkeypatch, product, country):
        dense = np.zeros((2, 3, 3))
        dense[0, 1, 0] = 10.0   # product 1 has no volume, C002 exports none of product 0
        dense[0, 0, 1] = 4.0
        money = money_from_dense(dense)
        monkeypatch.setattr(analysis, "pagerank", None)   # a solve would raise
        monkeypatch.setattr(analysis, "_stationary", None)
        for source in ("gma", "iea"):
            config = SensitivityConfig(product=product, country=country, source=source)
            sens = balance_sensitivity(money, config)
            assert np.array_equal(sens.values, np.zeros(3)) and sens.reports == ()

    def test_iea_has_no_solver_reports(self, small_money):
        sens = balance_sensitivity(small_money, SensitivityConfig(product=0, source="iea"))
        assert sens.reports == ()

    def test_non_convergence_escalates(self, small_money):
        # both solves of this fixture leave a rounding residual; a tol at the smaller is not met
        _, _, reports = gma_country_probabilities(small_money)
        residual = min(report.residual for report in reports)
        assert residual > 0.0
        config = SensitivityConfig(product=0, tol=residual)
        with pytest.raises(ConvergenceError) as err:
            balance_sensitivity(small_money, config)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.report.residual >= residual

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SensitivityConfig(product=0, step=0.0)
        with pytest.raises(ValueError):
            SensitivityConfig(product=0, source="raw")
        with pytest.raises(ValueError):
            SensitivityConfig(product=0, side="both")

    def test_operators_of_another_model_rejected(self, small_money):
        uniform = [build_google(small_money, d, 0.5, "uniform-by-product") for d in DIRECTIONS]
        config = SensitivityConfig(product=0, personalization="volume-by-country")
        # with the uniform teleport the responses would mix the two modes' answers
        with pytest.raises(ValueError, match=r"v.mode='uniform-by-product'.*personalization='volume-by-country'"):
            sensitivity_richardson(small_money, config, uniform)
        with pytest.raises(ValueError, match=r"alpha=0.5.*alpha=0.85"):
            gma_country_probabilities(small_money, alpha=0.85, operators=uniform)
        # operators of the requested model give the answer of none
        matching = replace(config, personalization="uniform-by-product")
        given = sensitivity_richardson(small_money, matching, uniform)
        assert np.array_equal(given["d_h"], sensitivity_richardson(small_money, matching)["d_h"])

    def test_country_target_differs_from_global(self, small_money):
        code = small_money.registry.codes[0]
        global_sens = balance_sensitivity(small_money, SensitivityConfig(product=0))
        country_sens = balance_sensitivity(
            small_money, SensitivityConfig(product=0, country=code)
        )
        assert not np.allclose(global_sens.values, country_sens.values)


class TestProbabilitySources:
    def test_gma_probabilities_normalized(self, small_money):
        p_c, pstar_c, reports = gma_country_probabilities(small_money)
        p_c.validate()
        pstar_c.validate()
        assert all(r.converged for r in reports)

    def test_personalization_mode_changes_result(self, small_money):
        default, _, _ = gma_country_probabilities(small_money)
        weighted, _, _ = gma_country_probabilities(
            small_money, personalization="volume-by-country"
        )
        assert not np.allclose(default.values, weighted.values)


class TestWriters:
    def test_balance_file(self, symmetric_money, tmp_path):
        gma = gma_balance(symmetric_money)
        iea = iea_balance(symmetric_money)
        path = write_balance(tmp_path / "balance.csv", gma, iea)
        lines = path.read_text().splitlines()
        assert lines[0] == "country,B_gma,B_iea"
        assert len(lines) == 3
        code, b_gma, b_iea = lines[1].split(",")
        assert code == "C000"
        assert abs(float(b_gma)) < 1e-10 and abs(float(b_iea)) < 1e-10

    def test_balance_file_requires_both_sources(self, symmetric_money, tmp_path):
        gma = gma_balance(symmetric_money)
        with pytest.raises(ValueError):
            write_balance(tmp_path / "balance.csv", gma, gma)

    def test_nan_is_rendered(self, tmp_path):
        B_gma = trade_balance(country_vec([0.0, 1.0]), country_vec([0.0, 1.0]), "gma")
        B_iea = trade_balance(
            country_vec([0.0, 1.0], "import_volume"),
            country_vec([0.0, 1.0], "export_volume"),
            "iea",
        )
        path = write_balance(tmp_path / "balance.csv", B_gma, B_iea)
        assert path.read_text().splitlines()[1] == "C000,nan,nan"

    def test_sensitivity_file(self, small_money, tmp_path):
        sens = balance_sensitivity(small_money, SensitivityConfig(product=0))
        path = write_sensitivity(tmp_path / "sens.csv", sens)
        lines = path.read_text().splitlines()
        assert lines[0] == "country,dB_ddelta"
        assert len(lines) == 1 + small_money.n_countries
        code, value = lines[1].split(",")
        assert code == sens.codes[0]
        assert float(value) == sens.values[0]
