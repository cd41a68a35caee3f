"""Parsing, aggregation and money-matrix assembly."""

import io
from decimal import Decimal

import numpy as np
import pytest

from wtnrank import (
    CountryRegistry,
    MoneyMatrix,
    TradeRecord,
    apply_aggregation,
    assemble_money_matrix,
    load_money_matrix,
    parse_trade_records,
    read_aggregation_file,
    sitc_to_product,
)
from wtnrank.errors import NoRecordsError, ParseError, UnknownCountryError
from wtnrank.testkit import synthetic_registry

from conftest import flows

HEADER = "year,exporter,importer,sitc,value_usd"


def parse(rows, year=2018):
    return parse_trade_records(io.StringIO("\n".join([HEADER] + rows)), year)


class TestParse:
    def test_single_row(self):
        records = parse(["2018,CHN,USA,7,5.0e10"])
        assert records == [TradeRecord(2018, "CHN", "USA", 7, Decimal("5.0e10"))]

    def test_year_filter(self):
        records = parse(["2016,CHN,USA,7,1", "2018,CHN,USA,7,2", "2016,DEU,FRA,0,3"])
        assert len(records) == 1
        assert records[0].value_usd == Decimal(2)

    def test_negative_value_names_line(self):
        with pytest.raises(ParseError) as err:
            parse(["2018,CHN,USA,7,10", "2018,USA,CHN,7,-3"])
        assert err.value.line == 3

    def test_non_numeric_value(self):
        with pytest.raises(ParseError):
            parse(["2018,CHN,USA,7,abc"])

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as err:
            parse(["2018,CHN,USA,7"])
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_trade_records(io.StringIO("year,exporter,importer\n"), 2018)
        assert err.value.line == 1

    def test_no_records_for_year(self):
        with pytest.raises(NoRecordsError):
            parse(["2016,CHN,USA,7,1"])

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_trade_records(io.StringIO(""), 2018)

    def test_full_sitc_code_uses_leading_digit(self):
        records = parse(["2018,CHN,USA,71234,5"])
        assert records[0].sitc_digit == 7

    def test_flow_column_keeps_exports_skips_imports(self):
        header = HEADER + ",flow"
        text = "\n".join(
            [header, "2018,CHN,USA,7,10,X", "2018,USA,CHN,7,20,M", "2018,CHN,USA,3,5,export"]
        )
        records = parse_trade_records(io.StringIO(text), 2018)
        assert [(r.exporter, r.sitc_digit) for r in records] == [("CHN", 7), ("CHN", 3)]

    def test_unknown_flow_direction(self):
        header = HEADER + ",flow"
        with pytest.raises(ParseError) as err:
            parse_trade_records(io.StringIO(header + "\n2018,CHN,USA,7,10,sideways\n"), 2018)
        assert err.value.line == 2


class TestSitc:
    @pytest.mark.parametrize("code,product", [("71234", 7), ("0", 0), ("334", 3), ("9", 9)])
    def test_leading_digit(self, code, product):
        assert sitc_to_product(code) == product

    @pytest.mark.parametrize("code", ["X12", "", " ", "-1"])
    def test_invalid(self, code):
        with pytest.raises(ValueError):
            sitc_to_product(code)


def eu_registry(records):
    return CountryRegistry.build(records, {"DEU": "EUU", "FRA": "EUU"})


class TestAggregation:
    def test_intra_bloc_flow_dropped(self):
        records = [TradeRecord(2018, "DEU", "FRA", 3, Decimal(10))]
        assert apply_aggregation(records, eu_registry(records)) == []

    def test_member_flows_merge(self):
        records = [
            TradeRecord(2018, "DEU", "USA", 3, Decimal(10)),
            TradeRecord(2018, "FRA", "USA", 3, Decimal(5)),
        ]
        merged = apply_aggregation(records, eu_registry(records))
        assert merged == [TradeRecord(2018, "EUU", "USA", 3, Decimal(15))]

    def test_non_member_pass_through(self):
        records = [TradeRecord(2018, "CHN", "USA", 3, Decimal(7))]
        assert apply_aggregation(records, eu_registry(records)) == records

    def test_idempotent(self):
        records = [
            TradeRecord(2018, "DEU", "USA", 3, Decimal(10)),
            TradeRecord(2018, "FRA", "USA", 3, Decimal(5)),
            TradeRecord(2018, "USA", "DEU", 1, Decimal(2)),
        ]
        registry = eu_registry(records)
        once = apply_aggregation(records, registry)
        assert apply_aggregation(once, registry) == once

    def test_aggregation_file(self):
        text = "member_code,bloc_code\nDEU,EUU\nFRA,EUU\n"
        assert read_aggregation_file(io.StringIO(text)) == {"DEU": "EUU", "FRA": "EUU"}

    def test_aggregation_file_bad_header(self):
        with pytest.raises(ParseError):
            read_aggregation_file(io.StringIO("member,bloc\nDEU,EUU\n"))

    def test_aggregation_file_conflicting_duplicate(self):
        text = "member_code,bloc_code\nDEU,EUU\nDEU,XXX\n"
        with pytest.raises(ParseError):
            read_aggregation_file(io.StringIO(text))

    def test_chained_aggregation_rejected(self):
        records = [TradeRecord(2018, "AAA", "CCC", 0, Decimal(1))]
        with pytest.raises(ValueError):
            CountryRegistry.build(records, {"AAA": "BBB", "BBB": "CCC"})


class TestRegistry:
    def test_alphabetical_and_partner_only(self):
        records = [
            TradeRecord(2018, "USA", "CHN", 0, Decimal(1)),
            TradeRecord(2018, "BRA", "USA", 0, Decimal(1)),
        ]
        registry = CountryRegistry.build(records, None)
        assert registry.codes == ("BRA", "CHN", "USA")

    def test_index_of_unknown(self):
        registry = CountryRegistry.build([TradeRecord(2018, "USA", "CHN", 0, Decimal(1))], None)
        with pytest.raises(UnknownCountryError):
            registry.index_of("FRA")


class TestAssemble:
    def test_summation(self):
        records = [
            TradeRecord(2018, "CHN", "USA", 7, Decimal(10)),
            TradeRecord(2018, "CHN", "USA", 7, Decimal(20)),
        ]
        registry = CountryRegistry.build(records, None)
        money = assemble_money_matrix(records, registry)
        usa, chn = registry.index_of("USA"), registry.index_of("CHN")
        assert flows(money) == [(7, usa, chn, 30.0)]

    def test_duplicates_summed_in_decimal_then_rounded_once(self):
        records = [
            TradeRecord(2018, "CHN", "USA", 7, Decimal("0.1")),
            TradeRecord(2018, "CHN", "USA", 7, Decimal("0.2")),
        ]
        money = assemble_money_matrix(records, CountryRegistry.build(records, None))
        assert money.value.tolist() == [0.3]
        assert 0.1 + 0.2 != 0.3  # summing the floats would give 0.30000000000000004

    def test_unmentioned_slice_is_zero(self):
        records = [TradeRecord(2018, "CHN", "USA", 7, Decimal(10))]
        registry = CountryRegistry.build(records, None)
        money = assemble_money_matrix(records, registry)
        assert money.to_dense()[4].sum() == 0.0

    def test_self_flow_rejected(self):
        records = [TradeRecord(2018, "USA", "USA", 7, Decimal(10))]
        registry = CountryRegistry.build(records, None)
        with pytest.raises(ValueError):
            assemble_money_matrix(records, registry)

    def test_mixed_years_rejected(self):
        records = [
            TradeRecord(2018, "CHN", "USA", 7, Decimal(1)),
            TradeRecord(2017, "USA", "CHN", 7, Decimal(1)),
        ]
        registry = CountryRegistry.build(records, None)
        with pytest.raises(ValueError):
            assemble_money_matrix(records, registry)

    def test_volume_conservation_exact(self):
        rows = [f"2018,C{i:02d},C{(i * 7 + 1) % 23:02d},{i % 10},{i}.0{i}" for i in range(1, 200)]
        records = parse(rows)
        registry = CountryRegistry.build(records, None)
        aggregated = apply_aggregation(records, registry)
        money = assemble_money_matrix(aggregated, registry)
        index = registry.index_of
        expected = [(r.sitc_digit, index(r.importer), index(r.exporter), r.value_usd) for r in aggregated]
        # aggregation already summed duplicates exactly; assembly rounds each sum once
        assert flows(money) == [(p, imp, exp, float(value)) for p, imp, exp, value in sorted(expected)]


class TestRecordValidation:
    def test_negative_value(self):
        with pytest.raises(ValueError):
            TradeRecord(2018, "CHN", "USA", 7, Decimal(-1))

    def test_bad_product_index(self):
        with pytest.raises(ValueError):
            TradeRecord(2018, "CHN", "USA", 10, Decimal(1))

    def test_empty_code(self):
        with pytest.raises(ValueError):
            TradeRecord(2018, "", "USA", 7, Decimal(1))


class TestLoad:
    def test_roundtrip_determinism(self, tmp_path):
        path = tmp_path / "trade.csv"
        path.write_text(
            HEADER + "\n2018,CHN,USA,7,1.25\n2018,USA,CHN,3,2.5\n2018,BRA,CHN,0,7\n",
            encoding="utf-8",
        )
        first = load_money_matrix(path, 2018)
        second = load_money_matrix(path, 2018)
        assert first.registry.codes == second.registry.codes
        assert flows(first) == flows(second)

    def test_aggregated_load(self, tmp_path):
        path = tmp_path / "trade.csv"
        path.write_text(
            HEADER + "\n2018,DEU,USA,3,10\n2018,FRA,USA,3,5\n2018,DEU,FRA,3,99\n",
            encoding="utf-8",
        )
        money = load_money_matrix(path, 2018, {"DEU": "EUU", "FRA": "EUU"})
        assert money.registry.codes == ("EUU", "USA")
        assert flows(money) == [(3, 1, 0, 15.0)]


class TestMoneyMatrix:
    def test_to_dense_layout(self):
        records = [TradeRecord(2018, "CHN", "USA", 7, Decimal(10))]
        registry = CountryRegistry.build(records, None)
        dense = assemble_money_matrix(records, registry).to_dense()
        # entry (p, importer, exporter)
        assert dense[7, registry.index_of("USA"), registry.index_of("CHN")] == 10.0
        assert dense.sum() == 10.0

    def test_transposed_swaps_roles(self, small_money):
        flipped = small_money.transposed()
        assert np.array_equal(
            flipped.to_dense(), np.transpose(small_money.to_dense(), (0, 2, 1))
        )

    def test_from_dense_exact(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 0.1  # not exactly representable; conversion must be bitwise
        registry = CountryRegistry(codes=("AAA", "BBB"), names=("AAA", "BBB"), aggregation={})
        money = MoneyMatrix.from_dense(dense, registry, 2018)
        assert flows(money) == [(0, 0, 1, dense[0, 0, 1])]

    def test_constructor_sorts_and_drops_zero_values(self):
        registry = synthetic_registry(3)
        product, importer, exporter = [1, 0, 0, 1], [2, 1, 0, 0], [0, 0, 2, 1]
        money = MoneyMatrix(registry, 2018, product, importer, exporter, [4.0, 0.0, 2.0, 3.0], 2)
        assert flows(money) == [(0, 0, 2, 2.0), (1, 0, 1, 3.0), (1, 2, 0, 4.0)]
        assert not money.value.flags.writeable

    @pytest.mark.parametrize(
        "product,importer,exporter,value,message",
        [
            ([2], [0], [1], [1.0], "product index"),
            ([0], [0], [3], [1.0], "registry range"),
            ([0], [1], [1], [1.0], "diagonal"),
            ([0], [0], [1], [-1.0], "negative"),
            ([0], [0], [1], [np.inf], "non-finite"),
            ([0], [0], [1], [np.nan], "non-finite"),
            ([0, 0], [0, 0], [1, 1], [1.0, 2.0], "duplicate"),
            ([0, 1], [0], [1], [1.0], "one length"),
        ],
    )
    def test_constructor_validation(self, product, importer, exporter, value, message):
        with pytest.raises(ValueError, match=message):
            MoneyMatrix(synthetic_registry(3), 2018, product, importer, exporter, value, 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_from_dense_rejects_non_finite(self, bad):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MoneyMatrix.from_dense(dense, synthetic_registry(2), 2018)
