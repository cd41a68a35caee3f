"""Reading trade rows into the money tensor: checks, aggregation and summation."""

import csv
import io
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from wtnrank import (
    CountryRegistry,
    MoneyMatrix,
    load_money_matrix,
    read_aggregation_file,
    read_money_matrix,
    sitc_to_product,
)
from wtnrank import ingest
from wtnrank.errors import NoRecordsError, ParseError, UnknownCountryError
from wtnrank.testkit import SyntheticSpec, synthetic_money, synthetic_registry, transposed, write_trade_file

from comtrade_shape import comtrade_flows, write_comtrade_file
from conftest import flows

HEADER = "year,exporter,importer,sitc,value_usd"
EU = {"DEU": "EUU", "FRA": "EUU"}
# Rows with quoted cells, one holding a line break: the third row is on line 6.
MULTILINE_ROWS = ['2018,"FR\nA",USA,3,5', '2018,USA,"FR\nA",3,4', '2018,"DE,U",USA,7,-2']


def read(rows, year=2018, aggregation=None, header=HEADER):
    return read_money_matrix(io.StringIO("\n".join([header] + rows)), year, aggregation)


class TestParse:
    def test_single_row(self):
        money = read(["2018,CHN,USA,7,5.0e10"])
        assert money.year == 2018
        assert money.registry.codes == ("CHN", "USA")
        assert flows(money) == [(7, 1, 0, 5.0e10)]

    def test_year_filter(self):
        money = read(["2016,CHN,USA,7,1", "2018,CHN,USA,7,2", "2016,DEU,FRA,0,3"])
        assert money.registry.codes == ("CHN", "USA")
        assert flows(money) == [(7, 1, 0, 2.0)]

    def test_negative_value_names_line(self):
        with pytest.raises(ParseError) as err:
            read(["2018,CHN,USA,7,10", "2018,USA,CHN,7,-3"])
        assert err.value.line == 3

    def test_non_numeric_value(self):
        with pytest.raises(ParseError):
            read(["2018,CHN,USA,7,abc"])

    def test_value_overflowing_float64_names_line(self):
        with pytest.raises(ParseError, match="value '1e400' overflows float64") as err:
            read(["2018,CHN,USA,7,10", "2018,CHN,USA,7,1e400"])
        assert err.value.line == 3

    def test_sum_overflowing_float64_names_flow(self):
        rows = ["2018,CHN,USA,7,1e308", "2018,USA,CHN,7,1e308", "2018,CHN,USA,7,1e308"]
        flow = r"\(product 7, importer USA, exporter CHN\)"
        with pytest.raises(ParseError, match=f"sum of flow {flow} overflows float64") as err:
            read(rows)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "raw,message",
        [
            ("-1e-400", "negative value"),
            ("nan", "non-finite value"),
            ("inf", "non-finite value"),
            ("sNaN", "non-finite value"),
        ],
    )
    def test_rejected_value_names_line(self, raw, message):
        with pytest.raises(ParseError, match=f"{message} '{raw}'") as err:
            read(["2018,CHN,USA,7,10", f"2018,USA,CHN,7,{raw}"])
        assert err.value.line == 3

    @pytest.mark.parametrize("raw", ["1e-400", "-0", "0.00", "1e-10000000", "0E-10000000"])
    def test_value_reading_as_zero_is_dropped(self, raw):
        # also from a sum, where 1 + 1e-10000000 exactly would hold ten million digits
        tracemalloc.start()
        try:
            money = read([f"2018,CHN,USA,7,{raw}", "2018,CHN,USA,3,1", f"2018,CHN,USA,3,{raw}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert money.registry.codes == ("CHN", "USA")
        assert flows(money) == [(3, 1, 0, 1.0)]
        assert peak < 2**20

    # "1__0" is a form Decimal accepts and float rejects
    @pytest.mark.parametrize("raw,value", [("1_000", 1000.0), (" +2.5E3 ", 2500.0), ("1__0", 10.0)])
    def test_value_text_forms(self, raw, value):
        assert flows(read([f"2018,CHN,USA,7,{raw}"])) == [(7, 1, 0, value)]

    def test_wrong_column_count(self):
        with pytest.raises(ParseError) as err:
            read(["2018,CHN,USA,7"])
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            read_money_matrix(io.StringIO("year,exporter,importer\n"), 2018)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "header,row",
        [
            (HEADER + ",value_usd", "2018,CHN,USA,7,5,-999"),
            (HEADER + ",exporter", "2018,CHN,USA,7,5,BRA"),
        ],
        ids=["value_usd", "exporter"],
    )
    def test_duplicate_column_rejected(self, header, row):
        with pytest.raises(ParseError, match="duplicate column") as err:
            read([row], header=header)
        assert err.value.line == 1

    @pytest.mark.parametrize("row", ["2018,,USA,7,1", "2018,CHN, ,7,1"], ids=["exporter", "importer"])
    def test_empty_country_code_names_line(self, row):
        with pytest.raises(ParseError, match="empty country code") as err:
            read(["2018,CHN,USA,7,10", row])
        assert err.value.line == 3

    def test_line_after_multiline_cell(self):
        with pytest.raises(ParseError, match="negative value") as err:
            read(MULTILINE_ROWS, aggregation={"FR\nA": "FRA", "DE,U": "DEU"})
        assert err.value.line == 6

    @pytest.mark.parametrize("code", ["FR\nA", "DE,U", 'D"E', "A<B", "A&B", "A\tB"])
    def test_unwritable_country_code_names_line(self, code):
        quoted = '"' + code.replace('"', '""') + '"'
        with pytest.raises(ParseError, match="country code") as err:
            read(["2018,CHN,USA,7,10", f"2018,CHN,{quoted},7,1"])
        assert err.value.line == 3 + code.count("\n")

    def test_unwritable_bloc_code(self):
        with pytest.raises(ParseError, match="'E<U'") as err:
            read(["2018,CHN,USA,7,10", "2018,DEU,USA,7,1"], aggregation={"DEU": "E<U"})
        assert err.value.line == 3

    def test_no_records_for_year(self):
        with pytest.raises(NoRecordsError):
            read(["2016,CHN,USA,7,1"])

    def test_empty_file(self):
        with pytest.raises(ParseError):
            read_money_matrix(io.StringIO(""), 2018)

    def test_full_sitc_code_uses_leading_digit(self):
        assert flows(read(["2018,CHN,USA,71234,5"])) == [(7, 1, 0, 5.0)]

    def test_flow_column_keeps_exports_skips_imports(self):
        rows = ["2018,CHN,USA,7,10,X", "2018,USA,CHN,7,20,M", "2018,CHN,USA,3,5,export"]
        money = read(rows, header=HEADER + ",flow")
        assert flows(money) == [(3, 1, 0, 5.0), (7, 1, 0, 10.0)]

    def test_unknown_flow_direction(self):
        with pytest.raises(ParseError) as err:
            read(["2018,CHN,USA,7,10,sideways"], header=HEADER + ",flow")
        assert err.value.line == 2

    def test_byte_order_mark_before_header(self):
        # text decoded by the caller keeps the mark as U+FEFF
        rows = ["2018,CHN,USA,7,5", "2018,USA,CHN,3,2"]
        plain = read(rows)
        quoted = ",".join(f'"{cell}"' for cell in HEADER.split(","))
        for header in (HEADER, quoted):
            text = "\ufeff" + "\n".join([header] + rows)
            for source in (text, io.StringIO(text, newline=""), text.splitlines()):
                marked = read_money_matrix(source, 2018)
                assert marked.registry.codes == plain.registry.codes
                assert flows(marked) == flows(plain)

    def test_byte_order_mark_inside_header_is_not_skipped(self):
        header = HEADER.replace(",", ",\ufeff", 1)
        with pytest.raises(ParseError, match="header misses"):
            read_money_matrix(io.StringIO("\n".join([header, "2018,CHN,USA,7,5"])), 2018)


class TestBlocks:
    """Blocks str.split splits against those csv splits, at the edges of blocks and of lines."""

    ROWS = [f"2018,C{i % 7},C{(i * 3 + 1) % 5},{i % 10},{i}.{i:03d}" for i in range(1, 40)]

    def fields(self, money):
        return money.registry.codes, flows(money)

    def test_crlf_file(self, monkeypatch, tmp_path):
        expected = self.fields(read(self.ROWS))
        text = "\r\n".join([HEADER] + self.ROWS) + "\r\n"
        path = tmp_path / "trade.csv"
        path.write_bytes(text.encode())
        # every size up to two lines puts a block edge between some "\r" and its "\n"
        for size in range(1, 2 * len(self.ROWS[0]) + 4):
            monkeypatch.setattr(ingest, "_BLOCK_CHARS", size)
            assert self.fields(read_money_matrix(text, 2018)) == expected
            assert self.fields(load_money_matrix(path, 2018)) == expected
            with pytest.raises(ParseError, match="negative value") as err:
                read_money_matrix(text + "2018,CHN,USA,7,-1\r\n", 2018)
            assert err.value.line == len(self.ROWS) + 2

    @pytest.mark.parametrize("size", [1, 64, 1 << 16])
    def test_blank_lines_and_no_trailing_newline(self, monkeypatch, size):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", size)
        expected = self.fields(read(self.ROWS))
        rows = self.ROWS[:10] + ["", ""] + self.ROWS[10:] + [""]
        assert self.fields(read(rows)) == expected
        assert self.fields(read(self.ROWS[:-1] + [self.ROWS[-1] + "\n"])) == expected
        with pytest.raises(ParseError, match="expected 5 columns, found 2") as err:
            read(rows + ["2018,CHN"])   # no trailing newline
        assert err.value.line == len(rows) + 2

    @pytest.mark.parametrize("size", [1, 64, 1 << 16])
    def test_quote_in_a_later_block(self, monkeypatch, size):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", size)
        rows = self.ROWS[:25] + ['2018,"C\n1",C2,3,7'] + self.ROWS[25:]
        expected = self.fields(read(self.ROWS[:25] + ["2018,C1,C2,3,7"] + self.ROWS[25:]))
        assert self.fields(read(rows, aggregation={"C\n1": "C1"})) == expected
        with pytest.raises(ParseError, match="negative value") as err:
            read(rows + ["2018,CHN,USA,7,-1"], aggregation={"C\n1": "C1"})
        assert err.value.line == len(rows) + 3   # the quoted cell holds one line break

    def test_list_of_lines_without_terminators(self):
        assert self.fields(read_money_matrix([HEADER] + self.ROWS, 2018)) == self.fields(read(self.ROWS))
        with pytest.raises(ParseError, match="negative value") as err:
            read_money_matrix([HEADER] + self.ROWS + ["2018,CHN,USA,7,-1"], 2018)
        assert err.value.line == len(self.ROWS) + 2

    def test_over_long_field(self):
        # a cell that every check after csv would take
        code = "C" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match=r"field larger than field limit") as err:
            read(self.ROWS + [f"2018,{code},USA,7,5"] + self.ROWS)
        assert err.value.line == len(self.ROWS) + 2

    def test_sum_overflow_before_a_later_parse_error(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", 64)
        rows = ["2018,CHN,USA,7,1e308", "2018,CHN,USA,7,1e308"] + self.ROWS + ["2018,CHN,USA,7,-1"]
        with pytest.raises(ParseError, match="sum of flow .* overflows float64") as err:
            read(rows)
        assert err.value.line == 3
        # the parse error wins when it comes first
        with pytest.raises(ParseError, match="negative value") as err:
            read(["2018,CHN,USA,7,-1"] + rows)
        assert err.value.line == 2

    def test_sum_overflow_after_many_blocks_names_its_line(self, monkeypatch):
        # rows keep their line only from the block of the first 1e308, many blocks in
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", 64)
        rows = self.ROWS + ["2018,CHN,USA,7,1e308"] + self.ROWS + ["2018,CHN,USA,7,1e308"] + self.ROWS
        with pytest.raises(ParseError, match=r"sum of flow \(product 7, importer USA, exporter CHN\)") as err:
            read(rows)
        assert err.value.line == 2 * len(self.ROWS) + 3

    @pytest.mark.parametrize("size", [1, 64, 1 << 16])
    @pytest.mark.parametrize("first", ["2018", '"2018"'])   # a quoted cell hands the file to csv
    def test_sum_overflow_before_a_parse_error_in_the_same_block(self, monkeypatch, size, first):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", size)
        rows = [f"{first},CHN,USA,7,1e308", "2018,CHN,USA,7,1e308", "2018,CHN,USA,7,-1"]
        with pytest.raises(ParseError, match="sum of flow .* overflows float64") as err:
            read(rows)
        assert err.value.line == 3

    def test_plain_file_is_split_without_csv(self, monkeypatch, tmp_path):
        rows = [f"2018,C{i % 97:02d},C{i % 89:02d},{i % 10},{i}.25" for i in range(12_000)]
        # a quoted cell hands the whole file to csv
        expected = self.fields(read(['"2018"' + rows[0][4:]] + rows[1:], aggregation={"C00": "C01"}))
        calls, split = [], csv.reader

        def reader(*args, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(ingest.csv, "reader", reader)
        path = tmp_path / "trade.csv"
        path.write_text("\n".join([HEADER] + rows) + "\n")
        assert path.stat().st_size > 4 * ingest._BLOCK_CHARS
        assert self.fields(load_money_matrix(path, 2018, {"C00": "C01"})) == expected
        assert len(calls) == 1   # the header's

    def test_first_refused_block_hands_csv_the_rest(self, monkeypatch, tmp_path):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", 64)
        expected = self.fields(read(self.ROWS))
        # blank lines in the first block, a lone carriage return a few blocks on, then plain blocks
        rows = self.ROWS[:1] + ["", ""] + self.ROWS[1:9] + ["\r".join(self.ROWS[9:11])] + self.ROWS[11:]
        path = tmp_path / "trade.csv"
        path.write_bytes("\n".join([HEADER] + rows).encode())
        calls, split = [], csv.reader

        def reader(*args, **kwargs):
            calls.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(ingest.csv, "reader", reader)
        assert self.fields(load_money_matrix(path, 2018)) == expected
        assert len(calls) == 2   # the header's, then one for the rest of the input
        with pytest.raises(ParseError, match="negative value") as err:
            read_money_matrix("\n".join([HEADER] + rows + ["2018,CHN,USA,7,-1"]), 2018)
        assert err.value.line == len(rows) + 3   # the carriage return ends a line too


class TestSitc:
    @pytest.mark.parametrize("code,product", [("71234", 7), ("0", 0), ("334", 3), ("9", 9)])
    def test_leading_digit(self, code, product):
        assert sitc_to_product(code) == product

    @pytest.mark.parametrize("code", ["X12", "", " ", "-1"])
    def test_invalid(self, code):
        with pytest.raises(ValueError):
            sitc_to_product(code)


class TestAggregation:
    def test_intra_bloc_flow_dropped(self):
        money = read(["2018,DEU,FRA,3,10", "2018,CHN,USA,3,1"], aggregation=EU)
        # the bloc stays in the registry although its only flow was a self-flow
        assert money.registry.codes == ("CHN", "EUU", "USA")
        assert flows(money) == [(3, 2, 0, 1.0)]

    def test_member_flows_merge(self):
        money = read(["2018,DEU,USA,3,10", "2018,FRA,USA,3,5"], aggregation=EU)
        assert money.registry.codes == ("EUU", "USA")
        assert flows(money) == [(3, 1, 0, 15.0)]

    def test_non_member_pass_through(self):
        # one member row, as a map that matches no code at all is an error
        money = read(["2018,CHN,USA,3,7", "2018,DEU,CHN,3,2"], aggregation=EU)
        assert money.registry.codes == ("CHN", "EUU", "USA")
        assert flows(money) == [(3, 0, 1, 2.0), (3, 2, 0, 7.0)]

    def test_idempotent(self):
        once = read(["2018,DEU,USA,3,10", "2018,FRA,USA,3,5", "2018,USA,DEU,1,2"], aggregation=EU)
        codes = once.registry.codes
        rows = [f"2018,{codes[e]},{codes[i]},{p},{v!r}" for p, i, e, v in flows(once)]
        twice = read(rows, aggregation=EU)
        assert twice.registry.codes == codes
        assert flows(twice) == flows(once)

    def test_aggregation_file(self):
        text = "member_code,bloc_code\nDEU,EUU\nFRA,EUU\n"
        assert read_aggregation_file(io.StringIO(text)) == EU

    def test_aggregation_file_after_byte_order_mark(self):
        # text decoded by the caller keeps the mark as U+FEFF
        for header in ("member_code,bloc_code", '"member_code","bloc_code"'):
            text = "\ufeff" + header + "\nDEU,EUU\nFRA,EUU\n"
            assert read_aggregation_file(io.StringIO(text)) == EU
            assert read_aggregation_file(text) == EU
        with pytest.raises(ParseError):
            read_aggregation_file(io.StringIO("member_code,\ufeffbloc_code\nDEU,EUU\n"))

    def test_aggregation_file_bad_header(self):
        with pytest.raises(ParseError):
            read_aggregation_file(io.StringIO("member,bloc\nDEU,EUU\n"))

    def test_aggregation_file_conflicting_duplicate(self):
        text = "member_code,bloc_code\nDEU,EUU\nDEU,XXX\n"
        with pytest.raises(ParseError):
            read_aggregation_file(io.StringIO(text))

    def test_aggregation_file_line_after_multiline_cell(self):
        text = 'member_code,bloc_code\n"FR\nA",EUU\n"DE,U",EUU\n"DE,U",XXX\n'
        with pytest.raises(ParseError, match="two blocs") as err:
            read_aggregation_file(io.StringIO(text))
        assert err.value.line == 5

    def test_chained_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation chains"):
            read(["2018,AAA,CCC,0,1"], aggregation={"AAA": "BBB", "BBB": "CCC"})
        # the chain is named even when its last bloc is absent from the data
        with pytest.raises(ValueError, match="aggregation chains not allowed: DEU -> EUU -> ..."):
            read(["2018,DEU,USA,0,1", "2018,USA,DEU,1,2"], aggregation={"DEU": "EUU", "EUU": "EUX"})

    def test_identity_pair_is_no_chain(self):
        rows = ["2018,DEU,USA,3,10", "2018,FRA,USA,3,5", "2018,USA,EUU,1,2"]
        money = read(rows, aggregation={**EU, "EUU": "EUU"})
        assert money.registry.aggregation == EU
        assert money.registry.codes == ("EUU", "USA")
        assert flows(money) == flows(read(rows, aggregation=EU)) == [(1, 0, 1, 2.0), (3, 1, 0, 15.0)]
        # a map of identity pairs alone merges nothing and names no unmatched bloc
        assert read(rows, aggregation={"EUX": "EUX"}).registry.codes == ("DEU", "EUU", "FRA", "USA")


class TestRegistry:
    def test_alphabetical_and_partner_only(self):
        money = read(["2018,USA,CHN,0,1", "2018,BRA,USA,0,1"])
        assert money.registry.codes == ("BRA", "CHN", "USA")

    def test_index_of_unknown(self):
        registry = read(["2018,USA,CHN,0,1"]).registry
        with pytest.raises(UnknownCountryError, match="unknown country code 'FRA'"):
            registry.index_of("FRA")

    def test_index_of_merged_member_names_its_bloc(self):
        registry = read(["2018,DEU,USA,3,10", "2018,USA,CHN,1,2"], aggregation=EU).registry
        # FRA has no row, but the map still merges it
        for member in ("DEU", "FRA"):
            with pytest.raises(UnknownCountryError, match=f"{member} was merged into EUU by the aggregation map"):
                registry.index_of(member)
        assert registry.index_of("EUU") == 1


class TestAssemble:
    def test_summation(self):
        money = read(["2018,CHN,USA,7,10", "2018,CHN,USA,7,20"])
        usa, chn = money.registry.index_of("USA"), money.registry.index_of("CHN")
        assert flows(money) == [(7, usa, chn, 30.0)]

    def test_duplicates_summed_in_decimal_then_rounded_once(self):
        money = read(["2018,CHN,USA,7,0.1", "2018,CHN,USA,7,0.2"])
        assert money.value.tolist() == [0.3]
        assert 0.1 + 0.2 != 0.3  # summing the floats would give 0.30000000000000004

    @pytest.mark.parametrize("first,second", [("0.1", "0.02"), ("0.02", "0.1")])
    def test_first_row_of_a_repeated_key_is_summed_exactly(self, first, second):
        money = read([f"2018,CHN,USA,7,{first}", f"2018,CHN,USA,7,{second}"])
        # starting the sum from the float of either row would give 0.12000000000000001
        assert money.value.tolist() == [0.12]

    def test_sum_longer_than_fifty_digits_is_rounded_once(self):
        # the exact expansions of two floats, as testkit.write_trade_file writes
        # them; their exact sum has 54 significant digits, and rounding it to 50
        # first would give 0.500086621232175, 1 ulp off
        money = read([
            "2018,CHN,USA,7,0.250049468500064542286764890377526171505451202392578125",
            "2018,CHN,USA,7,0.2500371527321103570784543990157544612884521484375",
        ])
        assert money.value.tolist() == [0.5000866212321748]

    def test_unmentioned_slice_is_zero(self):
        money = read(["2018,CHN,USA,7,10"])
        assert money.to_dense()[4].sum() == 0.0

    def test_self_flow_rejected(self):
        money = read(["2018,USA,USA,7,10", "2018,CHN,USA,7,1"])
        assert money.registry.codes == ("CHN", "USA")
        assert flows(money) == [(7, 1, 0, 1.0)]
        with pytest.raises(NoRecordsError):
            read(["2018,USA,USA,7,10"])

    def test_mixed_years_rejected(self):
        rows = ["2018,CHN,USA,7,1", "2017,USA,CHN,7,2"]
        for year, expected in ((2018, [(7, 1, 0, 1.0)]), (2017, [(7, 0, 1, 2.0)])):
            money = read(rows, year)
            assert money.year == year
            assert flows(money) == expected

    def test_volume_conservation_exact(self):
        rows = [f"2018,C{i:02d},C{(i * 7 + 1) % 23:02d},{i % 10},{i}.0{i}" for i in range(1, 200)]
        money = read(rows)
        codes = money.registry.codes
        exact = {}
        for row in rows:
            _, exporter, importer, sitc, value = row.split(",")
            if exporter != importer:
                key = (int(sitc), codes.index(importer), codes.index(exporter))
                exact[key] = exact.get(key, Decimal(0)) + Decimal(value)
        # every sum is exact in Decimal and rounded to float once
        assert flows(money) == [(*key, float(value)) for key, value in sorted(exact.items())]


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

    # the traced peak above the value text is about 1, 16, 20 and 91 bytes a row, and above the packed text (half
    # the characters) about 24, 40, 23 and 115; a UTF-8 text buffer gave 57 and 70 for the first two. In the first
    # three files the peak is in the reading pass: the 12-byte key and value row buffers, the packed text and the
    # cells of one text block, which weigh more a row in the smaller file and in the COMTRADE-shaped one, whose
    # texts are short integers and a third of whose rows are mirror reports. The sum pass holds a running Decimal
    # only for a key with rows still to come, and a COMTRADE-shaped key's rows lie close together. The doubled file
    # lists every flow twice, the second copy after all the first, so every key stays open for the whole read: its
    # peak is in the sum pass, a running Decimal of about 47 digits and its dict entry a key. Each bound is its
    # peak plus 4 bytes a row. A line buffer, a full-length int64 permutation or the block's text adds 8 or more
    @pytest.mark.parametrize(
        "n_countries,density,members,copies,bound,packed_bound",
        [(120, 0.3, 20, 1, 5.0, 28.0), (60, 0.5, 0, 1, 20.0, 43.5), (40, None, 0, 1, 24.1, 26.6),
         (60, 0.5, 0, 2, 95.3, 118.7)],
        ids=["bloc", "no-bloc", "comtrade", "doubled"],
    )
    def test_peak_memory_per_row(self, monkeypatch, tmp_path, n_countries, density, members, copies, bound,
                                 packed_bound):
        if density is None:   # mirror reports, integer texts and three-digit SITC codes, 1-15 rows a flow
            path = write_comtrade_file(tmp_path / "trade.csv", 1, n_countries)
            codes, *_, totals = comtrade_flows(1, n_countries)
            flow_count = len(totals)
        else:
            money = synthetic_money(SyntheticSpec(seed=7, n_countries=n_countries, n_products=10, density=density))
            path = write_trade_file(money, tmp_path / "trade.csv")
            codes, flow_count = money.registry.codes, len(money.value)
        header, *rows = path.read_text().splitlines()
        if copies > 1:   # each copy of the rows after all of the one before
            rows *= copies
            path.write_text("\n".join([header] + rows) + "\n")
        text = sum(len(row.split(",")[4]) for row in rows)
        blocks = -(-len(path.read_text()) // ingest._BLOCK_CHARS)   # the most blocks a read takes
        blocs = {code: "BLC" for code in codes[:members]}
        held, totals = [], ingest._Rows.totals

        def spy(kept):
            held.append(len(kept.texts))
            return totals(kept)

        monkeypatch.setattr(ingest._Rows, "totals", spy)
        tracemalloc.start()
        try:
            loaded = load_money_matrix(path, 2018, blocs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded.value) < flow_count if members else len(loaded.value) == flow_count
        assert (peak - text) / len(rows) < bound
        assert (peak - text / 2) / len(rows) < packed_bound
        # two characters a byte: each text, its "," and at most one pad a block
        assert held == [held[0]] and held[0] <= (text + len(rows) + blocks) / 2 + 1

    def test_comtrade_shaped_file_reads_as_its_integer_flows(self, tmp_path):
        codes, *columns = comtrade_flows(1, 20)
        money = load_money_matrix(write_comtrade_file(tmp_path / "trade.csv", 1, 20), 2018)
        assert money.registry.codes == codes
        assert flows(money) == sorted(zip(*(column.tolist() for column in columns[:3]), columns[3].astype(float).tolist()))

    def test_trade_file_keeps_no_line(self, monkeypatch, tmp_path):
        # no sum can overflow until the kept values total half the largest float64
        money = synthetic_money(SyntheticSpec(seed=7, n_countries=30, n_products=10, density=0.5))
        path = write_trade_file(money, tmp_path / "trade.csv")
        kept, totals = [], ingest._Rows.totals

        def spy(rows):
            kept.append(len(rows.lines))
            return totals(rows)

        monkeypatch.setattr(ingest._Rows, "totals", spy)
        blocs = {code: "BLC" for code in money.registry.codes[:10]}
        assert len(load_money_matrix(path, 2018, blocs).value) < len(money.value)
        with pytest.raises(ValueError, match="total flow inf over 2 countries"):   # no sum overflows; the total does
            read(["2018,CHN,USA,7,1e308", "2018,USA,CHN,7,1e308"])
        assert kept == [0, 2]   # the block that reaches the total keeps its lines


class TestMoneyMatrix:
    def test_to_dense_layout(self):
        money = read(["2018,CHN,USA,7,10"])
        registry = money.registry
        dense = money.to_dense()
        # entry (p, importer, exporter)
        assert dense[7, registry.index_of("USA"), registry.index_of("CHN")] == 10.0
        assert dense.sum() == 10.0

    def test_transposed_swaps_roles(self, small_money):
        flipped = transposed(small_money)
        assert np.array_equal(
            flipped.to_dense(), np.transpose(small_money.to_dense(), (0, 2, 1))
        )

    def test_nodes_are_read_only_and_computed_once(self, small_money):
        importer, exporter = small_money.nodes
        product, into, out = np.nonzero(small_money.to_dense())   # the cells in (product, importer, exporter) order
        base = product * small_money.n_countries
        assert np.array_equal(importer, base + into)
        assert np.array_equal(exporter, base + out)
        assert small_money.nodes[0] is importer and small_money.nodes[1] is exporter
        for nodes in (importer, exporter):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 0
        flipped = transposed(small_money)   # its own entry order, so its own arrays
        assert flipped.nodes[0] is not exporter and flipped.nodes[1] is not importer
        assert np.array_equal(np.sort(flipped.nodes[0]), np.sort(exporter))

    def test_holds_24_bytes_an_entry_read_only(self, small_money):
        flipped = transposed(small_money)
        for money in (small_money, flipped):
            assert set(vars(money)) == {"registry", "year", "nodes", "value", "blocks", "n_products"}
            held = [*money.nodes, money.value, money.blocks]
            assert sum(array.nbytes for array in held) == 24 * len(money.value) + money.blocks.nbytes
            for array in held:   # none is a view that keeps a larger array alive
                assert array.base is None and not array.flags.writeable
        # transposed sorts its entries its own way, into arrays of its own
        assert not any(np.shares_memory(a, b) for a in flipped.nodes for b in small_money.nodes)

    def test_from_dense_exact(self):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = 0.1  # not exactly representable; conversion must be bitwise
        registry = CountryRegistry(codes=("AAA", "BBB"), names=("AAA", "BBB"), aggregation={})
        money = MoneyMatrix.from_dense(dense, registry, 2018)
        assert flows(money) == [(0, 0, 1, dense[0, 0, 1])]

    def test_constructor_sorts_and_drops_zero_values(self):
        registry = synthetic_registry(3)
        nodes = [5, 1, 0, 3], [3, 0, 2, 4]   # node c of product p is p * 3 + c
        money = MoneyMatrix(registry, 2018, nodes, [4.0, 0.0, 2.0, 3.0], 2)
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
            ([0], [0], [1], [1e308], "total flow 1e\\+308 over 3 countries .* scale the values down"),
            ([0, 0], [0, 0], [1, 2], [1e308, 1e308], "total flow inf over 3 countries"),
        ],
    )
    def test_constructor_validation(self, product, importer, exporter, value, message):
        # each case names its flows by product and country indexes; node c of product p is p * 3 + c
        base = 3 * np.asarray(product)
        with pytest.raises(ValueError, match=message):
            MoneyMatrix(synthetic_registry(3), 2018, (base + importer, base + exporter), value, 2)

    @pytest.mark.parametrize(
        "importer,exporter,message",
        [
            ([0], [4], "its importer's product"),   # product 1's country 1, from product 0's country 0
            ([4], [0], "its importer's product"),
            ([-1], [0], "importer node's product index outside 0-1"),
        ],
    )
    def test_constructor_keeps_each_flow_in_one_product(self, importer, exporter, message):
        with pytest.raises(ValueError, match=message):
            MoneyMatrix(synthetic_registry(3), 2018, (importer, exporter), [1.0], 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_from_dense_rejects_non_finite(self, bad):
        dense = np.zeros((1, 2, 2))
        dense[0, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MoneyMatrix.from_dense(dense, synthetic_registry(2), 2018)
