"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``)
into the per-product money tensor in one pass: each row is checked, its
country codes are mapped onto their bloc (e.g. the 27 EU members collapsed
onto ``EUU``), self-flows are dropped and every other row's key, value and
line are kept for summing after the pass.

The text is read in blocks of about 64K characters of whole lines. A block
with no quote, NUL or lone carriage return, whose every line has the
header's width, is split into columns with ``str.split``. csv splits every
other block, an iterable of lines and, after a quote, the rest of the
stream, and hands its rows on as columns, about a block's worth at a time.
Either way one check takes the columns: each distinct year, flow, country
and SITC cell is checked and mapped once, the flow, country and SITC cells
only in rows of the year that are not mirror reports, and the first row
with a rejected cell raises its ParseError with its line.

Every value is read with ``float``, which rounds a decimal string
correctly (Clinger, PLDI 1990), so a key with one row takes that float64,
and a value it rounds to 0 counts as 0. After the pass, one stable argsort
finds the keys with two or more rows; each is summed exactly, at
``decimal.MAX_PREC``, from its rows' text in file order, and the sum is
rounded to float64 once. Either way each flow is rounded once, into the COO
arrays of :class:`MoneyMatrix`. The country registry is the sorted set of
canonical codes of every row of the year.
"""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from decimal import MAX_PREC, Decimal, InvalidOperation, localcontext
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import NoRecordsError, ParseError, UnknownCountryError, WtnError

#: Number of one-digit SITC Rev. 1 sections; fixed by the classification.
N_PRODUCTS = 10

REQUIRED_COLUMNS = ("year", "exporter", "importer", "sitc", "value_usd")

#: Optional extra column: rows flagged as import-side mirror reports are
#: skipped to avoid double counting; export-side rows are ingested as-is.
FLOW_COLUMN = "flow"
_EXPORT_FLOWS = {"x", "export"}
_IMPORT_FLOWS = {"m", "import"}

#: MoneyMatrix array fields, in key order and then the value.
COO_FIELDS = ("product", "importer", "exporter", "value")

# Decimal precision for summing the values of one key: the largest there is,
# so no sum is rounded before float(). libmpdec sizes each sum to its exact
# digits, which for a float's exact decimal expansion (the form
# testkit.write_trade_file writes) can pass 60.
_MONEY_PRECISION = MAX_PREC
_ZERO = Decimal(0)
_INF = float("inf")
# The smallest decimal that float() rounds to inf: halfway between the
# largest float64 and 2**1024.
_FLOAT_OVERFLOW = Decimal(2**1024 - 2**970)
# Bits of a provisional country id in a packed (product, importer, exporter)
# int64 key, which allows 2**29 distinct codes; the product takes the bits
# above both ids.
_ID_BITS = 29
_ID_MASK = (1 << _ID_BITS) - 1
# Characters a canonical country code may not hold, besides non-printable ones.
_UNWRITABLE = ',"<&'
# Characters of text a trade file is read in at a time, up to the end of the line.
_BLOCK_CHARS = 1 << 16
# Field that closes each line of a block str.split splits; a block holding it goes to csv.
_MARK = "\x01"
_COMMA = ord(",")


def sitc_to_product(code: str) -> int:
    """Map an SITC code string to its one-digit product index (leading digit)."""
    if not code:
        raise ValueError("empty SITC code")
    lead = code[0]
    if lead not in "0123456789":
        raise ValueError(f"invalid SITC code {code!r}: leading character must be a digit")
    return int(lead)


@dataclass(frozen=True)
class CountryRegistry:
    """Dense, alphabetically ordered index of canonical country codes.

    ``aggregation`` maps member codes onto their bloc code (e.g. DEU -> EUU);
    canonical codes are the post-aggregation ones and each gets a stable
    dense index in [0, n).
    """

    codes: tuple[str, ...]
    names: tuple[str, ...]
    aggregation: Mapping[str, str]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if list(self.codes) != sorted(self.codes):
            raise ValueError("registry codes must be sorted alphabetically")
        if len(set(self.codes)) != len(self.codes):
            raise ValueError("registry codes must be unique")
        if len(self.names) != len(self.codes):
            raise ValueError("one display name per code required")
        for member, bloc in self.aggregation.items():
            if bloc in self.aggregation:
                raise ValueError(f"aggregation chains not allowed: {member} -> {bloc} -> ...")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.codes)})

    @property
    def n(self) -> int:
        return len(self.codes)

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise UnknownCountryError(code) from None

    def __contains__(self, code: str) -> bool:
        return code in self._index


def _text_reader(source: IO[str] | Iterable[str] | str) -> tuple:
    """The text of ``source`` (a string becomes a stream) and a csv.reader of it, a leading U+FEFF dropped."""
    stream = io.StringIO(source, newline="") if isinstance(source, str) else source
    lines = iter(stream)
    return stream, csv.reader(chain((line.removeprefix("\ufeff") for line in islice(lines, 1)), lines))


def _parse_value(raw: str, line: int) -> Decimal:
    try:
        value = Decimal(raw.strip())
    except InvalidOperation:
        raise ParseError(line, f"non-numeric value {raw!r}") from None
    if not value.is_finite():
        raise ParseError(line, f"non-finite value {raw!r}")
    if value < 0:
        raise ParseError(line, f"negative value {raw!r}")
    if value >= _FLOAT_OVERFLOW:
        raise ParseError(line, f"value {raw!r} overflows float64")
    return value


def _read_header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, header expected") from None
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    header = [h.strip().lower() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ParseError(1, f"header misses column(s) {', '.join(missing)}")
    extras = [c for c in header if c not in REQUIRED_COLUMNS and c != FLOW_COLUMN]
    if extras:
        raise ParseError(1, f"unknown column(s) {', '.join(extras)}")
    duplicates = sorted({c for c in header if header.count(c) > 1})
    if duplicates:
        raise ParseError(1, f"duplicate column(s) {', '.join(duplicates)}")
    return header


@dataclass(frozen=True, eq=False)
class MoneyMatrix:
    """Money tensor: entry (p, c, c') = USD of product p exported from c' to c.

    Held as COO arrays sorted by (product, importer, exporter): int64
    ``product``/``importer``/``exporter`` indexes and float64 ``value``s,
    one entry per non-zero flow. The constructor validates and sorts them,
    drops zero values and makes the arrays read-only. The diagonal
    (c == c') is identically zero.
    """

    registry: CountryRegistry
    year: int
    product: np.ndarray
    importer: np.ndarray
    exporter: np.ndarray
    value: np.ndarray
    n_products: int = N_PRODUCTS

    def __post_init__(self):
        n = self.registry.n
        arrays = [np.asarray(getattr(self, name), dtype=np.int64) for name in COO_FIELDS[:3]]
        arrays.append(np.asarray(self.value, dtype=np.float64))
        product, importer, exporter, value = arrays
        if value.ndim != 1 or not product.shape == importer.shape == exporter.shape == value.shape:
            raise ValueError("product, importer, exporter and value must be 1-D arrays of one length")
        if np.any((product < 0) | (product >= self.n_products)):
            raise ValueError(f"product index outside 0-{self.n_products - 1}")
        if np.any((importer < 0) | (importer >= n) | (exporter < 0) | (exporter >= n)):
            raise ValueError("country index outside registry range")
        if np.any(importer == exporter):
            raise ValueError("diagonal entries (importer == exporter) must be zero")
        if not np.isfinite(value).all():
            raise ValueError("non-finite money entry (inf or nan)")
        if np.any(value < 0):
            raise ValueError("negative money entry")
        key = product * n   # (product * n + importer) * n + exporter, built in place
        key += importer
        key *= n
        key += exporter
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate money entry for one (product, importer, exporter)")
        del key
        keep = order[(value != 0)[order]]
        for name, array in zip(COO_FIELDS, arrays):
            array = array[keep]   # a copy: the caller's arrays are never aliased
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_countries(self) -> int:
        return self.registry.n

    def product_volumes(self) -> np.ndarray:
        """Total traded volume of each product, shape (n_products,)."""
        return np.bincount(self.product, weights=self.value, minlength=self.n_products)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only importer and exporter node ids p * n_countries + c of each entry, computed once."""
        importer = self.product * self.n_countries
        exporter = importer + self.exporter
        importer += self.importer
        importer.setflags(write=False)
        exporter.setflags(write=False)
        return importer, exporter

    def node_volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """Import and export volume of every node p * n_countries + c."""
        size = self.n_products * self.n_countries
        return tuple(np.bincount(nodes, weights=self.value, minlength=size) for nodes in self.nodes)

    def to_dense(self) -> np.ndarray:
        """Float64 array of shape (n_products, n_countries, n_countries)."""
        dense = np.zeros((self.n_products, self.registry.n, self.registry.n))
        dense[self.product, self.importer, self.exporter] = self.value
        return dense

    def transposed(self) -> "MoneyMatrix":
        """Money matrix with every flow reversed (importer <-> exporter)."""
        return replace(self, importer=self.exporter, exporter=self.importer)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        registry: CountryRegistry,
        year: int,
    ) -> "MoneyMatrix":
        """Build from a float array of shape (n_products, n, n), keeping its non-zero cells."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 3 or dense.shape[1] != dense.shape[2]:
            raise ValueError(f"expected shape (n_products, n, n), got {dense.shape}")
        if dense.shape[1] != registry.n:
            raise ValueError("country dimension does not match registry")
        cells = np.nonzero(dense)
        return cls(registry, year, *cells, dense[cells], n_products=dense.shape[0])


def read_money_matrix(
    source: IO[str] | Iterable[str] | str,
    year: int,
    aggregation: Mapping[str, str] | None = None,
) -> MoneyMatrix:
    """Read a header-bearing delimited trade file into the money tensor of ``year``.

    ``source`` is the file's text: a string, a text stream (a file opened
    with ``newline=""``, so that a quoted cell may hold a line break), or
    another iterable of lines, one line per item as :func:`csv.reader`
    takes them, which csv splits. The module docstring describes the
    splitting, the checks and the sums. The result does not depend on the
    row order, bit for bit. The registry holds the sorted canonical codes of
    every row of the year, self-flows included.

    Raises ParseError (naming the file line that ends the row, the first
    such line in the file) for structural problems, such as a row the csv
    module cannot split, for a value or a sum past the float64 range, for a
    canonical country code the output files cannot hold, and NoRecordsError
    when no row of ``year`` is left, or only self-flows. Raises WtnError
    naming each bloc of ``aggregation`` not among the year's canonical
    codes, as when it maps ISO codes and the file holds numeric ones.
    """
    aggregation = dict(aggregation or {})
    stream, reader = _text_reader(source)
    rows = _Rows(_read_header(reader), year, aggregation)
    try:
        if not hasattr(stream, "read"):
            rows.take_rows(reader, 0)
        else:
            line = reader.line_num   # lines consumed so far
            while block := stream.read(_BLOCK_CHARS):
                block += stream.readline()   # so the block ends where a line does
                columns = _plain_columns(block, rows.width)
                if columns is not None:
                    n = len(columns[0])
                    rows.take(columns, np.arange(line + 1, line + 1 + n))
                    del columns   # free the block's cells before the next block is read
                    line += n
                    continue
                quoted = '"' in block   # a quoted cell may hold a line break past the block
                lines = io.StringIO(block, newline="")
                reader = csv.reader(chain(lines, stream) if quoted else lines)
                rows.take_rows(reader, line)
                if quoted:
                    break
                line += reader.line_num
    except ParseError as exc:
        # a sum that overflowed on an earlier line was the first error in the file
        overflow = rows.totals()[2]
        if overflow is not None and overflow.line < exc.line:
            raise overflow from None
        raise
    keys, value, overflow = rows.totals()   # frees the row buffers
    if overflow is not None:
        raise overflow
    ids = rows.ids
    if not ids:
        raise NoRecordsError(year)
    unmatched = sorted(set(aggregation.values()).difference(ids))
    if unmatched:
        raise WtnError(f"aggregation onto {', '.join(unmatched)} matched no country code of {year}")
    ordered = tuple(sorted(ids))
    registry = CountryRegistry(codes=ordered, names=ordered, aggregation=aggregation)
    if not len(keys):
        raise NoRecordsError(year)
    position = np.array([registry._index[code] for code in ids], dtype=np.int64)
    product = keys >> 2 * _ID_BITS
    importer = position[keys >> _ID_BITS & _ID_MASK]
    exporter = position[keys & _ID_MASK]
    return MoneyMatrix(registry, year, product, importer, exporter, value)


def _plain_columns(text: str, width: int) -> list[list[str]] | None:
    """The cells of a block of whole lines, one list per column, split with ``str.split``.

    None when csv must split the block instead: it holds a quote, a NUL, a
    lone carriage return or the marker field, it is longer than csv's field
    limit, or a line is not ``width`` cells wide.
    """
    if '"' in text or "\0" in text or _MARK in text or len(text) > csv.field_size_limit():
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if not text.endswith("\n"):
        text += "\n"
    n = text.count("\n")
    stride = width + 1
    # a marker field closes each line, so rows of the right width put every marker at a stride
    fields = text.replace("\n", f",{_MARK},").split(",")
    if len(fields) != n * stride + 1 or fields[width::stride].count(_MARK) != n:
        return None
    del fields[-1]
    return [fields[i::stride] for i in range(width)]


class _Rows:
    """The flows of one read, row by row in file order, and the cells checked so far.

    :meth:`take` is the one place a row is checked. Each row of the year
    that is not a mirror report or a self-flow appends its packed (product,
    importer, exporter) key, its float value, its line and its value text to
    growing buffers, which :meth:`totals` sums to one entry per key and frees.
    """

    def __init__(self, header: list[str], year: int, aggregation: Mapping[str, str]):
        self.width = len(header)
        self.columns = tuple(map(header.index, REQUIRED_COLUMNS))
        self.i_flow = header.index(FLOW_COLUMN) if FLOW_COLUMN in header else None
        self.year = year
        self.aggregation = aggregation
        # per distinct raw cell that passed its check: year kept, flow kept,
        # provisional country id, product bits
        self.years: dict[str, bool] = {}
        self.flows: dict[str, bool] = {}
        self.countries: dict[str, int] = {}
        self.products: dict[str, int] = {}
        self.ids: dict[str, int] = {}   # canonical code -> provisional id, in order of first use
        self.keys = array("q")
        self.values = array("d")
        self.lines = array("q")
        # UTF-8 value texts, each followed by a "," that no value text holds;
        # text k runs from ends[k] + 1 to ends[k + 1]
        self.texts = bytearray()
        self.ends = array("q", [-1])

    def take(self, columns, lines) -> None:
        """Check and keep rows given as columns of cells, one sequence per header column.

        Row k ends on file line ``lines[k]``. When a check rejects a cell,
        the rows before the first rejected row are kept, then that row's
        checks are rerun with its line, in the order of ``tests``, which
        raises its ParseError.
        """
        year, aggregation, ids = self.year, self.aggregation, self.ids
        i_year, i_exporter, i_importer, i_sitc, i_value = self.columns
        country = lambda cell, line: _country_id(cell, line, aggregation, ids)
        tests = (   # in the order a row is checked
            (i_year, self.years, lambda cell, line: _year_kept(cell, year, line)),
            (self.i_flow, self.flows, _flow_kept),
            (i_exporter, self.countries, country),
            (i_importer, self.countries, country),
            (i_sitc, self.products, _product_bits),
            (i_value, None, _parse_value),
        )
        lines = np.asarray(lines, dtype=np.int64)
        rejected = {}   # line -> cells of a row a check rejects

        def reject(k):
            rejected[lines[k]] = [column[k] for column in columns]

        def checked(i, cache, test):
            """The distinct cells of column ``i``, caching each new one's ``test`` unless it fails."""
            distinct = set(columns[i])
            for cell in distinct.difference(cache):
                try:
                    cache[cell] = test(cell, 0)
                except ParseError:
                    reject(columns[i].index(cell))
            return distinct

        for i, cache, test in tests[:2]:
            if i is not None and not all(map(cache.get, checked(i, cache, test))):
                # keep the rows of the year, then their export rows; a rejected row is dropped too
                kept = list(map(cache.get, columns[i]))
                columns = [list(compress(column, kept)) for column in columns]
                lines = lines[np.array(kept, dtype=bool)]
        for check in tests[2:5]:
            checked(*check)
        texts = list(columns[i_value])
        try:
            values = np.fromiter(map(float, texts), np.float64, len(texts))
        except ValueError:   # a text float rejects: read every value exactly
            values = np.zeros(len(texts))
        for k in np.flatnonzero(~((0.0 < values) & (values < _INF))).tolist():
            # the Decimal's text also reads with float, which rejects some
            # forms Decimal takes, such as "1__0"
            try:
                text = str(_parse_value(texts[k], 0))
            except ParseError:
                reject(k)
                break
            values[k] = float(text)
            # also in a sum: 1 + 1e-999999999 exactly has 1e9 digits
            texts[k] = "0" if values[k] == 0.0 else text
        if rejected:
            # keep the rows before the first rejected one: a sum they overflow is an earlier error
            first = min(rejected)
            kept = lines < first
            columns = [list(compress(column, kept.tolist())) for column in columns]
            texts = list(compress(texts, kept.tolist()))
            values, lines = values[kept], lines[kept]
        exporter, importer, product = (
            np.fromiter(map(cache.__getitem__, columns[i]), np.int64, len(lines)) for i, cache, _ in tests[2:5]
        )
        keys = product | importer << _ID_BITS | exporter
        flow = exporter != importer
        if not flow.all():
            keys, values, lines = keys[flow], values[flow], lines[flow]
            texts = list(compress(texts, flow.tolist()))
        texts.append("")   # so that each text is followed by a ","
        encoded = ",".join(texts).encode()
        ends = np.flatnonzero(np.frombuffer(encoded, np.uint8) == _COMMA) + len(self.texts)
        self.texts += encoded
        for buffer, new in ((self.ends, ends), (self.keys, keys), (self.values, values), (self.lines, lines)):
            buffer.frombytes(new.tobytes())
        if rejected:
            for i, _, test in tests:
                if i is not None:
                    test(rejected[first][i], int(first))

    def take_rows(self, reader, line: int) -> None:
        """Take the rows csv splits, in chunks; ``line`` is the line before the reader's first.

        A row of the wrong width, or one csv cannot split, ends the rows:
        the rows before it are taken first, so the first bad line wins.
        """
        width, error = self.width, None
        limit = _BLOCK_CHARS // 64 + 1   # a block's worth of rows of 64 characters
        chunk, lines = [], []
        try:
            for row in reader:
                if len(row) == width:
                    chunk.append(row)
                    lines.append(line + reader.line_num)
                    if len(chunk) == limit:
                        self.take(list(zip(*chunk)), lines)
                        chunk, lines = [], []
                elif row:
                    error = ParseError(line + reader.line_num, f"expected {width} columns, found {len(row)}")
                    break
        except csv.Error as exc:
            error = ParseError(line + reader.line_num, str(exc))
        if chunk:
            self.take(list(zip(*chunk)), lines)
        if error is not None:
            raise error

    def totals(self) -> tuple[np.ndarray, np.ndarray, ParseError | None]:
        """The distinct keys in ascending order, the float of each one's flow, and any sum overflow.

        A key met once keeps its row's float. The rows of a key met more
        than once are summed exactly in Decimal from their text, in file
        order, and the sum is rounded to float once. The overflow is the
        ParseError of the first line at which a sum passes the float64
        range, or None. It holds one stable permutation, the keys and values
        gathered through it and a mark on each row that repeats the key before;
        only the rows of repeated keys are indexed. It frees the row buffers.
        """
        # each key's rows stay in file order; each buffer is freed once gathered
        order = np.argsort(np.frombuffer(self.keys, dtype=np.int64), kind="stable")
        keys, self.keys = np.frombuffer(self.keys, dtype=np.int64)[order], None
        values, self.values = np.frombuffer(self.values, dtype=np.float64)[order], None
        repeat = np.zeros(len(keys), dtype=bool)
        repeat[1:] = keys[1:] == keys[:-1]
        at = np.flatnonzero(repeat)
        heads = at[~repeat[at - 1]] - 1   # the first row of each repeated key
        positions = np.sort(np.concatenate((heads, at)))   # the rows of repeated keys, key by key
        bounds = np.append(np.searchsorted(positions, heads), len(positions)).tolist()
        rows = order[positions]
        del order
        ends = np.frombuffer(self.ends, dtype=np.int64)
        starts, stops = ends[rows] + 1, ends[rows + 1]
        overflow = None
        with localcontext() as ctx:
            ctx.prec = _MONEY_PRECISION
            for head, a, b in zip(heads.tolist(), bounds[:-1], bounds[1:]):
                parts = [
                    Decimal(self.texts[s:t].decode().strip())
                    for s, t in zip(starts[a:b].tolist(), stops[a:b].tolist())
                ]
                total = sum(parts, _ZERO)
                values[head] = float(total)
                if total >= _FLOAT_OVERFLOW:
                    # the running sum only grows; it is checked from the key's second row on
                    n = max(2, bisect_left(list(accumulate(parts, initial=_ZERO)), _FLOAT_OVERFLOW))
                    line = self.lines[rows[a + n - 1]]
                    if overflow is None or line < overflow.line:
                        codes, key = list(self.ids), int(keys[head])
                        importer, exporter = codes[key >> _ID_BITS & _ID_MASK], codes[key & _ID_MASK]
                        flow = f"(product {key >> 2 * _ID_BITS}, importer {importer}, exporter {exporter})"
                        overflow = ParseError(line, f"sum of flow {flow} overflows float64")
        self.lines = self.ends = self.texts = None
        if len(at):
            keys, values = keys[~repeat], values[~repeat]
        return keys, values, overflow


def _year_kept(cell: str, year: int, line: int) -> bool:
    try:
        return int(cell.strip()) == year
    except ValueError:
        raise ParseError(line, f"non-numeric year {cell!r}") from None


def _flow_kept(cell: str, line: int) -> bool:
    flow = cell.strip().lower()
    if flow not in _EXPORT_FLOWS and flow not in _IMPORT_FLOWS:
        raise ParseError(line, f"unknown flow direction {cell!r}")
    return flow in _EXPORT_FLOWS


def _country_id(cell: str, line: int, aggregation: Mapping[str, str], ids: dict[str, int]) -> int:
    code = cell.strip()
    if not code:
        raise ParseError(line, "empty country code")
    canonical = aggregation.get(code, code)
    # the CSV writers emit codes unquoted and the SVG writer inside XML text
    if not canonical.isprintable() or any(c in canonical for c in _UNWRITABLE):
        raise ParseError(
            line, f"country code {canonical!r} holds a non-printable character, ',', '\"', '<' or '&'"
        )
    return ids.setdefault(canonical, len(ids))


def _product_bits(cell: str, line: int) -> int:
    try:
        return sitc_to_product(cell.strip()) << 2 * _ID_BITS
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None


def read_aggregation_file(source: IO[str] | Iterable[str] | str) -> dict[str, str]:
    """Read a ``member_code,bloc_code`` file (header line required).

    ``source`` is the file's text, in the forms :func:`read_money_matrix`
    takes. A ParseError names the file line that ends the offending row.
    """
    reader = _text_reader(source)[1]
    mapping: dict[str, str] = {}
    try:
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ParseError(1, "empty aggregation file") from None
        if header != ["member_code", "bloc_code"]:
            raise ParseError(1, "aggregation header must be 'member_code,bloc_code'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(reader.line_num, f"expected 2 columns, found {len(row)}")
            member, bloc = row[0].strip(), row[1].strip()
            if not member or not bloc:
                raise ParseError(reader.line_num, "empty code in aggregation pair")
            if member in mapping and mapping[member] != bloc:
                raise ParseError(reader.line_num, f"member {member} mapped to two blocs")
            mapping[member] = bloc
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    return mapping


def load_money_matrix(
    path,
    year: int,
    aggregation: Mapping[str, str] | None = None,
) -> MoneyMatrix:
    """Open ``path`` (UTF-8, with or without a byte-order mark) and read it with :func:`read_money_matrix`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_money_matrix(fh, year, aggregation)
