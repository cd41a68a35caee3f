"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``)
into the per-product money tensor in one pass: each row is checked, its
country codes are mapped onto their bloc (e.g. the 27 EU members collapsed
onto ``EUU``), self-flows are dropped and every other row's 4-byte (product,
importer, exporter) key, value and value text (and line, once a sum could
overflow) are kept for the sums. The key gives each country 14 bits, so a
read takes at most 16,384 distinct canonical codes.

The text is read in blocks of about 64K characters of whole lines. While a
block has no quote, NUL or lone carriage return and every line has the
header's width, it is split into columns with ``str.split``. One csv reader
splits the first block that does not and the rest of the input after it,
or every line after the header of an iterable of lines, and hands its rows
on as columns, about a block's worth at a time. Either way one check takes
the columns: each distinct year, flow, country and SITC cell is checked and
mapped once, the flow, country and SITC cells only in rows of the year that
are not mirror reports, and the first row with a rejected cell raises its
ParseError with its line.

Every value is read with ``float``, which rounds a decimal string
correctly (Clinger, PLDI 1990), so a key with one row takes that float64,
and a value it rounds to 0 counts as 0. Its text is kept too, two characters
a byte: a text of digits, ".", "e", "E", "+" and "-" as it is, any other
(one with a space, a "_" or a non-ASCII digit) as its exact ``Decimal``'s
text. After the pass, a sorted copy of the keys finds those with two or more
rows and counts each one's rows. Their texts are read back in file order, a
block at a time, and each is summed exactly, at ``decimal.MAX_PREC``: the
pass holds one running ``Decimal`` per such key whose rows have not all been
read, and rounds it to float64 once, at the key's last row. Either way each
flow is rounded once, into the one entry :class:`MoneyMatrix` holds for it.
The country registry is the sorted set of canonical codes of every row of
the year.
"""

from __future__ import annotations

import binascii
import csv
import io
import math
import sys
from array import array
from dataclasses import dataclass, field
from decimal import MAX_PREC, Decimal, InvalidOperation, localcontext
from itertools import chain, compress, islice
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
# A float total of the values below it leaves every exact sum below _FLOAT_OVERFLOW.
_HALF_MAX = sys.float_info.max / 2
# Bits of a provisional country id in a packed 4-byte (product, importer, exporter) key of
# 4 + 14 + 14 bits: a read takes at most 2**14 = 16,384 distinct canonical codes, and no
# key reaches _NO_KEY, as no product passes 9.
_ID_BITS = 14
_ID_MASK = (1 << _ID_BITS) - 1
_NO_KEY = np.uint32(2**32 - 1)
# MoneyMatrix sorts fewer entries than this with a 4-byte permutation.
_INT32_LIMIT = 2**31
# Characters a canonical country code may not hold, besides non-printable ones.
_UNWRITABLE = ',"<&'
# Characters of text read at a time, up to the end of the line; a quarter is the keys marked at a time.
_BLOCK_CHARS = 1 << 16
# Field that closes each line of a block str.split splits; a block holding it goes to csv.
_MARK = "\x01"
# A value text's UTF-8 bytes as hex digits, for unhexlify to pack two a byte: 0-9 as they are,
# ".eE+-" as a-d, the "," that closes each text as e and any other byte as x, which it rejects.
# A block of an odd length ends in a pad f. _UNPACK maps a-e back to ".e+-,".
_PACK = bytes(dict(zip(b"0123456789.eE+-,", b"0123456789abbcde")).get(c, ord("x")) for c in range(256))
_UNPACK = bytes.maketrans(b"abcde", b".e+-,")
_PLAIN = frozenset("0123456789.eE+-")


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
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.codes)})

    @property
    def n(self) -> int:
        return len(self.codes)

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise UnknownCountryError(code, self.aggregation.get(code)) from None


def _text_reader(source: IO[str] | Iterable[str] | str) -> tuple:
    """The lines of ``source`` (a string becomes a stream) and a csv.reader of them, a leading U+FEFF dropped."""
    lines = iter(io.StringIO(source, newline="") if isinstance(source, str) else source)
    return lines, csv.reader(chain((line.removeprefix("\ufeff") for line in islice(lines, 1)), lines))


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


@dataclass(frozen=True, eq=False, init=False)
class MoneyMatrix:
    """Money tensor: entry (p, c, c') = USD of product p exported from c' to c.

    Holds each non-zero flow once, sorted by (product, importer, exporter):
    its read-only int64 importer and exporter node ids ``nodes`` (p * n + c,
    which both link matrices share) and float64 ``value``, 24 bytes a flow.
    Product p's flows are ``blocks[p]:blocks[p + 1]``. The constructor takes
    the pair (importer node ids, exporter node ids) and values in any order,
    validates and sorts them and drops zero values. The diagonal (c == c') is zero.
    The total T must leave 2 n T finite, which bounds every float64 intermediate:
    a column sum (<= T), a node's volume (<= 2T), the uniform teleport's n T, and
    each of these once the sensitivities scale a slice by 1 + h < 2 (``analysis._differences``).
    """

    registry: CountryRegistry
    year: int
    nodes: tuple[np.ndarray, np.ndarray]
    value: np.ndarray
    blocks: np.ndarray
    n_products: int

    def __init__(self, registry, year, nodes, value, n_products=N_PRODUCTS):
        n = registry.n
        into, out = (np.asarray(a, dtype=np.int64) for a in nodes)
        value = np.asarray(value, dtype=np.float64)
        if value.ndim != 1 or not into.shape == out.shape == value.shape:
            raise ValueError("importer nodes, exporter nodes and value must be 1-D arrays of one length")
        if np.any((into < 0) | (into >= n_products * n)):
            raise ValueError(f"importer node's product index outside 0-{n_products - 1}")
        exporter = into % n
        exporter -= into
        exporter += out   # the exporter's country index in its importer's product
        if np.any((exporter < 0) | (exporter >= n)):
            raise ValueError("exporter node outside its importer's product: country index outside registry range")
        if np.any(into == out):
            raise ValueError("diagonal entries (importer == exporter) must be zero")
        if not np.isfinite(value).all():
            raise ValueError("non-finite money entry (inf or nan)")
        if np.any(value < 0):
            raise ValueError("negative money entry")
        with np.errstate(over="ignore"):   # an inf total is reported below, not warned about
            total = float(value.sum())
        if not math.isfinite(2 * n * total):
            raise ValueError(f"total flow {total:.6g} over {n} countries is past the float64 headroom "
                             f"{np.finfo(float).max / (2 * n):.6g} (largest float / 2n); scale the values down")
        key = into * n
        key += exporter
        del exporter
        order = np.argsort(key, kind="stable")
        del key
        order = order.astype(np.int32 if len(order) < _INT32_LIMIT else np.int64, copy=False)
        nodes = into[order], out[order]   # copies: the caller's arrays are never aliased
        value = value[order]
        del order
        if np.any((nodes[0][1:] == nodes[0][:-1]) & (nodes[1][1:] == nodes[1][:-1])):
            raise ValueError("duplicate money entry for one (importer node, exporter node)")
        kept = value != 0
        if not kept.all():
            nodes, value = (nodes[0][kept], nodes[1][kept]), value[kept]
        blocks = np.searchsorted(nodes[0], n * np.arange(n_products + 1))
        for array in (*nodes, value, blocks):
            array.setflags(write=False)
        vars(self).update(registry=registry, year=year, nodes=nodes, value=value, blocks=blocks, n_products=n_products)

    @property
    def n_countries(self) -> int:
        return self.registry.n

    def product_volumes(self) -> np.ndarray:
        """Total traded volume of each product, shape (n_products,)."""
        return np.bincount(self.nodes[0] // self.n_countries, weights=self.value, minlength=self.n_products)

    def node_volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """Import and export volume of every node p * n_countries + c."""
        size = self.n_products * self.n_countries
        return tuple(np.bincount(nodes, weights=self.value, minlength=size) for nodes in self.nodes)

    def to_dense(self) -> np.ndarray:
        """Float64 array of shape (n_products, n_countries, n_countries)."""
        n = self.n_countries
        dense = np.zeros((self.n_products, n, n))
        dense.reshape(self.n_products * n, n)[self.nodes[0], self.nodes[1] % n] = self.value   # row p * n + c
        return dense

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
        product, importer, exporter = cells = np.nonzero(dense)
        into = product * registry.n + importer
        return cls(registry, year, (into, into - importer + exporter), dense[cells], n_products=dense.shape[0])


def read_money_matrix(
    source: IO[str] | Iterable[str] | str,
    year: int,
    aggregation: Mapping[str, str] | None = None,
) -> MoneyMatrix:
    """Read a header-bearing delimited trade file into the money tensor of ``year``.

    ``source`` is the file's text: a string or a text stream (a file opened
    with ``newline=""``, so that a quoted cell may hold a line break and a
    lone carriage return ends a line), read in blocks until csv must split
    one, or another iterable of lines, one line per item as
    :func:`csv.reader` takes them, which csv splits whole.
    The module docstring describes the splitting, the checks and the sums.
    The result does not depend on the row order, bit for bit. The registry
    holds the sorted canonical codes of every row of the year, self-flows
    included.

    Raises ParseError (naming the file line that ends the row, the first
    such line in the file) for structural problems, such as a row the csv
    module cannot split, for a value or a sum past the float64 range, for a
    canonical country code the output files cannot hold, and NoRecordsError
    when no row of ``year`` is left, or only self-flows. Raises WtnError
    naming each bloc of ``aggregation`` not among the year's canonical
    codes, as when it maps ISO codes and the file holds numeric ones, and
    ValueError, before any row is read, when a bloc is itself a member of
    another bloc. A code mapped onto itself is left as it is.
    """
    aggregation = {member: bloc for member, bloc in (aggregation or {}).items() if member != bloc}
    for member, bloc in aggregation.items():
        if bloc in aggregation:
            raise ValueError(f"aggregation chains not allowed: {member} -> {bloc} -> ...")
    lines, reader = _text_reader(source)
    rows = _Rows(_read_header(reader), year, aggregation)
    line = reader.line_num   # lines consumed so far
    try:
        while hasattr(lines, "read") and (block := lines.read(_BLOCK_CHARS)):   # a stream is its own lines
            block += lines.readline()   # so the block ends where a line does
            columns = _plain_columns(block, rows.width)
            if columns is None:
                lines = chain(io.StringIO(block, newline=""), lines)
                break
            del block   # the cells hold what take needs of it
            n = len(columns[0])
            rows.take(columns, np.arange(line + 1, line + 1 + n))
            del columns   # free the block's cells before the next block is read
            line += n
        if not hasattr(lines, "read"):   # the lines of an iterable, or from the first block str.split refused
            rows.take_rows(csv.reader(lines), line)
    except ParseError:
        # the rows kept before a parse error come before its line, so a sum they overflow is the first error
        overflow = rows.totals()[2]
        if overflow is not None:
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
    nodes = position[keys >> _ID_BITS & _ID_MASK], position[keys & _ID_MASK]
    for node in nodes:
        node += (keys >> 2 * _ID_BITS) * registry.n   # the node id of the flow's product's first country
    del keys
    return MoneyMatrix(registry, year, nodes, value)


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
    that is not a mirror report or a self-flow appends its packed 4-byte
    (product, importer, exporter) key and float64 value to row buffers, 12
    bytes a row, and its value text, two characters a byte, to a text
    buffer; ``starts`` records where each taken block's rows and text bytes
    start. :meth:`totals` sums them to one entry per key and frees them.
    Rows keep their line only from the block that takes the kept values'
    float total to half the largest float64; no sum can overflow before it,
    so the rows of a trade file keep none.
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
        self.keys = bytearray()   # the packed 4-byte keys
        self.values = array("d")
        self.total = 0.0   # of the kept values, in float; no key's exact sum is larger, up to rounding
        self.lines = array("q")   # of the last rows, from the block that takes the total to _HALF_MAX
        # packed value texts, each closed by a "," (an e nibble) that no text holds: row k's ends at the k-th
        self.texts = bytearray()
        self.starts: list[tuple[int, int]] = []   # each taken block's first row and first text byte

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

        def checked(cache, test, *cells):
            """The distinct cells of the columns ``cells``, caching each new one's ``test`` unless it fails.

            New cells are tested in the order the rows first use them, so country ids follow the file.
            """
            distinct = set().union(*cells)
            new = distinct.difference(cache)
            if new:
                for cell in [cell for cell in dict.fromkeys(chain.from_iterable(zip(*cells))) if cell in new]:
                    try:
                        cache[cell] = test(cell, 0)
                    except ParseError:
                        reject(next(k for k, row in enumerate(zip(*cells)) if cell in row))
            return distinct

        for i, cache, test in tests[:2]:
            if i is not None and not all(map(cache.get, checked(cache, test, columns[i]))):
                # keep the rows of the year, then their export rows; a rejected row is dropped too
                kept = list(map(cache.get, columns[i]))
                columns = [list(compress(column, kept)) for column in columns]
                lines = lines[np.array(kept, dtype=bool)]
        checked(self.countries, country, columns[i_exporter], columns[i_importer])
        checked(self.products, _product_bits, columns[i_sitc])
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
            np.fromiter(map(cache.__getitem__, columns[i]), np.uint32, len(lines)) for i, cache, _ in tests[2:5]
        )
        keys = product | importer << _ID_BITS | exporter
        flow = exporter != importer
        if not flow.all():
            keys, values, lines = keys[flow], values[flow], lines[flow]
            texts = list(compress(texts, flow.tolist()))
        texts.append("")   # so that each text is followed by a ","
        self.starts.append((len(self.values), len(self.texts)))
        self.texts += _packed(texts)
        self.keys += keys.tobytes()
        self.values.frombytes(values.tobytes())
        with np.errstate(over="ignore"):
            self.total += float(values.sum())
        if self.total >= _HALF_MAX:
            self.lines.frombytes(lines.tobytes())
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
        """The distinct keys in any order, the float of each one's flow, and any sum overflow.

        A key met once keeps its row's float. One sorted copy of the 4-byte
        keys finds the keys met more than once and how many rows each has,
        and a ``searchsorted`` marks their rows, a piece at a time. Those
        rows are read back in file order, one taken block at a time: a block
        that holds one is ``hexlify``-ed once and split at its "," nibbles,
        and each row adds its text's Decimal to its key's running sum. At
        the key's last row the exact sum is rounded to float once, into that
        row, and dropped, so the pass holds one running Decimal per repeated
        key whose rows have not all been read. The overflow is the
        ParseError of the first line at which a running sum passes the
        float64 range, or None; with one, the keys and floats are returned
        unsummed. It frees the text before the rows are compacted.
        """
        keys, values = np.frombuffer(self.keys, dtype=np.uint32), np.frombuffer(self.values, dtype=np.float64)
        starts, texts, lines = self.starts + [(len(keys), len(self.texts))], self.texts, self.lines
        self.keys = self.values = self.starts = self.texts = self.lines = None
        ordered = np.sort(keys)
        repeated = np.append(ordered[1:][ordered[1:] == ordered[:-1]], _NO_KEY)   # a key per later row, then none
        del ordered
        single, size = np.empty(len(keys), dtype=bool), max(_BLOCK_CHARS // 4, 1)   # no full-length int64 index
        for start in range(0, len(keys), size):
            piece = keys[start:start + size]
            single[start:start + size] = repeated[np.searchsorted(repeated, piece)] != piece
        ends = np.flatnonzero(repeated[1:] != repeated[:-1])   # each repeated key's last entry
        distinct = repeated[ends]   # the repeated keys, ascending
        left = (np.diff(ends, prepend=-1) + 1).tolist()   # each one's rows not yet read
        del repeated, ends
        sums = {}   # index into distinct -> running sum, while some of its key's rows are not read
        with localcontext() as ctx:
            ctx.prec = _MONEY_PRECISION
            for (start, at), (stop, end) in zip(starts[:-1], starts[1:]):
                rows = np.flatnonzero(~single[start:stop])
                if not len(rows):
                    continue
                parts = binascii.hexlify(texts[at:end]).translate(_UNPACK, b"f").decode().split(",")
                for k, j in zip(rows.tolist(), np.searchsorted(distinct, keys[start:stop][rows]).tolist()):
                    total = sums.get(j, _ZERO) + Decimal(parts[k])
                    if total >= _FLOAT_OVERFLOW:   # rows arrive in file order, so no sum passed on an earlier line
                        codes, key = list(self.ids), int(distinct[j])
                        importer, exporter = codes[key >> _ID_BITS & _ID_MASK], codes[key & _ID_MASK]
                        flow = f"(product {key >> 2 * _ID_BITS}, importer {importer}, exporter {exporter})"
                        line = lines[start + k - len(keys) + len(lines)]   # lines holds the last rows
                        return keys, values, ParseError(line, f"sum of flow {flow} overflows float64")
                    left[j] -= 1
                    if left[j]:
                        sums[j] = total
                    else:   # the key's last row holds its sum
                        del sums[j]
                        values[start + k] = float(total)
                        single[start + k] = True
        del texts
        if not single.all():
            keys, values = keys[single], values[single]
        return keys, values, None


def _packed(texts: list[str]) -> bytes:
    """The texts joined by ",", two characters a byte, each that holds another character as its Decimal's text."""
    block = ",".join(texts).encode().translate(_PACK)
    try:
        return binascii.unhexlify(block + b"f" if len(block) % 2 else block)
    except binascii.Error:   # a text holds another character, such as a space, "_" or a non-ASCII digit
        return _packed([text if _PLAIN.issuperset(text) else str(Decimal(text)) for text in texts])


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
    if canonical not in ids and len(ids) > _ID_MASK:
        raise ParseError(line, f"country code {canonical!r} is past the {len(ids):,} distinct country codes a read takes")
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
