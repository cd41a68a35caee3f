"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``)
into the per-product money tensor in one pass: each row is checked, its
country codes are mapped onto their bloc (e.g. the 27 EU members collapsed
onto ``EUU``), self-flows are dropped and every other row's key, value and
value text (and line, once a sum could overflow) are kept for the sums.

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
rows; each is summed exactly, at ``decimal.MAX_PREC``, from its rows' text
in file order, and the sum is rounded to float64 once. Either way each flow
is rounded once, into the one entry :class:`MoneyMatrix` holds for it. The
country registry is the sorted set of canonical codes of every row of the
year.
"""

from __future__ import annotations

import binascii
import csv
import io
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import MAX_PREC, Decimal, InvalidOperation, localcontext
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
# Bits of a provisional country id in a packed (product, importer, exporter)
# int64 key, which allows 2**29 distinct codes; the product takes the bits
# above both ids.
_ID_BITS = 29
_ID_MASK = (1 << _ID_BITS) - 1
# Characters a canonical country code may not hold, besides non-printable ones.
_UNWRITABLE = ',"<&'
# Characters of text read at a time, up to the end of the line; a quarter is the value text bytes scanned at a time.
_BLOCK_CHARS = 1 << 16
# Field that closes each line of a block str.split splits; a block holding it goes to csv.
_MARK = "\x01"
# A value text's UTF-8 bytes as hex digits, for unhexlify to pack two a byte: 0-9 as they are,
# ".eE+-" as a-d, the "," that closes each text as e and any other byte as x, which it rejects.
# A block of an odd length ends in a pad f.
_PACK = bytes(dict(zip(b"0123456789.eE+-,", b"0123456789abbcde")).get(c, ord("x")) for c in range(256))
_UNPACK = bytes.maketrans(b"abcd", b".e+-")
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
        exporter = out - (into - into % n)   # the exporter's country index in its importer's product
        if np.any((exporter < 0) | (exporter >= n)):
            raise ValueError("exporter node outside its importer's product: country index outside registry range")
        if np.any(into == out):
            raise ValueError("diagonal entries (importer == exporter) must be zero")
        if not np.isfinite(value).all():
            raise ValueError("non-finite money entry (inf or nan)")
        if np.any(value < 0):
            raise ValueError("negative money entry")
        key = into * n + exporter
        del exporter
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate money entry for one (importer node, exporter node)")
        del key
        keep = order[(value != 0)[order]]
        del order
        nodes = into[keep], out[keep]   # copies: the caller's arrays are never aliased
        value = value[keep]
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
    first = (keys >> 2 * _ID_BITS) * registry.n   # the node id of each flow's product's first country
    nodes = first + position[keys >> _ID_BITS & _ID_MASK], first + position[keys & _ID_MASK]
    del keys, first
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
    that is not a mirror report or a self-flow appends its packed (product,
    importer, exporter) key and float value to 8-byte row buffers and its
    value text, two characters a byte, to a text buffer, which
    :meth:`totals` sums to one entry per key and frees. Rows keep their line
    only from the block that takes the kept values' float total to half the
    largest float64; no sum can overflow before it, so the rows of a trade
    file keep none.
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
        self.total = 0.0   # of the kept values, in float; no key's exact sum is larger, up to rounding
        self.lines = array("q")   # of the last rows, from the block that takes the total to _HALF_MAX
        # packed value texts, each closed by a "," (an e nibble) that no text holds: row k's ends at the k-th
        self.texts = bytearray()

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
        self.texts += _packed(texts)
        self.keys.frombytes(keys.tobytes())
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

        A key met once keeps its row's float. The rows of a key met more
        than once are summed exactly in Decimal from their text, in file
        order, and the sum is rounded to float once, into the key's first
        row. The overflow is the ParseError of the first line at which a sum
        passes the float64 range, or None. One sorted copy of the keys finds
        the repeated ones and a ``searchsorted`` marks their rows; only those
        rows are grouped by a stable argsort and have their texts' bytes found
        by :func:`_text_ends`; ``hexlify`` and ``_UNPACK`` read each back, its
        "," and pad nibbles deleted. It frees the text before the rows are
        compacted.
        """
        keys, values = np.frombuffer(self.keys, dtype=np.int64), np.frombuffer(self.values, dtype=np.float64)
        self.keys = self.values = None
        ordered = np.sort(keys)
        repeated = np.append(-1, ordered[1:][ordered[1:] == ordered[:-1]])   # a key per later row; -1 is none
        del ordered
        at = np.searchsorted(repeated, keys)
        single = np.take(repeated, at, out=at, mode="clip") != keys
        del at, repeated
        rows = np.flatnonzero(~single)   # the rows of repeated keys, ascending
        group = np.argsort(keys[rows], kind="stable")   # each key's rows stay in file order
        starts, stops = _text_ends(self.texts, rows)
        rows = rows[group]   # one copy at a time
        starts = starts[group]
        stops = stops[group]
        del group
        grouped = keys[rows]
        firsts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1   # each key's first row, but the first key's
        del grouped
        bounds = [0, *firsts.tolist(), len(rows)] if len(rows) else []
        texts, overflow = self.texts, None
        with localcontext() as ctx:
            ctx.prec = _MONEY_PRECISION
            for a, b in zip(bounds[:-1], bounds[1:]):
                spans = zip(starts[a:b].tolist(), stops[a:b].tolist())
                parts = [Decimal(binascii.hexlify(texts[i:j]).translate(_UNPACK, b"ef").decode()) for i, j in spans]
                total = sum(parts, _ZERO)
                values[rows[a]] = float(total)
                if total >= _FLOAT_OVERFLOW:
                    # the running sum only grows; it is checked from the key's second row on
                    n = max(2, bisect_left(list(accumulate(parts, initial=_ZERO)), _FLOAT_OVERFLOW))
                    line = self.lines[rows[a + n - 1] - len(keys) + len(self.lines)]   # self.lines holds the last rows
                    if overflow is None or line < overflow.line:
                        codes, key = list(self.ids), int(keys[rows[a]])
                        importer, exporter = codes[key >> _ID_BITS & _ID_MASK], codes[key & _ID_MASK]
                        flow = f"(product {key >> 2 * _ID_BITS}, importer {importer}, exporter {exporter})"
                        overflow = ParseError(line, f"sum of flow {flow} overflows float64")
        self.lines = self.texts = texts = None
        if len(rows):
            single[rows[bounds[:-1]]] = True   # a repeated key's first row holds its sum
            keys, values = keys[single], values[single]
        return keys, values, overflow


def _packed(texts: list[str]) -> bytes:
    """The texts joined by ",", two characters a byte, each that holds another character as its Decimal's text."""
    block = ",".join(texts).encode().translate(_PACK)
    try:
        return binascii.unhexlify(block + b"f" if len(block) % 2 else block)
    except binascii.Error:   # a text holds another character, such as a space, "_" or a non-ASCII digit
        return _packed([text if _PLAIN.issuperset(text) else str(Decimal(text)) for text in texts])


def _text_ends(texts: bytearray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the packed texts of the ascending ``rows`` start and stop in ``texts``, in bytes.

    Row k's text ends at the k-th e nibble, its ",", and starts after the one
    before; its bytes may also hold those two e nibbles and a pad f, but no
    other text's. One scan reads ``texts`` in pieces and keeps where the last
    text of the piece before ends.
    """
    starts, stops = np.empty(len(rows), dtype=np.int64), np.empty(len(rows), dtype=np.int64)
    ends, seen, found = np.zeros(1, dtype=np.int64), 0, 0   # ends[-1] is where the last text so far ends
    size = max(_BLOCK_CHARS // 4, 1)   # so that a piece's masks stay below the peak of the rest of totals
    for start in range(0, len(texts) if len(rows) else 0, size):
        piece = np.frombuffer(texts, np.uint8, min(size, len(texts) - start), start)
        # a "," in the high nibble of byte i ends its text's bytes at i, in the low one at i + 1; no pad is
        # high, and no byte holds two, as no text is empty, so the ends ascend with the bytes
        low = (piece & 15) == 14
        comma = piece >= 0xE0
        comma |= low
        hits = np.flatnonzero(comma)
        del comma
        hits += low[hits]
        del low
        hits += start
        ends = np.concatenate((ends[-1:], hits))
        del hits
        stop = found + int(np.searchsorted(rows[found:], seen + len(ends) - 1))
        at = rows[found:stop] - seen
        starts[found:stop], stops[found:stop] = ends[at], ends[at + 1]
        seen, found = seen + len(ends) - 1, stop
    return starts, stops


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
