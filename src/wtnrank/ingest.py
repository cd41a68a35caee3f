"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``)
into the per-product money tensor in one pass over the rows: each row is
checked, its country codes are mapped onto their bloc (e.g. the 27 EU
members collapsed onto ``EUU``), self-flows are dropped and every other
value is added to the sum of its (product, importer, exporter) key. Each
distinct year, flow, country and SITC cell is checked and mapped once.

Every value is read with ``float``, which rounds a decimal string
correctly (Clinger, PLDI 1990), so a key with one row takes that float64.
A key with two or more rows is summed exactly in :class:`decimal.Decimal`
from the rows' text, and the sum is rounded to float64 once after the
pass. Either way each flow is rounded once, into the COO arrays of
:class:`MoneyMatrix`. The country registry is the sorted set of canonical
codes of every row of the year.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, localcontext
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import NoRecordsError, ParseError, UnknownCountryError

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

# Decimal precision for summing the values of one key. A float's exact
# decimal expansion, the form testkit.write_trade_file writes, carries up to
# ~60 significant digits for values of 1e-3 to 1e9, so a sum with more than
# 50 digits is rounded twice: to 50 digits here, then to float64.
_MONEY_PRECISION = 50
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


def _as_text(source: IO[str] | Iterable[str] | str) -> Iterable[str]:
    return io.StringIO(source) if isinstance(source, str) else source


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
        key = (product * n + importer) * n + exporter
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("duplicate money entry for one (product, importer, exporter)")
        keep = order[value[order] != 0]
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

    def node_volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """Import and export volume of every node p * n_countries + c."""
        base = self.product * self.n_countries
        size = self.n_products * self.n_countries
        imports = np.bincount(base + self.importer, weights=self.value, minlength=size)
        exports = np.bincount(base + self.exporter, weights=self.value, minlength=size)
        return imports, exports

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

    ``source`` is the file's text: a string, or a text stream or another
    iterable of lines (a file opened with ``newline=""``, so that a quoted
    cell may hold a line break).

    One pass over the rows: each row of ``year`` is checked, its codes are
    mapped onto their bloc, and its value joins the sum of its (product,
    importer, exporter) key, unless the flow is a self-flow. Each distinct
    year, flow, country and SITC cell is checked and mapped once. Each value
    is read with ``float``, which rounds correctly, and a key met once keeps
    that float; a key met again is summed exactly in Decimal from its rows'
    text, and the sum is rounded to float after the pass. Either way each
    flow is rounded once, so the result does not depend on the row order,
    bit for bit. The registry holds the sorted canonical codes of every row
    of the year, self-flows included.

    Raises ParseError (naming the file line that ends the row) for
    structural problems, such as a row the csv module cannot split, for a
    value or a sum past the float64 range, for a canonical country code the
    output files cannot hold, and NoRecordsError when no row of ``year`` is
    left, or only self-flows.
    """
    aggregation = dict(aggregation or {})
    reader = csv.reader(_as_text(source))
    header = _read_header(reader)
    width = len(header)
    i_year, i_exporter, i_importer, i_sitc, i_value = map(header.index, REQUIRED_COLUMNS)
    i_flow = header.index(FLOW_COLUMN) if FLOW_COLUMN in header else None
    # per distinct raw cell: year kept, flow kept, provisional country id, product bits
    years: dict[str, bool] = {}
    flows: dict[str, bool] = {}
    countries: dict[str, int] = {}
    products: dict[str, int] = {}
    ids: dict[str, int] = {}   # canonical code -> provisional id, in order of first use
    # key -> raw value of its only row so far, or the exact Decimal sum of its rows
    sums: dict[int, str | Decimal] = {}
    firsts = array("d")   # float of each key's first row, in the order of sums
    # csv raises csv.Error for a row it cannot split (such as an over-long field)
    try:
        with localcontext() as ctx:
            ctx.prec = _MONEY_PRECISION
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(reader.line_num, f"expected {width} columns, found {len(row)}")
                cell = row[i_year]
                kept = years.get(cell)
                if kept is None:
                    kept = years[cell] = _year_kept(cell, year, reader.line_num)
                if not kept:
                    continue
                if i_flow is not None:
                    cell = row[i_flow]
                    kept = flows.get(cell)
                    if kept is None:
                        kept = flows[cell] = _flow_kept(cell, reader.line_num)
                    if not kept:
                        continue  # mirror report of a flow already present export-side
                cell = row[i_exporter]
                exporter = countries.get(cell)
                if exporter is None:
                    exporter = countries[cell] = _country_id(cell, reader.line_num, aggregation, ids)
                cell = row[i_importer]
                importer = countries.get(cell)
                if importer is None:
                    importer = countries[cell] = _country_id(cell, reader.line_num, aggregation, ids)
                cell = row[i_sitc]
                product = products.get(cell)
                if product is None:
                    product = products[cell] = _product_bits(cell, reader.line_num)
                value = row[i_value]
                try:
                    number = float(value)
                    fast = 0.0 < number < _INF
                except ValueError:
                    fast = False
                if not fast:
                    # check it exactly; the Decimal's text also reads with float,
                    # which rejects some forms Decimal takes, such as "1__0"
                    value = str(_parse_value(value, reader.line_num))
                    number = float(value)
                if exporter != importer:
                    key = product | importer << _ID_BITS | exporter
                    total = sums.get(key)
                    if total is None:
                        sums[key] = value
                        firsts.append(number)
                    else:
                        if type(total) is str:
                            total = _ZERO + Decimal(total.strip())
                        total += Decimal(value.strip())
                        if total >= _FLOAT_OVERFLOW:
                            flow = _flow_name(key, ids)
                            raise ParseError(reader.line_num, f"sum of flow {flow} overflows float64")
                        sums[key] = total
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    if not ids:
        raise NoRecordsError(year)
    ordered = tuple(sorted(ids))
    registry = CountryRegistry(codes=ordered, names=ordered, aggregation=aggregation)
    if not sums:
        raise NoRecordsError(year)
    keys = np.fromiter(sums, dtype=np.int64, count=len(sums))
    value = np.frombuffer(firsts, dtype=np.float64)
    for k, total in enumerate(sums.values()):
        if type(total) is not str:
            value[k] = float(total)
    del sums   # free the raw values and Decimals before the constructor's temporaries
    position = np.array([registry._index[code] for code in ids], dtype=np.int64)
    product = keys >> 2 * _ID_BITS
    importer = position[keys >> _ID_BITS & _ID_MASK]
    exporter = position[keys & _ID_MASK]
    return MoneyMatrix(registry, year, product, importer, exporter, value)


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


def _flow_name(key: int, ids: dict[str, int]) -> str:
    codes = list(ids)
    product = key >> 2 * _ID_BITS
    importer, exporter = codes[key >> _ID_BITS & _ID_MASK], codes[key & _ID_MASK]
    return f"(product {product}, importer {importer}, exporter {exporter})"


def read_aggregation_file(source: IO[str] | Iterable[str] | str) -> dict[str, str]:
    """Read a ``member_code,bloc_code`` file (header line required).

    ``source`` is the file's text, in the forms :func:`read_money_matrix`
    takes. A ParseError names the file line that ends the offending row.
    """
    reader = csv.reader(_as_text(source))
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
    """Open ``path`` and read the money tensor of ``year`` with :func:`read_money_matrix`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_money_matrix(fh, year, aggregation)
