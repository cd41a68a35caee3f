"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``)
into the per-product money tensor in one pass over the rows: each row is
checked, its country codes are mapped onto their bloc (e.g. the 27 EU
members collapsed onto ``EUU``), self-flows are dropped and every other
value is added to the sum of its (product, importer, exporter) key.

Monetary values are carried as :class:`decimal.Decimal` through parsing and
that summation, so the sums are exact; after the pass each sum is rounded to
float64 once, into the COO arrays of :class:`MoneyMatrix`. The country
registry is the sorted set of canonical codes of every row of the year.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, localcontext
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import NoRecordsError, ParseError, UnknownCountryError

#: Number of one-digit SITC Rev. 1 sections; fixed by the classification.
N_PRODUCTS = 10

#: SITC Rev. 1 one-digit section labels, indexed by product 0-9.
PRODUCT_LABELS = (
    "Food and live animals",
    "Beverages and tobacco",
    "Crude materials, inedible, except fuels",
    "Mineral fuels, lubricants and related materials",
    "Animal and vegetable oils and fats",
    "Chemicals and related products",
    "Basic manufactures",
    "Machinery and transport equipment",
    "Miscellaneous manufactured articles",
    "Goods not classified elsewhere",
)

REQUIRED_COLUMNS = ("year", "exporter", "importer", "sitc", "value_usd")

#: Optional extra column: rows flagged as import-side mirror reports are
#: skipped to avoid double counting; export-side rows are ingested as-is.
FLOW_COLUMN = "flow"
_EXPORT_FLOWS = {"x", "export"}
_IMPORT_FLOWS = {"m", "import"}

#: MoneyMatrix array fields, in key order and then the value.
COO_FIELDS = ("product", "importer", "exporter", "value")

# Decimal precision for money accumulation. Trade values carry ~15
# significant digits; 50 keeps every sum in this domain exact.
_MONEY_PRECISION = 50
_ZERO = Decimal(0)


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


def _as_text(source: IO | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(source, encoding="utf-8")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _parse_value(raw: str, line: int) -> Decimal:
    try:
        value = Decimal(raw.strip())
    except InvalidOperation:
        raise ParseError(line, f"non-numeric value {raw!r}") from None
    if not value.is_finite():
        raise ParseError(line, f"non-finite value {raw!r}")
    if value < 0:
        raise ParseError(line, f"negative value {raw!r}")
    return value


def _read_header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, header expected") from None
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
    source: IO | Iterable[str] | bytes | str,
    year: int,
    aggregation: Mapping[str, str] | None = None,
) -> MoneyMatrix:
    """Read a header-bearing delimited trade file into the money tensor of ``year``.

    One pass over the rows: each row of ``year`` is checked, its codes are
    mapped onto their bloc, and its value is added exactly in Decimal to the
    sum of its (product, importer, exporter) key, unless the flow is a
    self-flow. The registry holds the sorted canonical codes of every row of
    the year, self-flows included. Each sum is rounded to float once, so the
    result does not depend on the row order, bit for bit.

    Raises ParseError (naming the line) for structural problems and
    NoRecordsError when no row of ``year`` is left, or only self-flows.
    """
    aggregation = dict(aggregation or {})
    reader = csv.reader(_as_text(source))
    header = _read_header(reader)
    width = len(header)
    i_year, i_exporter, i_importer, i_sitc, i_value = map(header.index, REQUIRED_COLUMNS)
    i_flow = header.index(FLOW_COLUMN) if FLOW_COLUMN in header else None
    canonical = aggregation.get
    codes: set[str] = set()
    sums: dict[tuple[int, str, str], Decimal] = {}
    with localcontext() as ctx:
        ctx.prec = _MONEY_PRECISION
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(line, f"expected {width} columns, found {len(row)}")
            try:
                row_year = int(row[i_year].strip())
            except ValueError:
                raise ParseError(line, f"non-numeric year {row[i_year]!r}") from None
            if row_year != year:
                continue
            if i_flow is not None:
                flow = row[i_flow].strip().lower()
                if flow in _IMPORT_FLOWS:
                    continue  # mirror report of a flow already present export-side
                if flow not in _EXPORT_FLOWS:
                    raise ParseError(line, f"unknown flow direction {row[i_flow]!r}")
            exporter = row[i_exporter].strip()
            importer = row[i_importer].strip()
            if not exporter or not importer:
                raise ParseError(line, "empty country code")
            try:
                product = sitc_to_product(row[i_sitc].strip())
            except ValueError as exc:
                raise ParseError(line, str(exc)) from None
            value = _parse_value(row[i_value], line)
            exporter = canonical(exporter, exporter)
            importer = canonical(importer, importer)
            codes.add(exporter)
            codes.add(importer)
            if exporter != importer:
                key = (product, importer, exporter)
                sums[key] = sums.get(key, _ZERO) + value
    if not codes:
        raise NoRecordsError(year)
    ordered = tuple(sorted(codes))
    registry = CountryRegistry(codes=ordered, names=ordered, aggregation=aggregation)
    if not sums:
        raise NoRecordsError(year)
    index, count = registry._index, len(sums)
    product = np.fromiter((p for p, _, _ in sums), dtype=np.int64, count=count)
    importer = np.fromiter((index[i] for _, i, _ in sums), dtype=np.int64, count=count)
    exporter = np.fromiter((index[e] for _, _, e in sums), dtype=np.int64, count=count)
    value = np.fromiter(map(float, sums.values()), dtype=np.float64, count=count)
    del sums   # free the Decimals before the constructor's temporaries
    return MoneyMatrix(registry, year, product, importer, exporter, value)


def read_aggregation_file(source: IO | Iterable[str] | bytes | str) -> dict[str, str]:
    """Read a ``member_code,bloc_code`` file (header line required)."""
    reader = csv.reader(_as_text(source))
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise ParseError(1, "empty aggregation file") from None
    if header != ["member_code", "bloc_code"]:
        raise ParseError(1, "aggregation header must be 'member_code,bloc_code'")
    mapping: dict[str, str] = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(line, f"expected 2 columns, found {len(row)}")
        member, bloc = row[0].strip(), row[1].strip()
        if not member or not bloc:
            raise ParseError(line, "empty code in aggregation pair")
        if member in mapping and mapping[member] != bloc:
            raise ParseError(line, f"member {member} mapped to two blocs")
        mapping[member] = bloc
    return mapping


def load_money_matrix(
    path,
    year: int,
    aggregation: Mapping[str, str] | None = None,
) -> MoneyMatrix:
    """Open ``path`` and read the money tensor of ``year`` with :func:`read_money_matrix`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_money_matrix(fh, year, aggregation)
