"""Trade-record ingestion.

Reads delimited trade files (``year,exporter,importer,sitc,value_usd``),
resolves country codes, applies bloc aggregation (e.g. the 27 EU members
collapsed onto ``EUU``) and assembles the per-product money tensor.

Monetary values are carried as :class:`decimal.Decimal` through parsing,
aggregation and duplicate summation, so those sums are exact; assembly rounds
each sum to float64 once, into the COO arrays of :class:`MoneyMatrix`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, localcontext
from typing import IO, Iterable, Mapping, Sequence

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


def sitc_to_product(code: str) -> int:
    """Map an SITC code string to its one-digit product index (leading digit)."""
    if not code:
        raise ValueError("empty SITC code")
    lead = code[0]
    if lead not in "0123456789":
        raise ValueError(f"invalid SITC code {code!r}: leading character must be a digit")
    return int(lead)


@dataclass(frozen=True)
class TradeRecord:
    """One directed trade flow: ``value_usd`` of product ``sitc_digit`` from exporter to importer."""

    year: int
    exporter: str
    importer: str
    sitc_digit: int
    value_usd: Decimal

    def __post_init__(self):
        if not self.exporter or not self.importer:
            raise ValueError("country codes must be non-empty")
        if self.value_usd < 0:
            raise ValueError(f"negative trade value {self.value_usd}")
        if not 0 <= self.sitc_digit <= 9:
            raise ValueError(f"product index {self.sitc_digit} outside 0-9")


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

    def canonical(self, code: str) -> str:
        """Resolve a raw code to its canonical (bloc-aggregated) form."""
        return self.aggregation.get(code, code)

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise UnknownCountryError(code) from None

    def __contains__(self, code: str) -> bool:
        return code in self._index

    @classmethod
    def build(
        cls,
        records: Iterable[TradeRecord],
        aggregation: Mapping[str, str] | None = None,
        names: Mapping[str, str] | None = None,
    ) -> "CountryRegistry":
        """Build a registry from the codes present in ``records``.

        Partner-only countries (appearing only as importer) are included.
        Display names default to the code itself.
        """
        aggregation = dict(aggregation or {})
        canonical = set()
        for rec in records:
            canonical.add(aggregation.get(rec.exporter, rec.exporter))
            canonical.add(aggregation.get(rec.importer, rec.importer))
        codes = tuple(sorted(canonical))
        names = names or {}
        return cls(
            codes=codes,
            names=tuple(names.get(c, c) for c in codes),
            aggregation=aggregation,
        )


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


def parse_trade_records(source: IO | Iterable[str] | bytes | str, year: int) -> list[TradeRecord]:
    """Parse a header-bearing delimited trade file, keeping rows of ``year``.

    Raises ParseError (naming the line) for structural problems and
    NoRecordsError when the file holds no row for the requested year.
    """
    reader = csv.reader(_as_text(source))
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
    pos = {name: header.index(name) for name in header}
    has_flow = FLOW_COLUMN in pos

    records = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(line, f"expected {len(header)} columns, found {len(row)}")
        try:
            row_year = int(row[pos["year"]].strip())
        except ValueError:
            raise ParseError(line, f"non-numeric year {row[pos['year']]!r}") from None
        if row_year != year:
            continue
        if has_flow:
            flow = row[pos[FLOW_COLUMN]].strip().lower()
            if flow in _IMPORT_FLOWS:
                continue  # mirror report of a flow already present export-side
            if flow not in _EXPORT_FLOWS:
                raise ParseError(line, f"unknown flow direction {row[pos[FLOW_COLUMN]]!r}")
        exporter = row[pos["exporter"]].strip()
        importer = row[pos["importer"]].strip()
        if not exporter or not importer:
            raise ParseError(line, "empty country code")
        try:
            product = sitc_to_product(row[pos["sitc"]].strip())
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
        value = _parse_value(row[pos["value_usd"]], line)
        records.append(TradeRecord(row_year, exporter, importer, product, value))
    if not records:
        raise NoRecordsError(year)
    return records


def apply_aggregation(records: Sequence[TradeRecord], registry: CountryRegistry) -> list[TradeRecord]:
    """Collapse member codes onto their bloc and merge the resulting flows.

    Flows whose exporter and importer collapse to the same country (bloc
    self-trade included) are dropped. Merged values are summed exactly in
    Decimal; the output is sorted by (year, product, importer, exporter),
    which makes the operation idempotent and order-independent.
    """
    merged: dict[tuple[int, int, str, str], Decimal] = {}
    with localcontext() as ctx:
        ctx.prec = _MONEY_PRECISION
        for rec in records:
            exporter = registry.canonical(rec.exporter)
            importer = registry.canonical(rec.importer)
            if exporter == importer:
                continue
            key = (rec.year, rec.sitc_digit, importer, exporter)
            merged[key] = merged.get(key, Decimal(0)) + rec.value_usd
    return [
        TradeRecord(year, exporter, importer, product, value)
        for (year, product, importer, exporter), value in sorted(merged.items())
    ]


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


def assemble_money_matrix(
    records: Sequence[TradeRecord],
    registry: CountryRegistry,
    n_products: int = N_PRODUCTS,
) -> MoneyMatrix:
    """Accumulate aggregated records into a MoneyMatrix.

    Records must already be aggregated (no self flows, codes canonical).
    Duplicate flows are summed exactly in Decimal and each sum is rounded
    to float once, so the result is independent of the input row order bit
    for bit.
    """
    if not records:
        raise ValueError("no records to assemble")
    years = {rec.year for rec in records}
    if len(years) > 1:
        raise ValueError(f"records span multiple years: {sorted(years)}")
    n = registry.n
    sums: dict[int, Decimal] = {}   # keyed (product * n + importer) * n + exporter
    with localcontext() as ctx:
        ctx.prec = _MONEY_PRECISION
        for rec in records:
            if registry.canonical(rec.exporter) != rec.exporter or registry.canonical(rec.importer) != rec.importer:
                raise ValueError(f"record {rec.exporter}->{rec.importer} not aggregated")
            if rec.exporter == rec.importer:
                raise ValueError(f"self flow {rec.exporter}->{rec.importer} must be removed by aggregation")
            key = (rec.sitc_digit * n + registry.index_of(rec.importer)) * n + registry.index_of(rec.exporter)
            sums[key] = sums.get(key, Decimal(0)) + rec.value_usd
    product, cell = np.divmod(np.fromiter(sums, dtype=np.int64, count=len(sums)), n * n)
    value = np.fromiter(map(float, sums.values()), dtype=np.float64, count=len(sums))
    del sums   # free the Decimals before the constructor's temporaries
    return MoneyMatrix(registry, years.pop(), product, *np.divmod(cell, n), value, n_products)


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
    """Parse ``path``, build the registry, aggregate and assemble in one go."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = parse_trade_records(fh, year)
    registry = CountryRegistry.build(records, aggregation)
    aggregated = apply_aggregation(records, registry)
    if not aggregated:
        raise NoRecordsError(year)
    return assemble_money_matrix(aggregated, registry)
