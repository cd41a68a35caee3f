"""Property tests: ingest against an exact oracle, and the array-built
operator and shares against dense oracles.

Random small row sets mix bloc members, duplicate keys, rows of another
year and ``flow=m`` mirror reports; the ingest oracle sums their Decimals
per canonical key straight from the generated rows. Each file is read at
several block sizes, split by ``str.split`` and by csv, and every read
must agree bit for bit and raise the same error at the same line. Whole
``pipeline`` runs with a bloc write the same bytes when every value is
scaled by a power of two, the codes are renamed in their sort order, mirror
reports and rows of another year are added, or the file is pre-aggregated
onto the bloc with exact sums. Under any renaming of the codes,
probabilities, balances and G_R agree within 1e-14, and rank orders
wherever probabilities are more than 1e-12 apart. Random small tensors
include dangling columns (a country that exports nothing of a product) and
empty products. The production path builds S, v and the
volume shares from the COO arrays and applies G to random vectors; the
oracles recompute them from the dense tensor with no shared code. A matrix
dump, parsed back, rebuilds the same operator. The block solves of
PageRank, CheiRank and their teleport responses match full dense solves,
also with countries that trade nothing. The balance differences, from the
closed form or from one re-solved product block, match differences of the
perturbed, rebuilt tensor's dense oracles, and the operator a country
target re-solves is the one that tensor builds. The reduced Google matrix
matches the literal dense block formula for subsets that keep all, none,
one or some of a product's nodes, with idle nodes on both sides.
"""

import re
import tempfile
from decimal import MAX_PREC, Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wtnrank import (
    MoneyMatrix,
    NodeSpace,
    NodeSubset,
    PersonalizationVector,
    SensitivityConfig,
    StochasticMatrix,
    aggregate_country,
    balance_sensitivity,
    build_google,
    build_stochastic,
    make_google,
    read_money_matrix,
    reduced_google_matrix,
    sensitivity_richardson,
    trade_balance,
    volume_probabilities,
    write_matrix_dump,
)
from wtnrank import analysis, cli, ingest
from wtnrank.analysis import _block_variant
from wtnrank.errors import ParseError, WtnError
from wtnrank.gmatrix import DIRECTIONS
from wtnrank.ranks import pagerank
from wtnrank.testkit import (
    SyntheticSpec,
    dense_google_from_money,
    dense_pagerank_oracle,
    dense_regomax_oracle,
    densify,
    perturb_money,
    synthetic_money,
    synthetic_registry,
    write_trade_file,
)

from conftest import flows, indexes, money_from_dense

#: Same bound as test_testkit's check of build_google against this oracle.
ORACLE_TOL = 1e-14

#: L1 distance of a block solve from the dense solve of the same system.
SOLVE_L1_TOL = 1e-12

#: The rank solves' 1e-12 tolerance divided by the central difference's 2h, with margin.
GLOBAL_DIFFERENCE_TOL = 1e-9
#: The IEA differences are arithmetic on volume shares: rounding only.
IEA_DIFFERENCE_TOL = 1e-12

PERSONALIZATIONS = ("uniform-by-product", "volume-by-country")

YEAR = 2018
HEADER = "year,exporter,importer,sitc,value_usd,flow"
#: Candidate bloc members, and two countries that never join the bloc.
MEMBERS = ("AUT", "BEL", "DEU", "FRA")
OTHERS = ("CHN", "USA")


#: Value cells in the text forms trade files use: 2-place decimals, the exact
#: expansion of a float (as testkit.write_trade_file writes it), exponent
#: notation, and integers grouped by "_" or in Arabic-Indic digits, which
#: ingest keeps as their Decimal's text, each possibly with a leading "+" or
#: surrounding spaces.
value_texts = st.tuples(
    st.one_of(
        st.decimals(0, 1, places=2).map(str),
        st.decimals(0, 10**6, places=2).map(str),
        st.floats(1e-3, 1e9).map(lambda x: str(Decimal(x))),
        st.builds("{}{}{}".format, st.integers(0, 10**6), st.sampled_from("eE"), st.integers(-8, 8)),
        st.integers(0, 10**7).map("{:_}".format),
        st.integers(0, 10**6).map(lambda n: str(n).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
    ),
    st.sampled_from(("{}", "+{}", " {} ", " +{}")),
).map(lambda pair: pair[1].format(pair[0]))


@st.composite
def trade_rows(draw):
    """(rows, aggregation): row tuples in the ingest column order, and a bloc map.

    The first row is an export of ``YEAR`` between two non-members, so at
    least one flow survives; the rest may be of another year, mirror
    reports, bloc self-flows or repeats of one key. A non-empty map gets one
    bloc self-flow of ``YEAR``, as a map that matches no code is an error.
    Values are cell texts.
    """
    blocs = draw(st.lists(st.sampled_from(MEMBERS), unique=True))
    aggregation = {member: "EUU" for member in blocs}
    code = st.sampled_from(MEMBERS + OTHERS)
    row = st.tuples(
        st.sampled_from((YEAR, YEAR, YEAR, YEAR - 1)),
        code,
        code,
        st.sampled_from(("0", "3", "7", "71234")),
        value_texts,
        st.sampled_from(("x", "export", "X", "m", "import")),
    )
    first = (YEAR, *draw(st.permutations(OTHERS)), "3", str(draw(st.decimals(1, 10**6, places=2))), "x")
    rest = draw(st.lists(row, max_size=30))
    if blocs:
        rest.insert(draw(st.integers(0, len(rest))), (YEAR, blocs[0], blocs[-1], "3", "1.00", "x"))
    return [first] + rest, aggregation


def render(rows) -> str:
    return "\n".join([HEADER] + [",".join(map(str, row)) for row in rows]) + "\n"


def money_fields(money) -> tuple:
    """Everything that identifies a tensor: registry codes, year and array bytes."""
    arrays = (*money.nodes, money.value)
    return money.registry.codes, money.year, tuple((a.dtype.str, a.tobytes()) for a in arrays)


def read_every_way(text: str, aggregation) -> list:
    """Read ``text`` at the default block size and at 1 and 64 characters, then split by csv.

    csv splits the whole file at the default block size and at 1 character,
    which takes its rows one at a time. Returns each read's tensor, or its
    ParseError as (message, line).
    """
    header, first, rest = text.split("\n", 2)
    cell, tail = first.split(",", 1)
    # a quoted cell in the first block hands the whole file to csv
    quoted = f'{header}\n"{cell}",{tail}\n{rest}'
    results = []
    sizes = ((ingest._BLOCK_CHARS, text), (1, text), (64, text), (ingest._BLOCK_CHARS, quoted), (1, quoted))
    for size, source in sizes:
        with mock.patch.object(ingest, "_BLOCK_CHARS", size):
            try:
                results.append(read_money_matrix(source, YEAR, aggregation))
            except ParseError as exc:
                results.append((str(exc), exc.line))
    return results


def read_rows(rows, aggregation):
    """The tensor of ``rows``, checked to be the same however the file is read."""
    money, *others = read_every_way(render(rows), aggregation)
    for other in others:
        assert money_fields(other) == money_fields(money)
    return money


def ingest_oracle(rows, aggregation):
    """Codes and (product, importer, exporter, value) flows, summed exactly per canonical key."""
    codes, sums = set(), {}
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        for year, exporter, importer, sitc, value, flow in rows:
            if year != YEAR or flow.lower() not in ("x", "export"):
                continue
            exporter = aggregation.get(exporter, exporter)
            importer = aggregation.get(importer, importer)
            codes |= {exporter, importer}
            if exporter != importer:
                key = (int(sitc[0]), importer, exporter)
                sums[key] = sums.get(key, Decimal(0)) + Decimal(value)
    codes = sorted(codes)
    entries = sorted(
        (product, codes.index(importer), codes.index(exporter), float(total))
        for (product, importer, exporter), total in sums.items()
        if total != 0
    )
    return tuple(codes), entries


@settings(max_examples=80)
@given(generated=trade_rows(), data=st.data())
def test_ingest_ignores_row_order(generated, data):
    rows, aggregation = generated
    shuffled = data.draw(st.permutations(rows))
    expected = money_fields(read_rows(rows, aggregation))
    assert money_fields(read_rows(shuffled, aggregation)) == expected


@settings(max_examples=80)
@given(generated=trade_rows(), data=st.data())
def test_ingest_split_value_gives_same_tensor(generated, data):
    rows, aggregation = generated
    k = data.draw(st.integers(0, len(rows) - 1))
    year, exporter, importer, sitc, value, flow = rows[k]
    value = Decimal(value)
    part = data.draw(st.decimals(min_value=0, max_value=value, places=3))
    with localcontext() as ctx:
        ctx.prec = 100
        rest = value - part
    split = rows[:k] + [(year, exporter, importer, sitc, str(part), flow),
                        (year, exporter, importer, sitc, str(rest), flow)] + rows[k + 1:]
    expected = money_fields(read_rows(rows, aggregation))
    assert money_fields(read_rows(split, aggregation)) == expected


@settings(max_examples=80)
@given(generated=trade_rows())
def test_ingest_matches_exact_oracle(generated):
    rows, aggregation = generated
    money = read_rows(rows, aggregation)
    codes, entries = ingest_oracle(rows, aggregation)
    assert money.registry.codes == codes
    assert flows(money) == entries
    # blocks of value text that end on an odd character count, and a key's rows in several blocks
    for size in (7, 65):
        with mock.patch.object(ingest, "_BLOCK_CHARS", size):
            assert money_fields(read_money_matrix(render(rows), YEAR, aggregation)) == money_fields(money)


@settings(max_examples=100)
@given(st.lists(st.floats(2**-10, 16), min_size=2, max_size=4))
def test_repeated_key_of_exact_float_expansions_is_rounded_once(values):
    # such expansions carry up to about 60 digits, so the exact sum can pass
    # any fixed Decimal precision below that
    rows = [(YEAR, "CHN", "USA", "7", str(Decimal(x)), "x") for x in values]
    assert flows(read_rows(rows, {})) == ingest_oracle(rows, {})[1]


#: Values whose running sums pass the float64 range within two or three rows of a key, and small ones.
huge_or_small = st.one_of(st.sampled_from(("1e308", "9e307", "6e307")), st.decimals(0, 10**6, places=2).map(str))


@settings(max_examples=80)
@given(st.lists(st.tuples(st.sampled_from(OTHERS + ("DEU",)), st.sampled_from(OTHERS), huge_or_small), max_size=40))
def test_sum_overflow_names_the_first_line_a_running_sum_passes_float64(cells):
    # rows keep their line only from the block whose values take the float total past half the range
    rows = [(YEAR, *OTHERS, "3", "1.00", "x")] + [(YEAR, e, i, "7", value, "x") for e, i, value in cells]
    sums, first = {}, None
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        for line, (_, exporter, importer, _, value, _) in enumerate(rows, start=2):
            if exporter != importer:
                key = (importer, exporter)
                sums[key] = sums.get(key, Decimal(0)) + Decimal(value)
                if first is None and sums[key] >= ingest._FLOAT_OVERFLOW:
                    first = line
    for result in read_every_way(render(rows), {}):
        if first is None:
            assert isinstance(result, MoneyMatrix)
        else:
            assert type(result) is tuple and "overflows float64" in result[0]
            assert result[1] == first


#: Codes a random bloc map draws its members from, and its bloc codes.
BLOC_MEMBERS = MEMBERS + ("ITA", "POL")
BLOCS = ("BLA", "BLB", "BLC")


@settings(max_examples=80)
@given(
    aggregation=st.dictionaries(st.sampled_from(BLOC_MEMBERS), st.sampled_from(BLOCS)),
    present=st.lists(st.sampled_from(BLOC_MEMBERS), unique=True),
    elsewhere=st.lists(st.sampled_from(BLOC_MEMBERS), unique=True),
)
def test_bloc_reaches_the_registry_iff_a_member_trades_that_year(aggregation, present, elsewhere):
    # ``present`` trade with CHN in YEAR; ``elsewhere`` only in YEAR - 1 or as mirror reports
    rows = [(YEAR, *OTHERS, "3", "1.00", "x")]
    rows += [(YEAR, "CHN", code, "7", "2.00", "x") for code in present]
    rows += [(YEAR - 1, code, "USA", "7", "3.00", "x") for code in elsewhere]
    rows += [(YEAR, code, "USA", "7", "4.00", "m") for code in elsewhere]
    matched = {bloc for member, bloc in aggregation.items() if member in present}
    unmatched = set(aggregation.values()) - matched
    if unmatched:
        with pytest.raises(WtnError) as raised:
            read_money_matrix(render(rows), YEAR, aggregation)
        assert raised.type is WtnError
        assert all(bloc in str(raised.value) for bloc in unmatched)
        assert not any(bloc in str(raised.value) for bloc in matched)
    else:
        money = read_money_matrix(render(rows), YEAR, aggregation)
        assert money.registry.codes == tuple(sorted({*OTHERS, *(aggregation.get(c, c) for c in present)}))


#: (column, text) that ingest rejects in a kept row; None drops the column.
CORRUPTIONS = (
    (0, "20x8"),
    (1, ""),
    (2, "A<B"),
    (3, "X1"),
    (4, "-5"),
    (4, "abc"),
    (4, "inf"),
    (5, "sideways"),
    (5, None),
)


@settings(max_examples=60)
@given(generated=trade_rows(), data=st.data())
def test_ingest_error_is_the_same_however_the_file_is_read(generated, data):
    # two corrupted rows k < j: the first bad line wins whichever columns they are in
    rows, aggregation = generated
    assume(len(rows) > 1)
    k = data.draw(st.integers(0, len(rows) - 2))
    j = data.draw(st.integers(k + 1, len(rows) - 1))
    rows = list(rows)
    for i in (k, j):
        column, text = data.draw(st.sampled_from(CORRUPTIONS))
        row = [YEAR, *rows[i][1:5], "x"]
        if text is None:
            del row[column]
        else:
            row[column] = text
        rows[i] = tuple(row)
    results = read_every_way(render(rows), aggregation)
    assert all(type(result) is tuple for result in results)
    assert len(set(results)) == 1
    assert results[0][1] == k + 2


#: The bloc code of the whole-run invariance tests; it sorts after every synthetic code.
BLOC = "EUU"


@st.composite
def bloc_tensors(draw):
    """(money, members): a seeded synthetic tensor and the codes a bloc map merges onto BLOC."""
    n = draw(st.integers(4, 7))
    money = synthetic_money(SyntheticSpec(seed=draw(st.integers(0, 2**16)), n_countries=n, n_products=10, density=0.6))
    members = draw(st.lists(st.sampled_from(money.registry.codes), min_size=2, max_size=n - 2, unique=True))
    return money, members


def pipeline_files(money, members, power=0, names=None, edit=list) -> dict[str, str]:
    """The text of each file ``pipeline`` writes for ``money`` with ``members`` merged onto BLOC.

    The trade file holds every value times ``2**power``, written exactly, and
    every code c (BLOC too) as ``names[c]``; the files' codes are mapped back.
    ``edit`` maps the file's lines to the lines the run reads. With no
    ``members`` the run is given no ``--aggregate``.
    """
    names = names or {code: code for code in (*money.registry.codes, BLOC)}
    back = {new: old for old, new in names.items()}
    scaled = MoneyMatrix(money.registry, money.year, money.nodes, money.value * 2.0**power)
    # a code is a whole field or the part of a node label before its "_"
    forward, backward = (
        re.compile(r"(?<![A-Za-z0-9])(%s)(?![A-Za-z0-9])" % "|".join(map(re.escape, codes))) for codes in (names, back)
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_trade_file(scaled, tmp / "trade.csv")
        lines = [forward.sub(lambda m: names[m[0]], line) for line in path.read_text().splitlines()]
        path.write_text("".join(f"{line}\n" for line in edit(lines)))
        argv = ["pipeline", "--input", path, "--year", money.year]
        if members:
            blocs = "".join(f"{names[m]},{names[BLOC]}\n" for m in members)
            (tmp / "blocs.csv").write_text(f"member_code,bloc_code\n{blocs}")
            argv += ["--aggregate", tmp / "blocs.csv"]
        assert cli.main([*map(str, argv), "--out", str(tmp / "out")]) == 0
        return {path.name: backward.sub(lambda m: back[m[0]], path.read_text()) for path in (tmp / "out").iterdir()}


@settings(max_examples=8, deadline=None)
@given(case=bloc_tensors(), power=st.integers(-40, 40).filter(bool))
def test_pipeline_ignores_a_power_of_two_scale(case, power):
    # the bloc's keys are summed exactly, and 2**power commutes with every rounding in the normal range
    assert pipeline_files(*case, power=power) == pipeline_files(*case)


@settings(max_examples=8, deadline=None)
@given(case=bloc_tensors(), data=st.data())
def test_pipeline_ignores_an_order_preserving_code_rename(case, data):
    money, members = case
    old = (*money.registry.codes, BLOC)
    letters = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=2)
    # one length, so that node labels keep their order too
    new = sorted(data.draw(st.lists(letters, min_size=len(old), max_size=len(old), unique=True)))
    names = {code: "Q" + name for code, name in zip(old, new)}
    assert pipeline_files(money, members, names=names) == pipeline_files(money, members)


def keyed_rows(text: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """A CSV artifact's header past its first field, and each row's other fields as floats by its first."""
    header, *rows = (line.split(",") for line in text.splitlines())
    return header[1:], {row[0]: np.array(row[1:], dtype=float) for row in rows}


def reduced_by_label(text: str) -> tuple[list[str], np.ndarray]:
    """A G_R artifact's node labels in sorted order, and its matrix with rows and columns in that order."""
    labels, *rows = (line.split(",") for line in text.splitlines())
    order = np.argsort(labels)
    return sorted(labels), np.array(rows, dtype=float)[np.ix_(order, order)]


#: How far a value may move when only the order of the nodes, and so of each sum, changes.
RENAME_TOL = 1e-14
#: Probabilities closer than this may swap ranks under a rename.
RANK_GAP = 1e-12


@settings(max_examples=8, deadline=None)
@given(case=bloc_tensors(), data=st.data())
def test_pipeline_under_any_code_rename_moves_values_by_rounding_only(case, data):
    # a rename that breaks the sort order renumbers the nodes, so sums change order and last bits move
    money, members = case
    old = (*money.registry.codes, BLOC)
    letters = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=2)
    new = data.draw(
        st.lists(letters, min_size=len(old), max_size=len(old), unique=True).filter(lambda new: new != sorted(new))
    )
    renamed = pipeline_files(money, members, names={code: "Q" + name for code, name in zip(old, new)})
    original = pipeline_files(money, members)
    assert renamed.keys() == original.keys()
    for name in (f"balance_{YEAR}.csv", f"rank_table_{YEAR}.csv"):
        (header, base), (new_header, other) = keyed_rows(original[name]), keyed_rows(renamed[name])
        assert new_header == header and other.keys() == base.keys()
        base, other = (np.array([table[code] for code in sorted(base)]) for table in (base, other))
        values = [i for i, column in enumerate(header) if not column.startswith("K")]
        np.testing.assert_allclose(other[:, values], base[:, values], rtol=0, atol=RENAME_TOL)
    # the rank table, read last: each index keeps its order wherever probabilities are RANK_GAP apart
    for probability in ("P", "Pstar", "Phat", "Phatstar"):
        p, rank = header.index(probability), header.index(probability.replace("P", "K"))
        apart = np.abs(base[:, p, None] - base[:, p]) > RANK_GAP
        before, after = (np.sign(table[:, rank, None] - table[:, rank]) for table in (base, other))
        assert (before == after)[apart].all(), probability
    # REGOMAX keeps the top of PageRank, which only a tie within RANK_GAP may change
    tied = np.diff(np.sort(base[:, header.index("P")])).min() <= RANK_GAP
    for direction in DIRECTIONS:
        labels, matrix = reduced_by_label(original[f"gr_{direction}_{YEAR}.csv"])
        new_labels, new_matrix = reduced_by_label(renamed[f"gr_{direction}_{YEAR}.csv"])
        assert new_labels == labels or tied
        if new_labels == labels:
            np.testing.assert_allclose(new_matrix, matrix, rtol=0, atol=RENAME_TOL)


@settings(max_examples=8, deadline=None)
@given(
    case=bloc_tensors(),
    flows=st.tuples(st.sampled_from(sorted(ingest._EXPORT_FLOWS)), st.sampled_from(sorted(ingest._IMPORT_FLOWS))),
    other_year=st.integers(1962, 2030).filter(lambda year: year != YEAR),
    order=st.randoms(use_true_random=False),
)
def test_pipeline_ignores_mirror_reports_and_other_years(case, flows, other_year, order):
    # every flow also reported by its importer, at a 10 % higher value, and every row again under another year
    export, mirror = flows

    def edit(lines):
        rows = [f"{row},{export}" for row in lines[1:]]
        for row in lines[1:]:
            head, _, value = row.rpartition(",")
            rows.append(f"{head},{float(value) * 1.1!r},{mirror}")
        rows += [f"{other_year}{row[row.index(','):]}" for row in rows]
        order.shuffle(rows)
        return [f"{lines[0]},flow", *rows]

    assert pipeline_files(*case, edit=edit) == pipeline_files(*case)


@settings(max_examples=8, deadline=None)
@given(case=bloc_tensors())
def test_pipeline_reads_a_pre_aggregated_file_as_aggregate(case):
    # each (product, importer, exporter) of the bloc summed exactly; the bloc's own flows dropped
    money, members = case

    def onto_bloc(lines):
        sums = {}
        with localcontext() as ctx:
            ctx.prec = MAX_PREC
            for row in lines[1:]:
                year, exporter, importer, product, value = row.split(",")
                key = (year, *(BLOC if code in members else code for code in (exporter, importer)), product)
                if key[1] != key[2]:
                    sums[key] = sums.get(key, Decimal(0)) + Decimal(value)
        return [lines[0], *(",".join((*key, str(total))) for key, total in sums.items())]

    assert pipeline_files(money, (), edit=onto_bloc) == pipeline_files(money, members)


@st.composite
def dense_tensors(draw):
    """A (P, n, n) tensor with a zero diagonal and at least one flow."""
    n_products = draw(st.integers(1, 4))
    n_countries = draw(st.integers(2, 6))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
    dense = draw(arrays(np.float64, (n_products, n_countries, n_countries), elements=cell))
    dense[:, np.arange(n_countries), np.arange(n_countries)] = 0.0
    if not dense.any():
        dense[0, 0, 1] = draw(st.floats(1e-3, 1e6))
    return dense


@st.composite
def perturbations(draw, dense):
    """perturb_money arguments plus the factor each dense cell is scaled by."""
    n_products, n_countries, _ = dense.shape
    product = draw(st.integers(0, n_products - 1))
    delta = draw(st.floats(-0.5, 0.5))
    country = draw(st.one_of(st.none(), st.integers(0, n_countries - 1)))
    side = draw(st.sampled_from(("export", "import")))
    scale = np.ones_like(dense)
    if country is None:
        scale[product] = 1.0 + delta
    elif side == "export":
        scale[product][:, country] = 1.0 + delta
    else:
        scale[product][country, :] = 1.0 + delta
    code = None if country is None else f"C{country:03d}"
    return (product, delta, code, side), scale


def dense_volume_shares(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-level import and export shares summed straight off the dense tensor."""
    total = dense.sum()
    return dense.sum(axis=2).ravel() / total, dense.sum(axis=1).ravel() / total


def assert_matches_oracles(money, dense, alpha):
    rng = np.random.default_rng(0)
    for direction in ("direct", "inverted"):
        for personalization in PERSONALIZATIONS:
            G = build_google(money, direction, alpha, personalization)
            oracle = dense_google_from_money(money_from_dense(dense), direction, alpha, personalization)
            assert np.max(np.abs(densify(G) - oracle)) < ORACLE_TOL
            x = rng.random(G.size)
            assert np.max(np.abs(G.apply(x) - oracle @ x)) < ORACLE_TOL
    p_hat, p_hat_star = volume_probabilities(money)
    imports, exports = dense_volume_shares(dense)
    assert np.max(np.abs(p_hat.values - imports)) < ORACLE_TOL
    assert np.max(np.abs(p_hat_star.values - exports)) < ORACLE_TOL


@settings(max_examples=60)
@given(dense=dense_tensors(), alpha=st.floats(0.05, 0.95))
def test_array_operator_matches_dense_oracle(dense, alpha):
    money = money_from_dense(dense)
    assert np.array_equal(money.to_dense(), dense)
    assert_matches_oracles(money, dense, alpha)


@settings(max_examples=60)
@given(data=st.data(), dense=dense_tensors())
def test_perturbed_operator_matches_dense_oracle(data, dense):
    (product, delta, country, side), scale = data.draw(perturbations(dense))
    perturbed = perturb_money(money_from_dense(dense), product, delta, country, side)
    expected = dense * scale
    assert np.array_equal(perturbed.to_dense(), expected)
    assert_matches_oracles(perturbed, expected, 0.5)


@st.composite
def tensors_with_idle_countries(draw):
    """A dense_tensors() draw in which some countries may trade nothing at all."""
    dense = draw(dense_tensors())
    for c in draw(st.sets(st.integers(0, dense.shape[1] - 1), max_size=dense.shape[1] - 2)):
        dense[:, c, :] = dense[:, :, c] = 0.0
    if not dense.any():
        dense[0, 0, 1] = draw(st.floats(1e-3, 1e6))
    return dense


@settings(max_examples=60)
@given(dense=tensors_with_idle_countries(), alpha=st.floats(0.05, 0.95))
def test_block_solves_match_dense_solves(dense, alpha):
    money = money_from_dense(dense)
    for direction in ("direct", "inverted"):
        for personalization in PERSONALIZATIONS:
            G = build_google(money, direction, alpha, personalization)
            P, report = pagerank(G)
            assert report.converged
            assert np.abs(P.values - dense_pagerank_oracle(G)).sum() < SOLVE_L1_TOL
            assert np.all(P.values >= 0.0)
            for product in np.flatnonzero(dense.sum(axis=(1, 2))):
                # the teleport response: G with product's block of v, rescaled to 1, as teleport
                block = np.arange(product * money.n_countries, (product + 1) * money.n_countries)
                u = np.zeros(G.size)
                u[block] = G.v.values[block] / G.v.values[block].sum()
                varied = make_google(G.S, PersonalizationVector(u, G.v.mode), alpha)
                Q, report = _block_variant(G, varied, block, 0.0, 1e-12)
                assert report.converged
                oracle = dense_pagerank_oracle(varied)
                assert np.abs(Q.values - oracle).sum() < SOLVE_L1_TOL
                assert np.all(Q.values >= 0.0)


def read_dump(path: Path, sidecar: Path, space: NodeSpace, direction: str) -> tuple:
    """blocks, row, col, value, dangling, v and alpha parsed back from a matrix dump.

    The triplets are put back in the money tensor's (product, importer,
    exporter) order; the importer is the row of a direct link and the column
    of an inverted one.
    """
    n = space.size
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    triplets = [line.split(",") for line in lines[1:]]
    row = np.array([int(r) for r, _, _ in triplets], dtype=np.int64)
    col = np.array([int(c) for _, c, _ in triplets], dtype=np.int64)
    value = np.array([float(x) for _, _, x in triplets])
    order = np.lexsort((col, row) if direction == "direct" else (row, col))
    row, col, value = row[order], col[order], value[order]
    blocks = np.searchsorted(row // space.n_countries, np.arange(space.n_products + 1))
    meta = dict(line.split("=", 1) for line in sidecar.read_text().splitlines())
    dangling = np.zeros(n, dtype=bool)
    dangling[[int(i) for i in meta["dangling"].split(",") if i]] = True
    v = np.array([float(x) for x in meta["v"].split(",")])
    return blocks, row, col, value, dangling, v, float(meta["alpha"])


@settings(max_examples=40)
@given(dense=dense_tensors(), alpha=st.floats(0.05, 0.95), direction=st.sampled_from(("direct", "inverted")))
def test_dump_rebuilds_the_operator(dense, alpha, direction):
    G = build_google(money_from_dense(dense), direction, alpha)
    with tempfile.TemporaryDirectory() as tmp:
        blocks, row, col, value, dangling, v, dumped_alpha = read_dump(
            *write_matrix_dump(G, Path(tmp) / "gm.csv"), G.space, direction
        )
    arrays = {"blocks": blocks, "row": row, "col": col, "value": value, "dangling": dangling}
    for name, array in arrays.items():
        assert np.array_equal(getattr(G.S, name), array), name
    assert np.array_equal(G.v.values, v) and dumped_alpha == G.alpha
    S = StochasticMatrix(blocks, row, col, value, dangling, G.space, G.registry, direction)
    rebuilt = make_google(S, PersonalizationVector(v, G.v.mode), dumped_alpha)
    x = np.random.default_rng(0).random(G.size)
    assert rebuilt.apply(x).tobytes() == G.apply(x).tobytes()


@settings(max_examples=60)
@given(dense=dense_tensors())
def test_both_directions_keep_the_tensor_order(dense):
    money = money_from_dense(dense)
    direct, inverted = build_stochastic(money, "direct"), build_stochastic(money, "inverted")
    assert np.array_equal(direct.row, inverted.col) and np.array_equal(direct.col, inverted.row)
    imports, exports = money.node_volumes()
    for S, volumes in ((direct, exports), (inverted, imports)):
        # block p holds exactly product p's entries, and row and col both lie in it
        product = np.repeat(np.arange(money.n_products), np.diff(S.blocks))
        assert S.blocks[0] == 0 and np.array_equal(product, indexes(money)[0])
        assert np.array_equal(S.row // money.n_countries, product)
        assert np.array_equal(S.col // money.n_countries, product)
        # each column is divided by its node's volume, added as node_volumes adds it
        assert np.array_equal(S.value, money.value / volumes[S.col])
        assert np.array_equal(S.dangling, volumes == 0.0)


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(2, 5), n_products=st.integers(1, 3))
def test_tensor_holds_the_sorted_non_zero_input(data, n, n_products):
    # an importer node and the exporter's country index, which puts the exporter node in the importer's product
    pair = st.tuples(st.integers(0, n_products * n - 1), st.integers(0, n - 1)).filter(lambda c: c[0] % n != c[1])
    pairs = data.draw(st.lists(pair, unique=True, max_size=30))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1e12), st.floats(5e-324, 1e-300))
    values = np.array(data.draw(st.lists(value, min_size=len(pairs), max_size=len(pairs))), dtype=np.float64)
    into, exporter = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    product, importer = np.divmod(into, n)
    money = MoneyMatrix(synthetic_registry(n), YEAR, (into, product * n + exporter), values, n_products)
    order = np.lexsort((exporter, importer, product))
    order = order[values[order] != 0.0]
    p, i, e = product[order], importer[order], exporter[order]
    for name, actual, expected in zip(("product", "importer", "exporter", "value"), (*indexes(money), money.value),
                                      (p, i, e, values[order])):
        assert np.array_equal(actual, expected), name
    assert np.array_equal(money.nodes[0], p * n + i) and np.array_equal(money.nodes[1], p * n + e)
    assert all(ids.dtype == np.int64 for ids in money.nodes)
    assert np.array_equal(money.blocks, np.searchsorted(p, np.arange(n_products + 1)))


@settings(max_examples=60)
@given(dense=dense_tensors())
def test_the_constructor_rebuilds_a_tensor_from_its_own_arrays(dense):
    money = money_from_dense(dense)
    again = MoneyMatrix(money.registry, money.year, money.nodes, money.value, money.n_products)
    assert money_fields(again) == money_fields(money)
    assert again.blocks.tobytes() == money.blocks.tobytes() and again.n_products == money.n_products


def trading(dense: np.ndarray) -> np.ndarray:
    """Countries with at least one flow.

    A country that trades nothing has an IEA balance of 0/0. Under
    volume-by-country it gets no teleport mass either, so its GMA
    probabilities can be 0 too: neither balance has a derivative.
    """
    return dense.sum(axis=(0, 1)) + dense.sum(axis=(0, 2)) > 0


def oracle_balance(money, source: str, personalization: str) -> np.ndarray:
    """B per country from the dense tensor: power iteration on each Google matrix, or volume shares.

    G and the iterates are non-negative, so each step keeps every entry to a
    few ulps of itself, tiny ones included; a dense solve of (I - G + 1) x = 1
    does not, and a country trading 1e-7 of the volume lost up to 1e-6 of its
    D_h. 0.5**200 leaves nothing of the start.
    """
    dense = money.to_dense()
    if source == "gma":
        nodes = []
        for direction in ("direct", "inverted"):
            G = dense_google_from_money(money, direction, 0.5, personalization)
            x = np.full(len(G), 1.0 / len(G))
            for _ in range(200):
                x = G @ x
                x /= x.sum()
            nodes.append(x)
    else:
        nodes = dense_volume_shares(dense)
    P, Pstar = (x.reshape(dense.shape[0], -1).sum(axis=0) for x in nodes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (Pstar - P) / (Pstar + P)


@settings(max_examples=40)
@given(
    dense=dense_tensors(),
    data=st.data(),
    source=st.sampled_from(("gma", "iea")),
    personalization=st.sampled_from(PERSONALIZATIONS),
)
def test_global_difference_matches_rebuilt_oracle(dense, data, source, personalization):
    money = money_from_dense(dense)
    product = data.draw(st.integers(0, dense.shape[0] - 1))
    config = SensitivityConfig(product=product, source=source, personalization=personalization)
    result = sensitivity_richardson(money, config)
    for key, h in (("d_h", config.step), ("d_h2", config.step / 2), ("d_h4", config.step / 4)):
        values = result[key]
        up, down = (oracle_balance(perturb_money(money, product, d), source, personalization) for d in (h, -h))
        error = np.abs(values - (up - down) / (2.0 * h))[trading(dense)]
        assert np.max(error, initial=0.0) <= GLOBAL_DIFFERENCE_TOL, (h, error)


@settings(max_examples=40)
@given(
    dense=dense_tensors(),
    data=st.data(),
    side=st.sampled_from(("export", "import")),
    personalization=st.sampled_from(PERSONALIZATIONS),
)
def test_gma_country_difference_matches_rebuilt_oracle(dense, data, side, personalization):
    money = money_from_dense(dense)
    product = data.draw(st.integers(0, dense.shape[0] - 1))
    country = f"C{data.draw(st.integers(0, dense.shape[1] - 1)):03d}"
    config = SensitivityConfig(product=product, country=country, side=side, personalization=personalization)
    result = sensitivity_richardson(money, config)
    for key, h in (("d_h", config.step), ("d_h2", config.step / 2), ("d_h4", config.step / 4)):
        up, down = (
            oracle_balance(perturb_money(money, product, d, country, side), "gma", personalization)
            for d in (h, -h)
        )
        error = np.abs(result[key] - (up - down) / (2.0 * h))[trading(dense)]
        assert np.max(error, initial=0.0) <= GLOBAL_DIFFERENCE_TOL, (h, error)


@settings(max_examples=60)
@given(
    dense=dense_tensors(),
    data=st.data(),
    side=st.sampled_from(("export", "import")),
    personalization=st.sampled_from(PERSONALIZATIONS),
    step=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_moved_operator_is_the_perturbed_tensors(dense, data, side, personalization, step):
    money = money_from_dense(dense)
    product = data.draw(st.integers(0, dense.shape[0] - 1))
    c = data.draw(st.integers(0, dense.shape[1] - 1))
    config = SensitivityConfig(product, f"C{c:03d}", step, side=side, personalization=personalization)
    moving = {"export": "inverted", "import": "direct"}[side]
    with mock.patch.object(analysis, "_block_variant", wraps=analysis._block_variant) as spy:
        balance_sensitivity(money, config)
    # the moving direction's operators at +h and at -h, when the country has flows to scale
    varied = [call.args[1] for call in spy.call_args_list if call.args[0].direction == moving]
    assert len(varied) == 2 * (dense[product][:, c] if side == "export" else dense[product][c]).any()
    for G, delta in zip(varied, (step, -step)):
        perturbed = perturb_money(money, product, delta, config.country, side)
        expected = build_google(perturbed, moving, config.alpha, personalization)
        np.testing.assert_allclose(G.S.value, expected.S.value, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(G.v.values, expected.v.values, rtol=1e-14, atol=0.0)
        assert np.array_equal(G.S.dangling, expected.S.dangling) and G.alpha == expected.alpha


@settings(max_examples=60)
@given(data=st.data(), dense=dense_tensors(), side=st.sampled_from(("export", "import")))
def test_iea_country_difference_matches_perturbed_shares(data, dense, side):
    product = data.draw(st.integers(0, dense.shape[0] - 1))
    country = f"C{data.draw(st.integers(0, dense.shape[1] - 1)):03d}"
    money = money_from_dense(dense)
    config = SensitivityConfig(product=product, country=country, source="iea", side=side)
    sens = balance_sensitivity(money, config)
    values, reports = sens.values, sens.reports
    balances = []
    for delta in (config.step, -config.step):
        perturbed = perturb_money(money, product, delta, config.country, side)
        P, Pstar = (aggregate_country(x) for x in volume_probabilities(perturbed))
        balances.append(trade_balance(P, Pstar, "iea").values)
    error = np.abs(values - (balances[0] - balances[1]) / (2.0 * config.step))[trading(dense)]
    assert np.max(error, initial=0.0) <= IEA_DIFFERENCE_TOL
    assert reports == ()


#: Largest deviation of the reduced matrix from the dense block formula's.
REGOMAX_TOL = 1e-10


@st.composite
def regomax_cases(draw):
    """A tensor and a shuffled subset: per product none, all, one or some of the countries kept.

    The lone kept node and one node of the product kept nowhere trade nothing,
    so both sides of the partition hold dangling columns in both directions.
    The wholly kept product holds the largest flow, which keeps (1 - G_ss)
    well conditioned: every column teleports a share of it to kept nodes.
    """
    n_products, n_countries = draw(st.integers(3, 5)), draw(st.integers(3, 6))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
    dense = draw(arrays(np.float64, (n_products, n_countries, n_countries), elements=cell))
    dense[:, np.arange(n_countries), np.arange(n_countries)] = 0.0
    none, whole, lone, *rest = draw(st.permutations(range(n_products)))
    chosen = {whole: range(n_countries), lone: [draw(st.integers(0, n_countries - 1))]}
    for p in rest:
        chosen[p] = draw(st.sets(st.integers(0, n_countries - 1), max_size=n_countries - 1))
    idle = draw(st.integers(0, n_countries - 1))
    for p, c in ((lone, chosen[lone][0]), (none, idle)):
        dense[p, c, :] = dense[p, :, c] = 0.0
    dense[whole, 0, 1] = 1e6
    ids = [p * n_countries + c for p, countries in chosen.items() for c in countries]
    return dense, NodeSubset(tuple(draw(st.permutations(ids))), n_products * n_countries)


@settings(max_examples=40)
@given(case=regomax_cases(), alpha=st.floats(0.05, 0.95))
def test_reduced_matrix_matches_dense_block_formula(case, alpha):
    dense, subset = case
    money = money_from_dense(dense)
    kept = np.zeros(subset.size_total, dtype=bool)
    kept[list(subset.node_ids)] = True
    for direction in ("direct", "inverted"):
        for personalization in PERSONALIZATIONS:
            G = build_google(money, direction, alpha, personalization)
            assert G.S.dangling[kept].any() and G.S.dangling[~kept].any()
            GR = reduced_google_matrix(G, subset)
            assert np.max(np.abs(GR.matrix - dense_regomax_oracle(G, subset))) < REGOMAX_TOL
