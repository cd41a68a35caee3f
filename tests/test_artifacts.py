"""Every number of the pipeline and dump files, recomputed from the dense oracles.

The fixture file exercises what ingest does besides reading: two members
merged into a bloc, a mirror row, a key given twice and a country whose
only rows are self-flows. The test sums the tensor by hand, builds both
Google matrices with ``testkit.dense_google_from_money``, takes their
stationary vectors by power iteration and checks each file against them;
the sensitivities are central differences of ``testkit.perturb_money``.
"""

import numpy as np
import pytest

from wtnrank import NodeSubset, build_google, cli
from wtnrank.analysis import DEFAULT_STEP
from wtnrank.gmatrix import DIRECTIONS, PERSONALIZATION_MODES
from wtnrank.ingest import N_PRODUCTS, CountryRegistry, MoneyMatrix
from wtnrank.testkit import (
    dense_google_from_money,
    dense_regomax_oracle,
    dense_stationary,
    densify,
    perturb_money,
)

YEAR = 2018
ALPHA = 0.5
BLOCS = {"AAA": "BLC", "BBB": "BLC"}
# exporter, importer, SITC code, value, flow
ROWS = [
    ("AAA", "CCC", "33", 40.0, "x"),
    ("BBB", "CCC", "34", 20.0, "x"),    # the same key as the row above once AAA and BBB merge
    ("AAA", "BBB", "3", 99.0, "x"),     # a self-flow of the bloc
    ("CCC", "DDD", "3", 12.5, "x"),
    ("CCC", "DDD", "3", 7.5, "x"),      # a key given twice
    ("CCC", "DDD", "3", 1000.0, "m"),   # a mirror report
    ("DDD", "AAA", "3", 30.0, "x"),
    ("EEE", "FFF", "3", 45.0, "x"),     # FFF imports what DDD does: a tie of the import index
    ("FFF", "DDD", "3", 25.0, "x"),
    ("CCC", "EEE", "7", 50.0, "x"),
    ("EEE", "BBB", "7", 35.0, "x"),
    ("AAA", "CCC", "7", 10.0, "x"),
    ("FFF", "CCC", "7", 6.0, "x"),
    ("DDD", "EEE", "7", 8.0, "x"),
    ("SLF", "SLF", "3", 70.0, "x"),     # SLF trades only with itself
    ("SLF", "SLF", "7", 5.0, "x"),
]
VALUE_TOL = 1e-13
# an error of VALUE_TOL in B at delta = +-h becomes VALUE_TOL / h in D_h
SENSITIVITY_TOL = VALUE_TOL / DEFAULT_STEP
# below 6, so the rank planes keep some countries and drop others
INDEX_CUTOFF = 4


def expected_money() -> MoneyMatrix:
    """The fixture's tensor summed by hand: members merged, mirror rows and self-flows dropped."""
    canonical = lambda code: BLOCS.get(code, code)
    codes = tuple(sorted({canonical(code) for row in ROWS for code in row[:2]}))
    dense = np.zeros((N_PRODUCTS, len(codes), len(codes)))
    for exporter, importer, sitc, value, flow in ROWS:
        exporter, importer = canonical(exporter), canonical(importer)
        if flow == "x" and exporter != importer:
            dense[int(sitc[0]), codes.index(importer), codes.index(exporter)] += value
    return MoneyMatrix.from_dense(dense, CountryRegistry(codes, codes, {}), YEAR)


def country_vectors(money: MoneyMatrix, personalization: str) -> dict:
    """P and P* from the dense Google matrices' stationary vectors, Phat and Phat* from the volume shares."""
    n = money.n_countries
    P, Pstar = (
        dense_stationary(dense_google_from_money(money, d, ALPHA, personalization)).reshape(N_PRODUCTS, n).sum(axis=0)
        for d in DIRECTIONS
    )
    dense = money.to_dense()
    Phat, Phatstar = dense.sum(axis=(0, 2)) / dense.sum(), dense.sum(axis=(0, 1)) / dense.sum()
    return {"P": P, "Pstar": Pstar, "Phat": Phat, "Phatstar": Phatstar}


def balances(values: dict) -> dict:
    """B of both sources; a country with P + P* = 0 gets NaN."""
    with np.errstate(invalid="ignore"):
        return {
            "gma": (values["Pstar"] - values["P"]) / (values["Pstar"] + values["P"]),
            "iea": (values["Phatstar"] - values["Phat"]) / (values["Phatstar"] + values["Phat"]),
        }


def indexes(values: np.ndarray, codes: tuple) -> np.ndarray:
    """Rank 1 for the largest value; ties go to the smaller code."""
    order = sorted(range(len(codes)), key=lambda i: (-values[i], codes[i]))
    ranks = np.empty(len(codes), dtype=np.int64)
    ranks[order] = np.arange(1, len(codes) + 1)
    return ranks


def read_csv(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.fixture(scope="module", params=PERSONALIZATION_MODES)
def run(request, tmp_path_factory):
    """Pipeline and dump outputs of the fixture file, and the oracle's numbers."""
    personalization = request.param
    work = tmp_path_factory.mktemp(personalization)
    trade = work / "trade.csv"
    lines = ["year,exporter,importer,sitc,value_usd,flow"]
    lines += [f"{YEAR},{e},{i},{s},{v!r},{f}" for e, i, s, v, f in ROWS] + [f"{YEAR - 1},CCC,ZZZ,3,5,x"]
    trade.write_text("\n".join(lines) + "\n")
    blocs = work / "blocs.csv"
    blocs.write_text("member_code,bloc_code\n" + "".join(f"{m},{b}\n" for m, b in BLOCS.items()))
    out = work / "out"
    for command in ("pipeline", "dump"):
        argv = [command, "--input", str(trade), "--year", str(YEAR), "--aggregate", str(blocs)]
        argv += ["--index-cutoff", str(INDEX_CUTOFF)]
        assert cli.main([*argv, "--out", str(out), "--personalization", personalization]) == 0

    money = expected_money()
    codes, n = money.registry.codes, money.n_countries
    google = {d: dense_google_from_money(money, d, ALPHA, personalization) for d in DIRECTIONS}
    values = country_vectors(money, personalization)
    for vector in (values["P"], values["Pstar"]):   # no near-tie the oracle's rounding could order either way
        gaps = np.abs(vector[:, None] - vector[None, :])[~np.eye(n, dtype=bool)]
        assert gaps.min() > 1e-9
    names = {"K": "P", "Kstar": "Pstar", "Khat": "Phat", "Khatstar": "Phatstar"}
    return {
        "out": out,
        "personalization": personalization,
        "money": money,
        "google": google,
        "values": values,
        "K": {index: indexes(values[name], codes) for index, name in names.items()},
    }


def assert_close(written: str, expected: float, tol: float = VALUE_TOL):
    if np.isnan(expected):
        assert written == "nan"
    else:
        assert abs(float(written) - expected) < tol, (written, expected)


def test_fixture_has_the_cases_it_names(run):
    money = run["money"]
    assert money.registry.codes == ("BLC", "CCC", "DDD", "EEE", "FFF", "SLF")
    K = run["K"]
    assert K["Khat"][2] + 1 == K["Khat"][4]   # DDD and FFF tie on imports; the code breaks it
    assert run["values"]["Phat"][2] == run["values"]["Phat"][4]
    assert not np.array_equal(K["Khat"], K["Khatstar"])


def test_rank_table(run):
    codes = run["money"].registry.codes
    header, *rows = read_csv(run["out"] / f"rank_table_{YEAR}.csv")
    assert header == ["entity", "P", "Pstar", "K", "Kstar", "Phat", "Phatstar", "Khat", "Khatstar"]
    assert sorted(row[0] for row in rows) == list(codes)
    for position, row in enumerate(rows):
        cells = dict(zip(header, row))
        c = codes.index(cells["entity"])
        assert int(cells["K"]) == position + 1
        for name, values in run["values"].items():
            assert_close(cells[name], values[c])
        for name, ranks in run["K"].items():
            assert int(cells[name]) == ranks[c], name


def test_top_table(run):
    codes = run["money"].registry.codes
    header, *rows = read_csv(run["out"] / f"top_table_{YEAR}.csv")
    assert header == ["rank", "pagerank", "cheirank", "importrank", "exportrank"]
    assert len(rows) == len(codes)
    for r, row in enumerate(rows, start=1):
        expected = [codes[list(run["K"][name]).index(r)] for name in ("K", "Kstar", "Khat", "Khatstar")]
        assert row == [str(r), *expected]


@pytest.mark.parametrize("kind,axes", [("google", ("K", "Kstar")), ("volume", ("Khat", "Khatstar"))])
def test_rank_plane(run, kind, axes):
    codes = run["money"].registry.codes
    kx, ky = (run["K"][axis] for axis in axes)
    below = [c for c in range(len(codes)) if kx[c] < INDEX_CUTOFF and ky[c] < INDEX_CUTOFF]
    assert 0 < len(below) < len(codes)
    header, *rows = read_csv(run["out"] / f"rank_plane_{kind}_{YEAR}.csv")
    assert header == ["entity", *axes]
    assert rows == [[codes[c], str(kx[c]), str(ky[c])] for c in sorted(below, key=lambda c: (kx[c], ky[c]))]


def test_balance(run):
    codes = run["money"].registry.codes
    expected = balances(run["values"])
    header, *rows = read_csv(run["out"] / f"balance_{YEAR}.csv")
    assert header == ["country", "B_gma", "B_iea"]
    assert [row[0] for row in rows] == list(codes)
    assert rows[codes.index("SLF")][2] == "nan"
    for c, (_, b_gma, b_iea) in enumerate(rows):
        assert_close(b_gma, expected["gma"][c])
        assert_close(b_iea, expected["iea"][c])


@pytest.mark.parametrize("product", cli.PIPELINE_PRODUCTS)
def test_sensitivity(run, product):
    codes = run["money"].registry.codes
    h = DEFAULT_STEP
    up, down = (
        balances(country_vectors(perturb_money(run["money"], product, delta), run["personalization"]))
        for delta in (h, -h)
    )
    for source in ("gma", "iea"):
        header, *rows = read_csv(run["out"] / f"sensitivity_{source}_s{product}_{YEAR}.csv")
        assert header == ["country", "dB_ddelta"]
        assert [row[0] for row in rows] == list(codes)
        d_h = (up[source] - down[source]) / (2.0 * h)
        assert np.nanmax(np.abs(d_h)) > 1e3 * SENSITIVITY_TOL   # the price moves every balance
        for (_, written), expected in zip(rows, d_h):
            assert_close(written, expected, SENSITIVITY_TOL)


@pytest.mark.parametrize("direction", ["direct", "inverted"])
def test_reduced_matrix_and_friends(run, direction):
    money = run["money"]
    codes, n = money.registry.codes, money.n_countries
    subset = [codes[list(run["K"]["K"]).index(r)] for r in range(1, 5)]
    nodes = tuple(p * n + codes.index(code) for code in subset for p in range(N_PRODUCTS))
    labels = [f"{code}_{p}" for code in subset for p in range(N_PRODUCTS)]
    G = build_google(money, direction, ALPHA, run["personalization"])
    assert np.abs(densify(G) - run["google"][direction]).max() < 1e-15
    oracle = dense_regomax_oracle(G, NodeSubset(nodes, G.size))

    header, *rows = read_csv(run["out"] / f"gr_{direction}_{YEAR}.csv")
    assert header == labels and len(rows) == len(labels)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            assert_close(cell, oracle[i, j])

    # friends read by column: column j of G_R holds the transitions out of node j
    header, *edges = read_csv(run["out"] / f"friends_{direction}_{YEAR}.csv")
    assert header == ["source", "target", "weight"]
    assert [source for source, _, _ in edges] == [label for label in labels for _ in range(4)]
    for j, label in enumerate(labels):
        out = edges[4 * j : 4 * j + 4]
        targets = [labels.index(target) for _, target, _ in out]
        assert j not in targets and len(set(targets)) == 4
        for (_, _, weight), i in zip(out, targets):
            assert_close(weight, oracle[i, j])
        chosen = oracle[targets, j]
        assert np.all(np.diff(chosen) <= VALUE_TOL)
        others = [i for i in range(len(labels)) if i != j and i not in targets]
        assert oracle[others, j].max() <= chosen.min() + VALUE_TOL


@pytest.mark.parametrize("direction", ["direct", "inverted"])
def test_matrix_dump(run, direction):
    money = run["money"]
    size = money.n_countries * N_PRODUCTS
    header, *triplets = read_csv(run["out"] / f"gmatrix_{direction}_{YEAR}.csv")
    assert header == ["row", "col", "value"]
    row, col = (np.array([int(t[i]) for t in triplets]) for i in (0, 1))
    assert np.all(np.diff(row * size + col) > 0)   # ordered by (row, col), no repeats
    links = np.zeros((size, size))
    links[row, col] = [float(t[2]) for t in triplets]

    dense = money.to_dense()
    blocks = dense if direction == "direct" else dense.transpose(0, 2, 1)
    pattern = np.zeros((size, size), dtype=bool)
    for p in range(N_PRODUCTS):
        span = slice(p * money.n_countries, (p + 1) * money.n_countries)
        pattern[span, span] = blocks[p] != 0
    assert np.array_equal(links != 0, pattern)

    sidecar = (run["out"] / f"gmatrix_{direction}_{YEAR}.meta").read_text()
    meta = dict(line.split("=", 1) for line in sidecar.splitlines())
    assert float(meta["alpha"]) == ALPHA
    dangling = [int(i) for i in meta["dangling"].split(",") if i]
    assert dangling == list(np.flatnonzero(~pattern.any(axis=0)))
    v = np.array([float(x) for x in meta["v"].split(",")])
    links[:, dangling] = 1.0 / size
    rebuilt = ALPHA * links + (1.0 - ALPHA) * np.outer(v, np.ones(size))
    assert np.abs(rebuilt - run["google"][direction]).max() < 1e-15
