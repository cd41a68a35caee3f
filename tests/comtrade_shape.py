"""COMTRADE-shaped trade files: many rows a flow, integer values, three-digit SITC codes and mirror reports.

    PYTHONPATH=src python tests/comtrade_shape.py trade.csv --countries 60

Takes the flows of ``synthetic_money`` (ten products, density 0.4), each
rounded to an integer number of thousandths, and splits each into 1-15 rows
of positive integer values under three-digit SITC codes of its product, as a
COMTRADE extract below the one-digit level reports it. About half of the
rows are repeated as ``m`` mirror reports, which ingest skips. Reading the
file for 2018 gives one entry per flow, its integer total, exactly. At 194
countries (the default) the file holds about 1.8 million rows.
"""

from __future__ import annotations

import argparse

import numpy as np

from wtnrank._text import write_lines
from wtnrank.testkit import SyntheticSpec, synthetic_money

YEAR = 2018
HEADER = "year,exporter,importer,sitc,value_usd,flow"


def comtrade_flows(seed: int = 1, n_countries: int = 194) -> tuple:
    """The registry codes and the (product, importer, exporter, integer total) columns of each flow."""
    money = synthetic_money(SyntheticSpec(seed, n_countries, 10, density=0.4))
    product, importer = np.divmod(money.nodes[0], n_countries)
    totals = np.rint(money.value * 1000).astype(np.int64)   # the values lie in [1, 1000]
    return money.registry.codes, product, importer, money.nodes[1] % n_countries, totals


def comtrade_lines(seed: int = 1, n_countries: int = 194) -> list[str]:
    """The header and rows of one COMTRADE-shaped file, flow by flow, each mirror report after its row."""
    codes, product, importer, exporter, totals = comtrade_flows(seed, n_countries)
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 16, len(totals))
    flow = np.repeat(np.arange(len(totals)), counts)
    weights = rng.random(len(flow))
    # each row takes 1 plus its share of the rest, rounded down; the flow's first row takes what is left
    parts = np.floor((totals - counts)[flow] * weights / np.bincount(flow, weights)[flow]).astype(np.int64) + 1
    firsts = np.cumsum(counts) - counts
    parts[firsts] += totals - np.add.reduceat(parts, firsts)
    sitc = product[flow] * 100 + rng.integers(0, 100, len(flow))
    mirrored = rng.random(len(flow)) < 0.5
    lines = [HEADER]
    for e, i, code, value, mirror in zip(*(a.tolist() for a in (exporter[flow], importer[flow], sitc, parts, mirrored))):
        row = f"{YEAR},{codes[e]},{codes[i]},{code:03d},{value}"
        lines.append(f"{row},x")
        if mirror:
            lines.append(f"{row},m")
    return lines


def write_comtrade_file(path, seed: int = 1, n_countries: int = 194):
    """Write :func:`comtrade_lines` to ``path``; returns the path."""
    return write_lines(path, comtrade_lines(seed, n_countries))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--countries", type=int, default=194)
    args = parser.parse_args()
    write_comtrade_file(args.path, args.seed, args.countries)
