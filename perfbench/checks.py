"""Output checks of one CLI invocation, with the acceptance tests' tolerances.

Each check returns a list of problems; an empty list means the artifacts
hold. Golden bytes are deliberately not compared: a correct change may move
the last bits of a result. Byte identity is only required between the
invocations of one run (criterion 8).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import N_PRODUCTS, Prepared, dense_stationary_solve

PROBABILITY_TOL = 1e-10      # ranks.PROBABILITY_TOL
ORACLE_L1_TOL = 1e-10        # criterion 2
REDUCED_SUM_TOL = 1e-10      # regomax.REDUCED_SUM_TOL
RESTRICTION_L1_TOL = 1e-8    # criterion 3
BALANCE_TOL = 1e-12
RICHARDSON_RANGE = (3.0, 5.0)  # criterion 5


def digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict[str, list[str]]:
    header, rows = _table(path)
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def check_rank_table(path: Path, prep: Prepared) -> list[str]:
    problems = []
    cols = _columns(path)
    codes = cols["entity"]
    n = len(prep.codes)
    if sorted(codes) != sorted(prep.codes):
        return [f"{path.name}: countries differ from the input's {n}"]
    for name in ("P", "Pstar", "Phat", "Phatstar"):
        total = math.fsum(float(x) for x in cols[name])
        if abs(total - 1.0) >= PROBABILITY_TOL:
            problems.append(f"{path.name}: {name} sums to {total!r}")
    for name in ("K", "Kstar", "Khat", "Khatstar"):
        if sorted(int(x) for x in cols[name]) != list(range(1, n + 1)):
            problems.append(f"{path.name}: {name} is not a permutation of 1..{n}")
    if prep.reference:   # a dense solve: rank tables are only written at N <= DENSE_REFERENCE_MAX
        index = {code: k for k, code in enumerate(prep.codes)}
        order = [index[code] for code in codes]
        for name, direction in (("P", "direct"), ("Pstar", "inverted")):
            node = prep.reference[direction].reshape(N_PRODUCTS, n).sum(axis=0)[order]
            err = float(np.abs(np.array([float(x) for x in cols[name]]) - node).sum())
            if err >= ORACLE_L1_TOL:
                problems.append(f"{path.name}: {name} differs from the dense solve by L1 {err:.2e}")
    return problems


def check_balance(path: Path, rank_table: Path) -> list[str]:
    problems = []
    ranks = _columns(rank_table)
    by_code = {
        code: [float(ranks[name][k]) for name in ("P", "Pstar", "Phat", "Phatstar")]
        for k, code in enumerate(ranks["entity"])
    }
    cols = _columns(path)
    for k, code in enumerate(cols["country"]):
        P, Pstar, Phat, Phatstar = by_code[code]
        for name, b, lo, hi in (("B_gma", cols["B_gma"][k], P, Pstar), ("B_iea", cols["B_iea"][k], Phat, Phatstar)):
            value = float(b)
            expected = (hi - lo) / (hi + lo) if hi + lo > 0.0 else math.nan
            if math.isnan(expected) and math.isnan(value):
                continue
            if not -1.0 <= value <= 1.0 or not abs(value - expected) <= BALANCE_TOL:
                problems.append(f"{path.name}: {name}({code}) = {b}, expected {expected!r}")
    return problems


def check_sensitivity_csv(path: Path, prep: Prepared) -> list[str]:
    cols = _columns(path)
    if sorted(cols["country"]) != sorted(prep.codes):
        return [f"{path.name}: countries differ from the input"]
    if not all(math.isfinite(float(x)) for x in cols["dB_ddelta"]):
        return [f"{path.name}: non-finite sensitivity"]
    return []


def check_sensitivity_manifest(path: Path) -> list[str]:
    problems = []
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for source, entry in sorted(manifest["sources"].items()):
        if not all(report["converged"] for report in entry["reports"]):
            problems.append(f"{path.name}: a {source} solve did not converge")
        ratio = entry["richardson"]["median_ratio"]
        lo, hi = RICHARDSON_RANGE
        if ratio is None or not lo <= ratio <= hi:
            problems.append(f"{path.name}: {source} median Richardson ratio {ratio} outside [{lo}, {hi}]")
    return problems


def reduced_errors(path: Path, prep: Prepared) -> tuple[float, float, float]:
    """Smallest entry of G_R, its column-sum error, and the L1 distance of its
    stationary vector to the normalised restriction of the full reference vector."""
    header, rows = _table(path)
    G = np.array([[float(x) for x in row] for row in rows])
    n = len(prep.codes)
    index = {code: k for k, code in enumerate(prep.codes)}
    nodes = []
    for label in header:
        code, product = label.rsplit("_", 1)
        nodes.append(int(product) * n + index[code])
    direction = "direct" if path.name.startswith("gr_direct") else "inverted"
    restricted = prep.reference[direction][nodes]
    restricted = restricted / restricted.sum()
    stationary = dense_stationary_solve(G)
    colsum = float(np.max(np.abs(G.sum(axis=0) - 1.0)))
    return float(G.min()), colsum, float(np.abs(stationary / stationary.sum() - restricted).sum())


def check_reduced(path: Path, prep: Prepared) -> list[str]:
    smallest, colsum, restriction = reduced_errors(path, prep)
    problems = []
    if smallest < 0.0:
        problems.append(f"{path.name}: negative entry {smallest!r}")
    if not colsum < REDUCED_SUM_TOL:
        problems.append(f"{path.name}: column sums deviate from 1 by {colsum:.2e}")
    if not restriction < RESTRICTION_L1_TOL:
        problems.append(f"{path.name}: stationary vector differs from the restricted PageRank by L1 {restriction:.2e}")
    return problems


def check_outputs(out_dir: Path, prep: Prepared) -> list[str]:
    """Every problem found in one invocation's artifacts."""
    missing = [name for name in prep.expected if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing]
    problems = []
    for name in prep.expected:
        path = out_dir / name
        if name.startswith("rank_table_"):
            problems += check_rank_table(path, prep)
        elif name.startswith("balance_"):
            problems += check_balance(path, out_dir / name.replace("balance_", "rank_table_"))
        elif name.startswith("sensitivity_") and name.endswith(".csv"):
            problems += check_sensitivity_csv(path, prep)
        elif name.startswith("sensitivity_"):
            problems += check_sensitivity_manifest(path)
        elif name.startswith("gr_"):
            problems += check_reduced(path, prep)
    return problems
