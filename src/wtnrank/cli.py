"""Command-line front end: trade file in, analysis artifacts out.

One subcommand per artifact family: ``rank`` (full rank table, top-k table,
rank-plane scatters), ``balance`` (per-country balance for both sources),
``sensitivity`` (dB/ddelta files plus a JSON run manifest), ``regomax``
(reduced matrices and friends edge lists for a country subset), ``dump``
(raw stochastic-matrix triplets) and ``pipeline``, which runs everything
for one year. All outputs are deterministic: rerunning a command on the
same inputs reproduces every file byte for byte. The dense solves run on one
BLAS thread (see the package's ``__init__``), so the bytes do not depend on
``OPENBLAS_NUM_THREADS`` or on the core count.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_STEP,
    PERTURB_SIDES,
    SOURCES,
    SensitivityConfig,
    SensitivityVector,
    gma_country_probabilities,
    iea_country_probabilities,
    sensitivity_richardson,
    trade_balance,
    write_balance,
    write_sensitivity,
)
from ._text import write_columns, write_json, write_lines
from .errors import WtnError
from .gmatrix import (
    DIRECTIONS,
    PERSONALIZATION_MODES,
    GoogleMatrix,
    build_google,
    write_matrix_dump,
)
from .ingest import load_money_matrix, read_aggregation_file
from .ranks import (
    DEFAULT_TOL,
    build_rank_table,
    rank_plane_points,
    write_rank_table,
    write_top_table,
)
from .regomax import (
    FRIEND_MODES,
    friends_network,
    reduced_google_matrix,
    subset_from_countries,
    write_edge_list,
    write_reduced_matrix,
)

#: Relative --input/--aggregate paths are also tried under this directory.
DATA_DIR_ENV = "WTNRANK_DATA_DIR"

#: --aggregate value mapping to the packaged EU-27 member list.
EU27_ALIAS = "eu27"

#: Sensitivity products the pipeline command tries by default: mineral
#: fuels (3) and machinery (7); slices without volume are skipped.
PIPELINE_PRODUCTS = (3, 7)

#: Countries in the pipeline's default REGOMAX subset (top of PageRank).
PIPELINE_SUBSET_SIZE = 4

_SVG_SIZE = 480
_SVG_MARGIN = 48


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one command invocation."""

    command: str
    input: Path
    year: int
    out: Path
    aggregate: Path | None = None
    alpha: float = 0.5
    tol: float = DEFAULT_TOL
    personalization: str = "uniform-by-product"
    top: int = 20
    index_cutoff: int = 61
    svg: bool = False
    sens_product: int | None = None
    sens_country: str | None = None
    step: float = DEFAULT_STEP
    sens_side: str = "export"
    subset: tuple[str, ...] | None = None
    k: int = 4
    friends_by: str = "column"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not self.input.exists():
            raise FileNotFoundError(f"input file not found: {self.input}")
        if self.aggregate is not None and not self.aggregate.exists():
            raise FileNotFoundError(f"aggregation file not found: {self.aggregate}")


def _resolve_existing(raw: str, kind: str) -> Path:
    """Resolve a path argument, falling back to the data directory."""
    path = Path(raw)
    if path.exists():
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir and not path.is_absolute():
        candidate = Path(data_dir) / raw
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"{kind} file not found: {raw}")


def _resolve_aggregate(raw: str | None) -> Path | None:
    if raw is None:
        return None
    if raw.lower() == EU27_ALIAS:
        packaged = resources.files("wtnrank") / "data" / "eu27_aggregation.csv"
        return Path(str(packaged))
    return _resolve_existing(raw, "aggregation")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    subset = None
    if args.subset:
        subset = tuple(code.strip() for code in args.subset.split(",") if code.strip())
        if not subset:
            raise ValueError("subset must name at least one country")
    return RunConfig(
        command=args.command,
        input=_resolve_existing(args.input, "input"),
        year=args.year,
        out=Path(args.out),
        aggregate=_resolve_aggregate(args.aggregate),
        alpha=args.alpha,
        tol=args.tol,
        personalization=args.personalization,
        top=args.top,
        index_cutoff=args.index_cutoff,
        svg=args.svg,
        sens_product=args.sens_product,
        sens_country=args.sens_country,
        step=args.step,
        sens_side=args.sens_side,
        subset=subset,
        k=args.k,
        friends_by=args.friends_by,
    )


def _load_money(config: RunConfig):
    aggregation = None
    if config.aggregate is not None:
        with open(config.aggregate, "r", encoding="utf-8", newline="") as fh:
            aggregation = read_aggregation_file(fh)
    return load_money_matrix(config.input, config.year, aggregation)


def _operators(config: RunConfig, money) -> tuple[GoogleMatrix, GoogleMatrix]:
    """The Google matrices of ``money``, one per entry of DIRECTIONS."""
    return tuple(
        build_google(money, direction, config.alpha, config.personalization)
        for direction in DIRECTIONS
    )


def _country_vectors(config: RunConfig, money, operators=None) -> tuple:
    """PageRank, CheiRank, import and export country vectors, in that order."""
    p_c, pstar_c, _ = gma_country_probabilities(
        money, config.alpha, config.tol, config.personalization, operators
    )
    return (p_c, pstar_c, *iea_country_probabilities(money))


def _plane_svg(points, x_label: str, y_label: str, cutoff: int) -> list[str]:
    """Self-contained SVG scatter of one rank plane (no external assets)."""
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    scale = span / max(cutoff - 1, 1)

    def sx(k: int) -> float:
        return _SVG_MARGIN + (k - 1) * scale

    def sy(k: int) -> float:
        return _SVG_SIZE - _SVG_MARGIN - (k - 1) * scale

    left, right = _SVG_MARGIN, _SVG_SIZE - _SVG_MARGIN
    top, bottom = _SVG_MARGIN, _SVG_SIZE - _SVG_MARGIN
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="black"/>',
    ]
    ticks = [1] + list(range(10, cutoff, 10))
    for k in ticks:
        lines.append(
            f'<line x1="{sx(k):.2f}" y1="{bottom}" x2="{sx(k):.2f}" y2="{bottom + 4}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{sx(k):.2f}" y="{bottom + 16}" font-size="10" font-family="sans-serif" '
            f'text-anchor="middle">{k}</text>'
        )
        lines.append(
            f'<line x1="{left - 4}" y1="{sy(k):.2f}" x2="{left}" y2="{sy(k):.2f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{left - 6}" y="{sy(k) + 3:.2f}" font-size="10" font-family="sans-serif" '
            f'text-anchor="end">{k}</text>'
        )
    lines.append(
        f'<text x="{(left + right) / 2:.2f}" y="{_SVG_SIZE - 12}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">{x_label}</text>'
    )
    lines.append(
        f'<text x="14" y="{(top + bottom) / 2:.2f}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 14 {(top + bottom) / 2:.2f})">{y_label}</text>'
    )
    for code, kx, ky in points:
        lines.append(f'<circle cx="{sx(kx):.2f}" cy="{sy(ky):.2f}" r="3" fill="#1f6fb2"/>')
        lines.append(
            f'<text x="{sx(kx) + 4:.2f}" y="{sy(ky) - 4:.2f}" font-size="8" '
            f'font-family="sans-serif">{code}</text>'
        )
    lines.append("</svg>")
    return lines


_PLANE_AXES = {"google": ("K", "Kstar"), "volume": ("Khat", "Khatstar")}


def cmd_rank(config: RunConfig, money) -> list[Path]:
    """Rank table, top-k table and the two rank-plane scatters."""
    return _write_rank(config, money.year, build_rank_table(*_country_vectors(config, money)))


def _write_rank(config: RunConfig, year: int, table) -> list[Path]:
    written = [
        write_rank_table(table, config.out / f"rank_table_{year}.csv"),
        write_top_table(table, config.out / f"top_table_{year}.csv", config.top),
    ]
    for kind in ("google", "volume"):
        points = rank_plane_points(table, kind, config.index_cutoff)
        x_label, y_label = _PLANE_AXES[kind]
        indexes = np.array([point[1:] for point in points], dtype=np.int64).reshape(-1, 2)
        columns = ([point[0] for point in points], *indexes.T)
        written.append(write_columns(config.out / f"rank_plane_{kind}_{year}.csv", ("entity", x_label, y_label), columns))
        if config.svg:
            svg = _plane_svg(points, x_label, y_label, config.index_cutoff)
            written.append(write_lines(config.out / f"rank_plane_{kind}_{year}.svg", svg))
    return written


def cmd_balance(config: RunConfig, money) -> list[Path]:
    """Per-country balance, both sources, keyed by canonical code."""
    return _write_balance(config, money.year, *_country_vectors(config, money))


def _write_balance(config: RunConfig, year: int, p_c, pstar_c, phat_c, phatstar_c) -> list[Path]:
    gma, iea = trade_balance(p_c, pstar_c, "gma"), trade_balance(phat_c, phatstar_c, "iea")
    return [write_balance(config.out / f"balance_{year}.csv", gma, iea)]


def _richardson_summary(result: dict) -> dict:
    """Convergence diagnostic: ratio of successive halved-step differences."""
    spread = np.abs(result["d_h2"] - result["d_h4"])
    # a difference quotient at step h carries rounding of about eps / h; a spread
    # not a thousand times above it measures that rounding, not convergence
    mask = spread > 1e3 * np.finfo(np.float64).eps / result["h"]
    checked = int(mask.sum())
    ratios = np.sort(result["ratio"][mask])
    # the mean of the middle one or two, as np.median takes it; np.median would import numpy.ma
    median = float(np.mean(ratios[(checked - 1) // 2 : checked // 2 + 1])) if checked else None
    return {"h": result["h"], "checked": checked, "median_ratio": median}


def cmd_sensitivity(config: RunConfig, money, operators=None, vectors=None) -> list[Path]:
    """dB/ddelta per country for both sources, plus the run manifest.

    ``operators`` and ``vectors`` are those of :func:`_operators` and
    :func:`_country_vectors`, when already built.
    """
    if config.sens_product is None:
        raise ValueError("sensitivity needs --sens-product")
    volumes = money.product_volumes()
    # an index out of range is left to sensitivity_richardson, which names it as such
    if 0 <= config.sens_product < len(volumes) and volumes[config.sens_product] == 0.0:
        raise ValueError(f"product {config.sens_product} has no trade volume in {money.year}")
    target = f"s{config.sens_product}"
    if config.sens_country is not None:
        target = f"{config.sens_country}_{target}"
    year = money.year
    written = []
    manifest = {
        "alpha": config.alpha,
        "country": config.sens_country,
        "h": config.step,
        "personalization": config.personalization,
        "product": config.sens_product,
        "side": config.sens_side,
        "year": year,
        "sources": {},
    }
    bases = (vectors[:2], vectors[2:]) if vectors else (None, None)
    for source, base in zip(SOURCES, bases):
        sens_config = SensitivityConfig(
            product=config.sens_product,
            country=config.sens_country,
            step=config.step,
            source=source,
            side=config.sens_side,
            alpha=config.alpha,
            tol=config.tol,
            personalization=config.personalization,
        )
        result = sensitivity_richardson(money, sens_config, operators, base)
        sensitivity = SensitivityVector(tuple(money.registry.codes), result["d_h"], result["reports"])
        written.append(
            write_sensitivity(config.out / f"sensitivity_{source}_{target}_{year}.csv", sensitivity)
        )
        manifest["sources"][source] = {
            "reports": [report.as_dict() for report in result["reports"]],
            "richardson": _richardson_summary(result),
        }
    written.append(write_json(config.out / f"sensitivity_{target}_{year}.json", manifest))
    return written


def cmd_regomax(config: RunConfig, money, operators=None) -> list[Path]:
    """Reduced matrices and friends edge lists for a country subset.

    ``operators`` are those of :func:`_operators`, when already built.
    """
    if not config.subset:
        raise ValueError("regomax needs --subset with at least one country code")
    year = money.year
    written = []
    for direction, G in zip(DIRECTIONS, operators or _operators(config, money)):
        subset, labels = subset_from_countries(G, config.subset)
        reduced = reduced_google_matrix(G, subset)
        net = friends_network(reduced, config.k, config.friends_by)
        written.append(write_reduced_matrix(reduced, labels, config.out / f"gr_{direction}_{year}.csv"))
        written.append(write_edge_list(net, labels, config.out / f"friends_{direction}_{year}.csv"))
    return written


def cmd_dump(config: RunConfig, money) -> list[Path]:
    """Raw stochastic-matrix triplets plus sidecars, both directions."""
    written = []
    for direction, G in zip(DIRECTIONS, _operators(config, money)):
        path, sidecar = write_matrix_dump(G, config.out / f"gmatrix_{direction}_{config.year}.csv")
        written += [path, sidecar]
    return written


def _pipeline_products(money) -> list[int]:
    """Default sensitivity targets: the usual fuel/machinery slices when
    they carry volume, otherwise the largest slice present."""
    volumes = money.product_volumes()
    chosen = [p for p in PIPELINE_PRODUCTS if p < money.n_products and volumes[p] > 0.0]
    return chosen or [int(np.argmax(volumes))]


def cmd_pipeline(config: RunConfig, money) -> list[Path]:
    """Everything for one year: ranks, balance, sensitivities, REGOMAX.

    Ranks, balance, the sensitivities and the default REGOMAX subset share
    one set of country vectors, and the vectors, the sensitivities and
    REGOMAX one pair of unperturbed operators.
    """
    operators = _operators(config, money)
    vectors = _country_vectors(config, money, operators)
    table = build_rank_table(*vectors)
    written = _write_rank(config, money.year, table)
    written += _write_balance(config, money.year, *vectors)
    products = _pipeline_products(money) if config.sens_product is None else [config.sens_product]
    for product in products:
        written += cmd_sensitivity(replace(config, sens_product=product), money, operators, vectors)
    subset = config.subset or tuple(table.top("K", min(PIPELINE_SUBSET_SIZE, len(table.codes) - 1)))
    written += cmd_regomax(replace(config, subset=subset), money, operators)
    return written


_COMMANDS = {
    "rank": cmd_rank,
    "balance": cmd_balance,
    "sensitivity": cmd_sensitivity,
    "regomax": cmd_regomax,
    "dump": cmd_dump,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        required=True,
        help=f"trade records file (relative paths also tried under ${DATA_DIR_ENV})",
    )
    common.add_argument("--year", type=int, required=True, help="calendar year to analyze")
    common.add_argument(
        "--aggregate",
        default=None,
        help=f"member_code,bloc_code file, or '{EU27_ALIAS}' for the packaged EU list",
    )
    common.add_argument("--alpha", type=float, default=0.5, help="damping factor (default 0.5)")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="bound on each solve's L1 residual")
    common.add_argument(
        "--personalization",
        choices=PERSONALIZATION_MODES,
        default="uniform-by-product",
        help="teleport vector variant",
    )
    common.add_argument("--out", default=".", help="output directory (created if missing)")
    common.add_argument("--top", type=int, default=20, help="rows in the top-k rank table")
    common.add_argument(
        "--index-cutoff",
        type=int,
        default=61,
        help="rank-plane display filter: keep entities with both indexes below this",
    )
    common.add_argument("--svg", action="store_true", help="also render rank-plane SVG scatters")
    common.add_argument("--sens-product", type=int, default=None, help="SITC slice to perturb")
    common.add_argument(
        "--sens-country",
        default=None,
        help="narrow the perturbation to this country's flows of the slice",
    )
    common.add_argument(
        "--step", type=float, default=DEFAULT_STEP, help="central-difference step h"
    )
    common.add_argument(
        "--sens-side",
        choices=PERTURB_SIDES,
        default="export",
        help="which flows a country-targeted perturbation scales",
    )
    common.add_argument(
        "--subset", default=None, help="comma-separated country codes for REGOMAX"
    )
    common.add_argument("--k", type=int, default=4, help="friends per node in the edge lists")
    common.add_argument(
        "--friends-by",
        choices=FRIEND_MODES,
        default="column",
        help="read outgoing links from matrix columns (default) or rows",
    )

    parser = argparse.ArgumentParser(
        prog="wtnrank",
        description="Google-matrix analysis of a multiproduct trade network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rank", parents=[common], help="rank table, top-k table, rank planes")
    sub.add_parser("balance", parents=[common], help="per-country trade balance, both sources")
    sub.add_parser("sensitivity", parents=[common], help="dB/ddelta for one perturbation target")
    sub.add_parser("regomax", parents=[common], help="reduced Google matrix and friends network")
    sub.add_parser("dump", parents=[common], help="stochastic-matrix triplets for cross-checks")
    sub.add_parser("pipeline", parents=[common], help="all artifacts for one year")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    staging = None
    try:
        config = config_from_args(args)
        config.out.mkdir(parents=True, exist_ok=True)
        # write into a sibling directory and move files over only once the
        # command has succeeded, so a failed run leaves nothing in --out
        staging = Path(tempfile.mkdtemp(prefix=".wtnrank-", dir=config.out.parent))
        money = _load_money(config)
        staged = _COMMANDS[config.command](replace(config, out=staging), money)
        written = []
        for path in staged:
            final = config.out / path.name
            os.replace(path, final)
            written.append(final)
    except (WtnError, OSError, ValueError) as exc:
        print(f"wtnrank: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
