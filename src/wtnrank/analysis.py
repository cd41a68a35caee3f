"""Trade balance and its sensitivity to product-price perturbations.

The balance of a country is B_c = (P*_c - P_c)/(P*_c + P_c), computed either
from PageRank/CheiRank (source "gma") or from import/export volume shares
(source "iea"). Sensitivities dB_c/d(delta) scale one product slice of the
money tensor by (1 + delta) - globally or for a single exporting country -
and differentiate the rebuilt pipeline by central finite differences. Every
perturbed evaluation reconstructs the stochastic matrix *and* the
personalization vector, since the perturbation shifts the product weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._text import fmt, write_lines
from .errors import ConvergenceError
from .gmatrix import GoogleMatrix, build_google
from .ingest import MoneyMatrix
from .ranks import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ProbabilityVector,
    SolverReport,
    aggregate_country,
    pagerank,
    volume_probabilities,
)

SOURCES = ("gma", "iea")

#: Which flows a country-targeted perturbation scales.
PERTURB_SIDES = ("export", "import")

DEFAULT_STEP = 0.01


@dataclass(frozen=True)
class BalanceVector:
    """Per-country balance in [-1, 1]; undefined entries (0/0) are NaN."""

    codes: tuple[str, ...]
    values: np.ndarray
    source: str

    def undefined(self) -> tuple[str, ...]:
        return tuple(code for code, v in zip(self.codes, self.values) if np.isnan(v))


@dataclass(frozen=True)
class SensitivityConfig:
    """Target and numerical parameters of one sensitivity run.

    ``product`` picks the SITC slice s; ``country`` narrows the perturbation
    to that country's flows of s (export side by default), None means the
    global product price. ``step`` is the central-difference h.
    """

    product: int
    country: str | None = None
    step: float = DEFAULT_STEP
    source: str = "gma"
    side: str = "export"
    alpha: float = 0.5
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    personalization: str = "uniform-by-product"

    def __post_init__(self):
        if not 0.0 < self.step < 1.0:
            raise ValueError(f"step must lie in (0, 1), got {self.step}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        if self.side not in PERTURB_SIDES:
            raise ValueError(f"side must be one of {PERTURB_SIDES}")


@dataclass(frozen=True)
class SensitivityVector:
    """dB_c/d(delta) per country plus the solver reports of the perturbed runs."""

    codes: tuple[str, ...]
    values: np.ndarray
    config: SensitivityConfig
    reports: tuple[SolverReport, ...] = field(default=())


def trade_balance(P: ProbabilityVector, Pstar: ProbabilityVector, source: str) -> BalanceVector:
    """Elementwise (P* - P)/(P* + P) over countries; 0/0 yields NaN and continues."""
    if P.level != "country" or Pstar.level != "country":
        raise ValueError("trade balance needs country-level vectors")
    if P.keys != Pstar.keys:
        raise ValueError("balance inputs must share the same countries")
    if source not in SOURCES:
        raise ValueError(f"source must be one of {SOURCES}")
    if np.any(P.values < 0) or np.any(Pstar.values < 0):
        raise ValueError("balance inputs must be non-negative")
    denom = Pstar.values + P.values
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(denom > 0.0, (Pstar.values - P.values) / denom, np.nan)
    return BalanceVector(tuple(P.keys), values, source)


def perturb_money(
    money: MoneyMatrix,
    product: int,
    delta: float,
    country: str | None = None,
    side: str = "export",
) -> MoneyMatrix:
    """Scale one product slice of the money tensor by (1 + delta).

    With ``country`` given, only that country's flows of the product are
    scaled: its export columns by default, its import rows with
    side="import". The flows keep their keys; only the values are multiplied.
    """
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if 1.0 + delta <= 0.0:
        raise ValueError(f"1 + delta must stay positive, got delta={delta}")
    if not 0 <= product < money.n_products:
        raise ValueError(f"product index {product} out of range")
    if side not in PERTURB_SIDES:
        raise ValueError(f"side must be one of {PERTURB_SIDES}")
    hit = money.product == product
    if country is not None:
        flows = money.exporter if side == "export" else money.importer
        hit &= flows == money.registry.index_of(country)
    return replace(money, value=np.where(hit, money.value * (1.0 + delta), money.value))


def gma_country_probabilities(
    money: MoneyMatrix,
    alpha: float = 0.5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    personalization: str = "uniform-by-product",
    operators: tuple[GoogleMatrix, GoogleMatrix] | None = None,
) -> tuple[ProbabilityVector, ProbabilityVector, tuple[SolverReport, SolverReport]]:
    """PageRank and CheiRank country probabilities for one money tensor.

    ``operators`` are the direct and inverted Google matrices of ``money``
    with ``alpha`` and ``personalization``, when the caller has built them.
    """
    direct, inverted = operators or (
        build_google(money, "direct", alpha, personalization),
        build_google(money, "inverted", alpha, personalization),
    )
    p_node, report_p = pagerank(direct, tol, max_iter)
    pstar_node, report_pstar = pagerank(inverted, tol, max_iter)
    for report in (report_p, report_pstar):
        if not report.converged:
            raise ConvergenceError(
                f"rank run stopped at {report.iterations} iterations, residual {report.residual:.3e}",
                report,
            )
    return aggregate_country(p_node), aggregate_country(pstar_node), (report_p, report_pstar)


def iea_country_probabilities(money: MoneyMatrix) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Import/export volume country probabilities for one money tensor."""
    p_hat, p_hat_star = volume_probabilities(money)
    return aggregate_country(p_hat), aggregate_country(p_hat_star)


def _balance_for(money: MoneyMatrix, config: SensitivityConfig) -> tuple[BalanceVector, tuple[SolverReport, ...]]:
    if config.source == "gma":
        p_c, pstar_c, reports = gma_country_probabilities(
            money, config.alpha, config.tol, config.max_iter, config.personalization
        )
        return trade_balance(p_c, pstar_c, "gma"), reports
    p_c, pstar_c = iea_country_probabilities(money)
    return trade_balance(p_c, pstar_c, "iea"), ()


def gma_balance(money: MoneyMatrix, **kwargs) -> BalanceVector:
    p_c, pstar_c, _ = gma_country_probabilities(money, **kwargs)
    return trade_balance(p_c, pstar_c, "gma")


def iea_balance(money: MoneyMatrix) -> BalanceVector:
    p_c, pstar_c = iea_country_probabilities(money)
    return trade_balance(p_c, pstar_c, "iea")


def _central_difference(money: MoneyMatrix, config: SensitivityConfig, h: float):
    up, up_reports = _balance_for(
        perturb_money(money, config.product, +h, config.country, config.side), config
    )
    down, down_reports = _balance_for(
        perturb_money(money, config.product, -h, config.country, config.side), config
    )
    return (up.values - down.values) / (2.0 * h), up_reports + down_reports


def balance_sensitivity(money: MoneyMatrix, config: SensitivityConfig) -> SensitivityVector:
    """Central-difference dB_c/d(delta) at the configured step.

    Each of the two perturbed evaluations runs the full pipeline: perturb,
    rebuild S and the personalization vector, re-rank, aggregate, balance
    (GMA source) or perturb and recompute volume shares (IEA source).
    """
    values, reports = _central_difference(money, config, config.step)
    codes = tuple(money.registry.codes)
    return SensitivityVector(codes, values, config, tuple(reports))


def sensitivity_richardson(money: MoneyMatrix, config: SensitivityConfig, d_h: np.ndarray | None = None) -> dict:
    """Estimates at h, h/2 and h/4 plus the convergence ratio per country.

    For a second-order-accurate central difference the ratio
    (D_h - D_{h/2}) / (D_{h/2} - D_{h/4}) tends to 4; values inside [3, 5]
    confirm the step sits in the asymptotic range. ``d_h`` takes the values
    :func:`balance_sensitivity` already returned for ``config``, which saves
    its two perturbed evaluations; without it D_h is computed here.
    """
    h = config.step
    if d_h is None:
        d_h, _ = _central_difference(money, config, h)
    d_h2, _ = _central_difference(money, config, h / 2.0)
    d_h4, _ = _central_difference(money, config, h / 4.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = (d_h - d_h2) / (d_h2 - d_h4)
    return {"h": h, "d_h": d_h, "d_h2": d_h2, "d_h4": d_h4, "ratio": ratio}


def write_balance(path, gma: BalanceVector, iea: BalanceVector) -> Path:
    """Write ``country,B_gma,B_iea`` keyed by canonical code.

    Undefined balances (a country with zero probability on both sides)
    appear as ``nan`` so downstream map tooling can drop them.
    """
    if gma.source != "gma" or iea.source != "iea":
        raise ValueError("expected one gma and one iea balance vector")
    if gma.codes != iea.codes:
        raise ValueError("balance vectors must cover the same countries")
    lines = ["country,B_gma,B_iea"]
    for i, code in enumerate(gma.codes):
        lines.append(f"{code},{fmt(gma.values[i])},{fmt(iea.values[i])}")
    return write_lines(path, lines)


def write_sensitivity(path, sensitivity: SensitivityVector) -> Path:
    """Write ``country,dB_ddelta`` for one sensitivity run."""
    lines = ["country,dB_ddelta"]
    for code, value in zip(sensitivity.codes, sensitivity.values):
        lines.append(f"{code},{fmt(value)}")
    return write_lines(path, lines)
