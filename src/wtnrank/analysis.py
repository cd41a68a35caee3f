"""Trade balance and its sensitivity to product-price perturbations.

The balance of a country is B_c = (P*_c - P_c)/(P*_c + P_c), computed either
from PageRank/CheiRank (source "gma") or from import/export volume shares
(source "iea"). A perturbation scales one product slice of the money tensor
by (1 + delta), globally or only one country's export or import flows of
it, and dB_c/d(delta) is the central difference of B at a step h.

Most targets need no rebuilt pipeline per step. With a = V_hit / V the
share of the total volume that the perturbation scales, both country
vectors of the source move along

    P(delta) = (P0 + delta a Q) / (1 + delta a)

- IEA source, any target: Q and Q* are the import and export shares of the
  scaled flows.
- GMA source, global target: column normalisation cancels the scale, so
  S~ (dangling repair included) does not move; only the teleport vector
  does, v(delta) = (v0 + delta a u_s) / (1 + delta a), where u_s is block s
  of v0 rescaled to sum 1 (under either personalization mode). PageRank is
  linear in v, so Q is the PageRank of the unperturbed S~ with teleport
  u_s, and Q* the CheiRank, both from the block solves behind P0 and P0*.

A country target of the GMA source also moves S~ (its flows are a row of
one of the two directions), so each of its evaluations perturbs the tensor
and rebuilds S, v and both ranks.

Either way each target gives the country vectors at one delta, and one
central difference turns them into dB_c/d(delta).
:func:`balance_sensitivity` evaluates it at h and
:func:`sensitivity_richardson` at h, h/2 and h/4, sharing the work that
does not depend on the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._text import fmt, write_lines
from .errors import ConvergenceError
from .gmatrix import DIRECTIONS, GoogleMatrix, build_google
from .ingest import MoneyMatrix
from .ranks import (
    DEFAULT_TOL,
    ProbabilityVector,
    SolverReport,
    _stationary,
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
    """dB_c/d(delta) per country plus the reports of the solves behind it.

    ``reports`` hold the two teleport responses (direct, inverted) of a
    global GMA target, or the four solves of a GMA country target (direct
    and inverted at +h, then at -h). The IEA source, and a perturbation
    that scales no flow, solve nothing.
    """

    codes: tuple[str, ...]
    values: np.ndarray
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
    hit = _scaled_flows(money, product, country, side)
    return replace(money, value=np.where(hit, money.value * (1.0 + delta), money.value))


def _scaled_flows(money: MoneyMatrix, product: int, country: str | None, side: str) -> np.ndarray:
    """Mask of the entries a perturbation of ``product`` scales: all, or one country's."""
    if not 0 <= product < money.n_products:
        raise ValueError(f"product index {product} out of range")
    if side not in PERTURB_SIDES:
        raise ValueError(f"side must be one of {PERTURB_SIDES}")
    hit = money.product == product
    if country is not None:
        flows = money.exporter if side == "export" else money.importer
        hit &= flows == money.registry.index_of(country)
    return hit


def _converged(solved: tuple) -> tuple:
    """A rank solve's (vector, report), or ConvergenceError when its residual is not below tol."""
    if not solved[1].converged:
        raise ConvergenceError(f"rank solve residual {solved[1].residual:.3e} is not below tol", solved[1])
    return solved


def gma_country_probabilities(
    money: MoneyMatrix,
    alpha: float = 0.5,
    tol: float = DEFAULT_TOL,
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
    p_node, report_p = _converged(pagerank(direct, tol))
    pstar_node, report_pstar = _converged(pagerank(inverted, tol))
    return aggregate_country(p_node), aggregate_country(pstar_node), (report_p, report_pstar)


def iea_country_probabilities(money: MoneyMatrix) -> tuple[ProbabilityVector, ProbabilityVector]:
    """Import/export volume country probabilities for one money tensor."""
    p_hat, p_hat_star = volume_probabilities(money)
    return aggregate_country(p_hat), aggregate_country(p_hat_star)


def gma_balance(money: MoneyMatrix, **kwargs) -> BalanceVector:
    p_c, pstar_c, _ = gma_country_probabilities(money, **kwargs)
    return trade_balance(p_c, pstar_c, "gma")


def iea_balance(money: MoneyMatrix) -> BalanceVector:
    p_c, pstar_c = iea_country_probabilities(money)
    return trade_balance(p_c, pstar_c, "iea")


def _differences(money: MoneyMatrix, config: SensitivityConfig, steps, operators=None, base=None) -> list:
    """Central differences of ``config``'s target at each of ``steps``.

    Each entry is dB_c/d(delta) at one step h and the reports of the solves
    it rests on. What does not depend on h is done once: the mask of the
    scaled flows and, for a linear response (see the module docstring), the
    unperturbed country vectors and their responses Q, Q*, whose solves
    every entry reports. A GMA country target instead perturbs the tensor,
    rebuilds S and v and re-ranks at +h and -h for each entry. A
    perturbation that scales no flow gives exact zeros and solves nothing.
    """
    hit = _scaled_flows(money, config.product, config.country, config.side)
    if not hit.any():
        return [(np.zeros(money.n_countries), ()) for _ in steps]
    once = ()   # the reports of the solves made for all steps
    if config.source == "gma" and config.country is not None:

        def vectors(delta: float):
            perturbed = perturb_money(money, config.product, delta, config.country, config.side)
            return gma_country_probabilities(perturbed, config.alpha, config.tol, config.personalization)
    else:
        scaled = money.value[hit]
        weight = scaled.sum() / money.value.sum()
        if config.source == "gma":
            base, response, once = _teleport_response(money, config, operators, base)
        else:
            base = base or iea_country_probabilities(money)
            response = [
                np.bincount(flows[hit], weights=scaled / scaled.sum(), minlength=money.n_countries)
                for flows in (money.importer, money.exporter)
            ]

        def vectors(delta: float):
            p, pstar = (
                replace(P, values=(P.values + delta * weight * Q) / (1.0 + delta * weight))
                for P, Q in zip(base, response)
            )
            return p, pstar, ()

    def balance(delta: float):
        p, pstar, reports = vectors(delta)
        return trade_balance(p, pstar, config.source).values, reports

    differences = []
    for h in steps:
        (up, up_reports), (down, down_reports) = balance(h), balance(-h)
        differences.append(((up - down) / (2.0 * h), once + up_reports + down_reports))
    return differences


def _teleport_response(money: MoneyMatrix, config: SensitivityConfig, operators, base):
    """(P0, P0*), the country-level (Q, Q*) of teleport u_s, and the reports of Q and Q*."""
    operators = operators or tuple(
        build_google(money, direction, config.alpha, config.personalization) for direction in DIRECTIONS
    )
    if base is None:
        *base, _ = gma_country_probabilities(
            money, config.alpha, config.tol, config.personalization, operators
        )
    solved = [_converged(_stationary(G, config.tol, config.product)) for G in operators]
    return base, [aggregate_country(Q).values for Q, _ in solved], tuple(report for _, report in solved)


def balance_sensitivity(money: MoneyMatrix, config: SensitivityConfig) -> SensitivityVector:
    """Central-difference dB_c/d(delta) at the configured step."""
    [(values, reports)] = _differences(money, config, (config.step,))
    return SensitivityVector(tuple(money.registry.codes), values, reports)


def sensitivity_richardson(
    money: MoneyMatrix,
    config: SensitivityConfig,
    operators: tuple[GoogleMatrix, GoogleMatrix] | None = None,
    base: tuple[ProbabilityVector, ProbabilityVector] | None = None,
) -> dict:
    """Estimates at h, h/2 and h/4 plus the convergence ratio per country.

    For a second-order-accurate central difference the ratio
    (D_h - D_{h/2}) / (D_{h/2} - D_{h/4}) tends to 4; values inside [3, 5]
    confirm the step sits in the asymptotic range. ``d_h`` and ``reports``
    are what :func:`balance_sensitivity` returns for ``config``.

    ``operators`` are the direct and inverted Google matrices of ``money``
    with ``config``'s alpha and personalization, and ``base`` the unperturbed
    country vectors (P, P*) of ``config``'s source, when the caller has them.
    """
    h = config.step
    steps = (h, h / 2.0, h / 4.0)
    (d_h, reports), (d_h2, _), (d_h4, _) = _differences(money, config, steps, operators, base)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = (d_h - d_h2) / (d_h2 - d_h4)
    return {"h": h, "d_h": d_h, "d_h2": d_h2, "d_h4": d_h4, "ratio": ratio, "reports": reports}


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
