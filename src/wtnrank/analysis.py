"""Trade balance and its sensitivity to product-price perturbations.

The balance of a country is B_c = (P*_c - P_c)/(P*_c + P_c), computed either
from PageRank/CheiRank (source "gma") or from import/export volume shares
(source "iea"). A perturbation scales one product slice s of the money tensor
by (1 + delta), globally or only one country's export or import flows of it,
and dB_c/d(delta) is the central difference of B at a step h.

No target rebuilds the network. With a = V_hit / V the share of the total
volume that the perturbation scales, the IEA vectors, and the GMA vectors of
a direction whose links do not move, follow

    P(delta) = (P0 + delta a Q) / (1 + delta a)

- IEA: Q and Q* are the import and export shares of the scaled flows.
- GMA: the teleport vector moves along v(delta) = (v0 + delta a w) / (1 + delta a),
  w the teleport vector of the scaled flows alone. Column normalisation
  cancels a scale of whole columns, so S~ stays as it is in both directions
  under a global target, and in the direct (inverted) one under an export
  (import) target. PageRank is linear in v, so Q is the PageRank of G with
  w for v: one solve of block s.
- GMA, the other direction of a country target c: the scaled flows are row c
  of block s. Each delta makes G with that row scaled by (1 + delta), column j
  renormalised by its new sum 1 + delta S[c, j] and v(delta) for v.

Each varied G is a GoogleMatrix: block s alone is solved again, as PageRank's
blocks are, and its own ``apply`` measures the residual.

:func:`balance_sensitivity` evaluates dB_c/d(delta) at h and
:func:`sensitivity_richardson` at h, h/2 and h/4, sharing the work that
does not depend on the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._text import write_columns
from .errors import ConvergenceError
from .gmatrix import DIRECTIONS, GoogleMatrix, _solve_links, _teleport, build_google
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
    global GMA target; a GMA country target keeps the response of the
    direction whose links stay, then the other's re-solve at +h and at -h.
    The IEA source, and a perturbation that scales no flow, solve nothing.
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


def _converged(solved: tuple) -> tuple:
    """A rank solve's (vector, report), or ConvergenceError when its residual is not below tol."""
    if not solved[1].converged:
        raise ConvergenceError(f"rank solve residual {solved[1].residual:.3e} is not below tol", solved[1])
    return solved


def _google_pair(money: MoneyMatrix, alpha: float, personalization: str, operators) -> tuple:
    """``operators``, or the direct and inverted Google matrices of ``money`` when there are none.

    Operators of another ``alpha`` or ``personalization`` raise ValueError: their solves would mix two models.
    """
    if not operators:
        return tuple(build_google(money, d, alpha, personalization) for d in DIRECTIONS)
    for G in operators:
        if (G.alpha, G.v.mode) != (alpha, personalization):
            raise ValueError(
                f"operators with alpha={G.alpha}, v.mode={G.v.mode!r} do not match the requested "
                f"alpha={alpha}, personalization={personalization!r}"
            )
    return operators


def gma_country_probabilities(
    money: MoneyMatrix,
    alpha: float = 0.5,
    tol: float = DEFAULT_TOL,
    personalization: str = "uniform-by-product",
    operators: tuple[GoogleMatrix, GoogleMatrix] | None = None,
) -> tuple[ProbabilityVector, ProbabilityVector, tuple[SolverReport, SolverReport]]:
    """PageRank and CheiRank country probabilities for one money tensor.

    ``operators`` are the direct and inverted Google matrices of ``money``
    with ``alpha`` and ``personalization``, when the caller has built them;
    operators built with another alpha or personalization raise ValueError.
    """
    operators = _google_pair(money, alpha, personalization, operators)
    (p, report_p), (pstar, report_pstar) = (_converged(pagerank(G, tol)) for G in operators)
    return aggregate_country(p), aggregate_country(pstar), (report_p, report_pstar)


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
    """Central differences of ``config``'s target at each of ``steps``, with the reports of their solves.

    The entries of the scaled flows, the unperturbed country vectors and the
    responses Q, Q* of the directions whose links stay (module docstring) are
    made once, and every entry reports their solves. A moving direction
    re-solves its block s at +h and -h for each entry. A perturbation that
    scales no flow gives exact zeros and solves nothing.
    """
    if not 0 <= config.product < money.n_products:
        raise ValueError(f"product index {config.product} out of range")
    n = money.n_countries
    hit = np.arange(*money.blocks[config.product : config.product + 2])   # the product's run
    if config.country is not None:
        row = money.registry.index_of(config.country)
        hit = hit[(money.nodes[1] if config.side == "export" else money.nodes[0])[hit] == config.product * n + row]
    if not len(hit):
        return [(np.zeros(n), ()) for _ in steps]
    scaled = money.value[hit]
    weight = scaled.sum() / money.value.sum()

    def linear(P: ProbabilityVector, Q: np.ndarray):
        return lambda delta: (replace(P, values=(P.values + delta * weight * Q) / (1.0 + delta * weight)), ())

    once = ()   # the reports of the solves made for all steps
    if config.source == "iea":
        base = base or iea_country_probabilities(money)
        evaluators = [
            linear(P, np.bincount(ids[hit] % n, weights=scaled / scaled.sum(), minlength=n))
            for P, ids in zip(base, money.nodes)
        ]
    else:
        alpha, tol, mode = config.alpha, config.tol, config.personalization
        operators = _google_pair(money, alpha, mode, operators)
        base = base or gma_country_probabilities(money, alpha, tol, mode, operators)[:2]
        # w: the teleport vector of the scaled flows alone, summed as their own tensor would sum them
        w = _teleport(tuple(ids[hit] for ids in money.nodes), scaled, n, money.n_products, mode)
        block = np.arange(config.product * n, (config.product + 1) * n)
        run = slice(*money.blocks[config.product : config.product + 2])   # the product's links
        # an exporter's flows are a row of the inverted links, an importer's one of the direct links
        moving = config.country and {"export": "inverted", "import": "direct"}[config.side]

        def moved(G: GoogleMatrix):
            def rank(delta: float):
                # row c scales by 1 + delta, so column j's sum moves to 1 + delta S[c, j]
                value = G.S.value.copy()
                value[hit] *= 1.0 + delta
                value[run] /= (1.0 + delta * np.bincount(G.S.col[hit], G.S.value[hit], G.size))[G.S.col[run]]
                outside = 1.0 / (1.0 + delta * weight)   # v(delta) / v outside block s
                v = replace(G.v, values=(G.v.values + delta * weight * w) * outside)
                P, report = _block_variant(G, replace(G, S=replace(G.S, value=value), v=v), block, outside, tol)
                return aggregate_country(P), (report,)
            return rank

        evaluators = []
        for direction, G, P in zip(DIRECTIONS, operators, base):
            if direction == moving:
                evaluators.append(moved(G))
            else:
                Q, report = _block_variant(G, replace(G, v=replace(G.v, values=w)), block, 0.0, tol)
                evaluators.append(linear(P, aggregate_country(Q).values))
                once += (report,)

    def balance(delta: float):
        (p, p_reports), (pstar, pstar_reports) = (evaluate(delta) for evaluate in evaluators)
        return trade_balance(p, pstar, config.source).values, p_reports + pstar_reports

    differences = []
    for h in steps:
        (up, up_reports), (down, down_reports) = balance(h), balance(-h)
        differences.append(((up - down) / (2.0 * h), once + up_reports + down_reports))
    return differences


def _block_variant(G: GoogleMatrix, varied: GoogleMatrix, block, outside: float, tol: float) -> tuple:
    """(P, report) of ``varied``: G with other links in block ``block`` of S, or another v, or both.

    Outside the block varied has G's links and ``outside`` times G's v, so its solves
    there are G's z_v times ``outside`` and z_1; the block is solved again against both.
    """
    z_v, z_1 = G._link_solves.T
    z, z1 = outside * z_v, z_1.copy()
    rhs = np.column_stack([(1.0 - G.alpha) * varied.v.values[block], np.full(len(block), G.alpha / G.size)])
    z[block], z1[block] = _solve_links(varied.S, G.alpha, rhs, block).T
    return _converged(_stationary(varied, z, z1, tol))


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
    with ``config``'s alpha and personalization (others raise ValueError),
    and ``base`` the unperturbed country vectors (P, P*) of ``config``'s
    source, when the caller has them.
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
    return write_columns(path, ("country", "B_gma", "B_iea"), (gma.codes, gma.values, iea.values))


def write_sensitivity(path, sensitivity: SensitivityVector) -> Path:
    """Write ``country,dB_ddelta`` for one sensitivity run."""
    return write_columns(path, ("country", "dB_ddelta"), (sensitivity.codes, sensitivity.values))
