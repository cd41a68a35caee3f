"""Shared fixtures plus the acceptance-criteria summary hook."""

import numpy as np
import pytest
from hypothesis import settings

from wtnrank import MoneyMatrix
from wtnrank.testkit import SyntheticSpec, synthetic_money, synthetic_registry

# Property tests draw the same examples on every run, with no time limit per
# example: a slow machine must not turn a passing test into a failing one.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def small_money():
    """The reference random fixture used across the oracle suites."""
    return synthetic_money(SyntheticSpec(seed=1, n_countries=5, n_products=2))


@pytest.fixture
def symmetric_money():
    """Two countries trading identical values both ways in every product."""
    registry = synthetic_registry(2)
    nodes = [0, 1, 2, 3], [1, 0, 3, 2]   # node c of product p is p * 2 + c
    value = [100.0, 100.0, 110.0, 110.0]
    return MoneyMatrix(registry, 2018, nodes, value, 2)


def money_from_dense(dense: np.ndarray, year: int = 2018) -> MoneyMatrix:
    """Dense (n_products, n_c, n_c) array -> MoneyMatrix with C-coded registry."""
    dense = np.asarray(dense, dtype=float)
    registry = synthetic_registry(dense.shape[1])
    return MoneyMatrix.from_dense(dense, registry, year)


def indexes(money: MoneyMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product, importer and exporter index of every entry, in entry order, from the node ids."""
    product, importer = np.divmod(money.nodes[0], money.n_countries)
    return product, importer, money.nodes[1] % money.n_countries


def flows(money: MoneyMatrix) -> list[tuple]:
    """(product, importer, exporter, value) of every entry, in entry order."""
    return list(zip(*(column.tolist() for column in (*indexes(money), money.value))))


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
