"""Property tests: the array-built operator and shares against dense oracles.

Random small tensors include dangling columns (a country that exports
nothing of a product) and empty products. The production path builds S, v
and the volume shares from the COO arrays; the oracles recompute them from
the dense tensor with no shared code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wtnrank import build_google, perturb_money, volume_probabilities
from wtnrank.testkit import dense_google_from_money, densify

from conftest import money_from_dense

#: Same bound as test_testkit's check of build_google against this oracle.
ORACLE_TOL = 1e-14

PERSONALIZATIONS = ("uniform-by-product", "volume-by-country")


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
    for direction in ("direct", "inverted"):
        for personalization in PERSONALIZATIONS:
            G = build_google(money, direction, alpha, personalization)
            oracle = dense_google_from_money(money_from_dense(dense), direction, alpha, personalization)
            assert np.max(np.abs(densify(G) - oracle)) < ORACLE_TOL
    p_hat, p_hat_star = volume_probabilities(money)
    imports, exports = dense_volume_shares(dense)
    assert np.max(np.abs(p_hat.values - imports)) < ORACLE_TOL
    assert np.max(np.abs(p_hat_star.values - exports)) < ORACLE_TOL


@settings(max_examples=60, deadline=None)
@given(dense=dense_tensors(), alpha=st.floats(0.05, 0.95))
def test_array_operator_matches_dense_oracle(dense, alpha):
    money = money_from_dense(dense)
    assert np.array_equal(money.to_dense(), dense)
    assert_matches_oracles(money, dense, alpha)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dense=dense_tensors())
def test_perturbed_operator_matches_dense_oracle(data, dense):
    (product, delta, country, side), scale = data.draw(perturbations(dense))
    perturbed = perturb_money(money_from_dense(dense), product, delta, country, side)
    expected = dense * scale
    assert np.array_equal(perturbed.to_dense(), expected)
    assert_matches_oracles(perturbed, expected, 0.5)
