"""The package API the benchmark's input generator calls, run on a tiny tensor.

``perfbench/inputs.py`` renders every benchmark input with the package's
own ``synthetic_money``, ``MoneyMatrix.to_dense``, ``MoneyMatrix.from_dense``
and ``CountryRegistry(names=...)``. It is loaded here by path, unedited, so
that a change to that API fails a test on every supported Python, not only
in the benchmark's own runs.
"""

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from wtnrank import build_google, pagerank, read_money_matrix

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


@pytest.fixture
def inputs(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_inputs_render_and_reference_a_tiny_tensor(inputs):
    codes, tensor = inputs.synthetic_tensor(seed=1, n_countries=4, density=0.5)
    assert codes == ("C000", "C001", "C002", "C003")
    assert tensor.shape == (inputs.N_PRODUCTS, 4, 4) and np.count_nonzero(tensor) > 0
    assert not tensor[:, np.arange(4), np.arange(4)].any()

    rows = inputs.trade_rows(codes, tensor, inputs.YEAR)
    assert len(rows) == np.count_nonzero(tensor)
    money = read_money_matrix(io.StringIO("\n".join(["year,exporter,importer,sitc,value_usd"] + rows)), inputs.YEAR)
    assert money.registry.codes == codes and money.to_dense().tobytes() == tensor.tobytes()

    reference = inputs.reference_pageranks(codes, tensor)   # the dense solve: 40 nodes
    assert sorted(reference) == ["direct", "inverted"]
    for direction, vector in reference.items():
        P, _ = pagerank(build_google(money, direction, inputs.ALPHA))
        assert np.abs(vector - P.values).sum() < 1e-12, direction
