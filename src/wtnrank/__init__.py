"""Google-matrix analysis of the multiproduct world trade network.

From delimited trade records to PageRank/CheiRank country rankings, trade
balances, product-price sensitivities and reduced trade networks over a
chosen node subset. See the README for the file formats and the CLI.
"""

import os

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it. At a few
# hundred rows a worker thread only spins, and a threaded LU rounds otherwise
# than a serial one; so numpy loads on one thread, then the variable is restored.
_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy
if _threads is None:
    del os.environ["OPENBLAS_NUM_THREADS"]
else:
    os.environ["OPENBLAS_NUM_THREADS"] = _threads

from .analysis import (
    BalanceVector,
    SensitivityConfig,
    SensitivityVector,
    balance_sensitivity,
    gma_balance,
    gma_country_probabilities,
    iea_balance,
    iea_country_probabilities,
    sensitivity_richardson,
    trade_balance,
    write_balance,
    write_sensitivity,
)
from .gmatrix import (
    GoogleMatrix,
    PersonalizationVector,
    StochasticMatrix,
    build_google,
    build_personalization,
    build_stochastic,
    write_matrix_dump,
)
from .ingest import (
    CountryRegistry,
    MoneyMatrix,
    load_money_matrix,
    read_aggregation_file,
    read_money_matrix,
    sitc_to_product,
)
from .ranks import (
    ProbabilityVector,
    RankTable,
    SolverReport,
    aggregate_country,
    aggregate_product,
    build_rank_table,
    order_indexes,
    pagerank,
    rank_plane_points,
    volume_probabilities,
    write_rank_table,
    write_top_table,
)
from .regomax import (
    FriendsNetwork,
    NodeSubset,
    ReducedGoogleMatrix,
    friends_network,
    reduced_google_matrix,
    subset_from_countries,
    write_edge_list,
    write_reduced_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceVector",
    "CountryRegistry",
    "FriendsNetwork",
    "GoogleMatrix",
    "MoneyMatrix",
    "NodeSubset",
    "PersonalizationVector",
    "ProbabilityVector",
    "RankTable",
    "ReducedGoogleMatrix",
    "SensitivityConfig",
    "SensitivityVector",
    "SolverReport",
    "StochasticMatrix",
    "aggregate_country",
    "aggregate_product",
    "balance_sensitivity",
    "build_google",
    "build_personalization",
    "build_rank_table",
    "build_stochastic",
    "friends_network",
    "gma_balance",
    "gma_country_probabilities",
    "iea_balance",
    "iea_country_probabilities",
    "load_money_matrix",
    "order_indexes",
    "pagerank",
    "rank_plane_points",
    "read_aggregation_file",
    "read_money_matrix",
    "reduced_google_matrix",
    "sensitivity_richardson",
    "sitc_to_product",
    "subset_from_countries",
    "trade_balance",
    "volume_probabilities",
    "write_balance",
    "write_edge_list",
    "write_matrix_dump",
    "write_rank_table",
    "write_reduced_matrix",
    "write_sensitivity",
    "write_top_table",
]
