"""Network-data substrate: exact graphs, synthetic substitutes, probabilities.

Everything here runs on the driver in NumPy/pandas. Edge lists are pandas
DataFrames with columns ``src`` (int), ``dst`` (int); influence graphs add
``p`` (double in (0, 1]) and become a :class:`CSRGraph` via ``from_pandas``.
Vertices are 0..n-1.
"""
from repro.graphs.csr import CSRGraph, from_pandas
from repro.graphs.networks import NETWORKS, build_network_pandas
from repro.graphs.probability import assign_probabilities

__all__ = [
    "CSRGraph",
    "from_pandas",
    "NETWORKS",
    "build_network_pandas",
    "assign_probabilities",
]
