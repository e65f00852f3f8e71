"""Exact DNA sequence search: FM-index baseline and a learned-index engine.

The learned engine pairs a sorted k-mer/location array derived from the
BW-matrix with one layer of linear models, each bounding its error over a
contiguous run of the array, so a query is resolved in ceil(|Q|/K) chunk
steps instead of |Q| single-character steps.
"""

from dnasearch.seqcore import (
    Reference,
    Query,
    encode_base,
    decode_base,
    load_fasta,
    parse_queries,
    generate_queries,
    generate_query_matrix,
)
from dnasearch.fmindex import FmIndex, SaInterval, build_fm_index, backward_search
from dnasearch.ipbwt import IpBwt, build_ipbwt
from dnasearch.rmi import Rmi, build_rmi
from dnasearch.search import (
    SearchEngine,
    build_engine,
    exact_search,
    batch_search,
    batch_search_matrix,
)

__all__ = [
    "Reference",
    "Query",
    "encode_base",
    "decode_base",
    "load_fasta",
    "parse_queries",
    "generate_queries",
    "generate_query_matrix",
    "FmIndex",
    "SaInterval",
    "build_fm_index",
    "backward_search",
    "IpBwt",
    "build_ipbwt",
    "Rmi",
    "build_rmi",
    "SearchEngine",
    "build_engine",
    "exact_search",
    "batch_search",
    "batch_search_matrix",
]

__version__ = "0.1.0"
