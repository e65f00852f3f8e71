"""Exact DNA sequence search: FM-index baseline and a learned-index engine.

The learned engine pairs a sorted k-mer/location array derived from the
BW-matrix with one layer of linear models, each bounding its error over a
contiguous run of the array, so a query is resolved in ceil(|Q|/K) chunk
steps instead of |Q| single-character steps.
"""

from dnasearch.search import batch_search, batch_search_matrix, build_engine
from dnasearch.seqcore import load_fasta, parse_queries

__all__ = ["batch_search", "batch_search_matrix", "build_engine", "load_fasta", "parse_queries"]

__version__ = "0.1.0"
