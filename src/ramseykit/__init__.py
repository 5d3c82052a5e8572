"""Desk-scale toolkit for graph Ramsey questions: arrowing decisions,
Ramsey-minimal enumeration, subgraph density parameters, the
finite/infinite pair classification, and random-graph threshold
experiments."""

__version__ = "0.1.0"

from .arrowing import (
    ArrowVerdict,
    EdgeColoring,
    MinimalityReport,
    arrows,
    contains_copy,
    find_good_coloring,
    is_ramsey_minimal,
    naive_arrows,
    ramsey_number_complete,
)
from .canon import CanonicalForm, are_isomorphic, canonical_form, canonical_representative, certificate
from .classify import Classification, StarForestShape, classify, matching_extension_check, shape_of
from .density import DensityReport, density_report, m2, m2_pair, rho, threshold_p
from .enumeration import MinimalCatalog, SearchBounds, catalog_density_audit, enumerate_graphs, enumerate_ramsey_minimal
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphs import Graph, build, build_from_text, parse_spec
from .randomgraphs import ExperimentConfig, run_experiment, results_to_csv, sample_gnp

__all__ = [name for name in dir() if not name.startswith("_")]
