"""Spectral symmetry toolkit for cubical hypermatrices and uniform hypergraphs.

The package answers, exactly where feasible and with certificates otherwise,
when the eigenvalue multiset of a tensor is closed under negation:

- parity certificates (odd colorings over Z_r, odd transversals over GF(2))
  and the conversions between them,
- spectral radii of nonnegative weakly irreducible tensors by shifted power
  iteration, with diagonal unit maps that negate eigenpairs,
- exact characteristic polynomials of small tensors via resultants, with
  component-product and multiplicity bookkeeping.
"""
from __future__ import annotations

from .charpoly import (MultiplicityReport, ProductReport, UniPoly,
                       charpoly_2matrix, charpoly_tensor,
                       is_spectrum_symmetric_poly,
                       isolated_vertex_multiplicity_check, poly_gcd,
                       root_multiplicity, squarefree_decomposition,
                       verify_component_product)
from .fixtures import FIXTURE_NAMES, fixture
from .floatpath import apply, eigen_residual, polynomial_form
from .hypergraph import (Hypergraph, SearchBudgetExceeded, WeakColoring,
                         adjacency_tensor, chromatic_number, gen_prop4_graph,
                         gen_prop5_graph, is_connected)
from .parity import (ColoringInfeasible, OddColoring,
                     OddColoringUndefinedError, OddTransversal,
                     TransversalInfeasible, coloring_to_transversal,
                     odd_coloring, odd_transversal, support_patterns,
                     transversal_to_coloring, verify_certificate)
from .spectra import (ComponentWitness, ConvergenceError, EigenPair,
                      NegationMap,
                      SymmetryReport, check_symmetric_spectrum_certified,
                      extract_transversal_from_eigenvector,
                      negation_map_from_coloring,
                      negation_map_from_transversal, spectral_radius_power)
from .tensor import (ComponentDecomposition, CubicalTensor, ExactComplex,
                     components, diagonal_similarity, digraph,
                     is_bipartite_2matrix, is_symmetric, is_weakly_irreducible)

__version__ = "0.1.0"

__all__ = [
    "CubicalTensor", "ExactComplex", "ComponentDecomposition",
    "is_symmetric", "apply", "eigen_residual", "polynomial_form", "digraph",
    "is_weakly_irreducible", "components", "diagonal_similarity",
    "is_bipartite_2matrix",
    "Hypergraph", "adjacency_tensor", "is_connected", "gen_prop4_graph",
    "gen_prop5_graph", "WeakColoring", "SearchBudgetExceeded",
    "chromatic_number",
    "OddColoring", "OddTransversal", "ColoringInfeasible",
    "TransversalInfeasible", "OddColoringUndefinedError", "odd_coloring",
    "odd_transversal", "transversal_to_coloring", "coloring_to_transversal",
    "verify_certificate", "support_patterns",
    "EigenPair", "NegationMap", "ConvergenceError", "SymmetryReport",
    "ComponentWitness",
    "spectral_radius_power", "negation_map_from_coloring",
    "negation_map_from_transversal", "extract_transversal_from_eigenvector",
    "check_symmetric_spectrum_certified",
    "UniPoly", "charpoly_2matrix", "charpoly_tensor",
    "is_spectrum_symmetric_poly", "ProductReport", "verify_component_product",
    "MultiplicityReport", "isolated_vertex_multiplicity_check",
    "poly_gcd", "squarefree_decomposition", "root_multiplicity",
    "FIXTURE_NAMES", "fixture",
]
