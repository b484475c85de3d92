"""SAGBI bases, defining ideals and coherent matchings of algebras of minors."""

from .engine import GeneratorFamily, SagbiResult, SubductionTrace, sagbi_by_degree, sagbi_general, subduct, tete_a_tetes
from .groebner import Binomial, buchberger, normal_form, toric_kernel
from .hilbert import HilbertData, expand_series, h_vector, krull_dim_monomial, semigroup_hilbert, subalgebra_hilbert
from .matchings import (Matching, VertexCatalog, enumerate_vertices_exhaustive,
                        enumerate_vertices_random, extend_matching, full_support,
                        is_coherent, make_matching, matching_from_weight,
                        restrict_matching, sagbi_defect)
from .minors import (CanonicalGroup, MatrixRing, Minor, bracket, determinant, diagonal_order,
                     full_group, minors, pattern_stabilizer, submax_lex_order)
from .orders import MonomialOrder, TieError, degrevlex_order, leading_term, lex_order, make_monic, weight_order, weight_selects
from .relations import (RelationSet, Retract, minimize_relations,
                        sagbi_with_relations, verify_relations)
from .rings import Polynomial, RingContext
from .universal import CASES, CaseReport, VerificationError, run_case

__version__ = "0.1.0"
