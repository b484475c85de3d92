"""SAGBI bases, defining ideals and coherent matchings of algebras of minors.

The public names are exported lazily (PEP 562): `from sagbikit import X`
imports only the module that defines X, on first access, so a process
loads the layers it uses and no others.  `minors` is the one name bound
at import, because importing the submodule of the same name would
otherwise set the package attribute to the module.
"""

from .minors import minors

_EXPORTS = {
    "engine": ("GeneratorFamily", "SagbiResult", "SubductionTrace", "sagbi_by_degree",
               "sagbi_general", "subduct", "tete_a_tetes"),
    "groebner": ("Binomial", "buchberger", "normal_form", "toric_kernel"),
    "hilbert": ("HilbertData", "expand_series", "h_vector", "krull_dim_monomial",
                "semigroup_hilbert", "subalgebra_hilbert"),
    "matchings": ("Matching", "VertexCatalog", "enumerate_vertices_exhaustive",
                  "enumerate_vertices_random", "extend_matching", "full_support",
                  "is_coherent", "make_matching", "matching_from_weight",
                  "restrict_matching", "sagbi_defect"),
    "minors": ("CanonicalGroup", "MatrixRing", "Minor", "bracket", "determinant",
               "diagonal_order", "full_group", "minors", "pattern_stabilizer",
               "submax_lex_order"),
    "orders": ("MonomialOrder", "TieError", "degrevlex_order", "leading_term", "lex_order",
               "make_monic", "weight_order", "weight_selects"),
    "relations": ("RelationSet", "Retract", "minimize_relations", "sagbi_with_relations",
                  "verify_relations"),
    "rings": ("Polynomial", "RingContext"),
    "cases": ("CASES", "VerificationError", "run_case"),
    "universal": ("CaseReport",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)
