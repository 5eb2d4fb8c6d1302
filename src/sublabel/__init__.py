"""Subtractive magic/antimagic total labelings of directed graphs.

Build the supported graph families, attach the known labelings, classify
arbitrary total labelings, and exhaustively search small instances for
labelings in a target weight class.
"""

from .digraph import Digraph, FamilyTag, ParameterError, build_family
from .labeling import (BijectionError, Classification, MuBound, TotalLabeling,
                       Verdict, WeightProfile, arc_weight, classify, dual,
                       longest_circuit, mu_bounds, validate_labeling,
                       verdict_of, vertex_weight, weight_profile)
from .constructions import (CONSTRUCTION_KINDS, GracefulInputError, construct,
                            graceful_to_strong_saml)
from .search import (DEFAULT_CAP, SearchCapError, SearchQuery, SearchReport,
                     Target, search)
from .document import DocumentError, LabelingDocument, from_dict, from_json, to_dot

__version__ = "0.1.0"

__all__ = [
    "Digraph", "FamilyTag", "ParameterError", "build_family",
    "BijectionError", "Classification", "MuBound", "TotalLabeling", "Verdict",
    "WeightProfile", "arc_weight", "classify", "dual", "longest_circuit",
    "mu_bounds", "validate_labeling", "verdict_of", "vertex_weight",
    "weight_profile",
    "CONSTRUCTION_KINDS", "GracefulInputError", "construct",
    "graceful_to_strong_saml",
    "DEFAULT_CAP", "SearchCapError", "SearchQuery", "SearchReport", "Target",
    "search",
    "DocumentError", "LabelingDocument", "from_dict", "from_json", "to_dot",
    "__version__",
]
