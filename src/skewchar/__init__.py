"""Exact computation of skew symplectic and orthogonal characters by five
independent routes: tableau enumeration, nonintersecting lattice paths,
dual Jacobi-Trudi, Jacobi-Trudi and Giambelli block determinants.

Both Jacobi-Trudi determinants read one entry rule each from symfunc, with
one (k, t) per family (sp (2, -1), so (1, 1), o (0, 1); the general linear
family has t = 0 on the plain alphabet):
dual-JT entry (i, j) is E(lambda'_i - i + 1, mu'_j - j + 1), and JT entry
(i, j) is H(j - mu_j, i - lambda_i) without its sign.
"""

from .core import (
    FrobeniusCoordinates,
    LaurentPoly,
    Partition,
    PolyMatrix,
    SkewShape,
)
from .formulas import (
    Method,
    character,
    dual_jacobi_trudi,
    giambelli,
    jacobi_trudi,
    lgv_character,
)
from .paths import (
    InvalidFamilyError,
    Layout,
    MalformedFamilyError,
    NoSiteError,
    Path,
    PathFamily,
    PathModel,
    StepKind,
    enumerate_lgv_families,
    enumerate_paths,
    find_trapped_positions,
    involution_step,
    lgv_signed_sum,
    model_and_endpoints,
    path_gf,
    path_gf_by_diag_count,
    paths_to_tableau,
    reflect_initial_segment,
    tableau_to_paths,
)
from .symfunc import (
    CharacterFamily,
    DegeneratePointError,
    build_E_matrix,
    build_H_matrix,
    complete_pm,
    elementary_pm,
    weyl_eval,
)
from .tableaux import (
    Entry,
    Tableau,
    character_by_tableaux,
    count_tableaux,
    enumerate_tableaux,
    is_valid_tableau,
    tableau_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterFamily",
    "DegeneratePointError",
    "Entry",
    "FrobeniusCoordinates",
    "InvalidFamilyError",
    "LaurentPoly",
    "Layout",
    "MalformedFamilyError",
    "Method",
    "NoSiteError",
    "Partition",
    "Path",
    "PathFamily",
    "PathModel",
    "PolyMatrix",
    "SkewShape",
    "StepKind",
    "Tableau",
    "build_E_matrix",
    "build_H_matrix",
    "character",
    "character_by_tableaux",
    "complete_pm",
    "count_tableaux",
    "dual_jacobi_trudi",
    "elementary_pm",
    "enumerate_lgv_families",
    "enumerate_paths",
    "enumerate_tableaux",
    "find_trapped_positions",
    "giambelli",
    "involution_step",
    "is_valid_tableau",
    "jacobi_trudi",
    "lgv_character",
    "lgv_signed_sum",
    "model_and_endpoints",
    "path_gf",
    "path_gf_by_diag_count",
    "paths_to_tableau",
    "reflect_initial_segment",
    "tableau_weight",
    "tableau_to_paths",
    "weyl_eval",
]
