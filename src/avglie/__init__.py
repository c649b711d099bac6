"""Exact-arithmetic toolkit for averaging Lie algebras.

Validators for the operator identities, the twisted cochain complex and
its cohomology, 2-term homotopy structures, non-abelian extensions with
the Wells obstruction and constructive automorphism lifting.  All scalars
live in Q or a prime field; nothing is approximate.
"""

from .cohomology import (
    Cochain,
    assemble_delta_matrix,
    cohomology_report,
    delta_alie,
    delta_lie,
    is_coboundary,
    is_cocycle,
    partial_leib,
)
from .errors import AvgLieError, ParseError, ValidationError, Verdict
from .extensions import (
    AutomorphismPair,
    ExtensionData,
    NonAbelianCocycle,
    WellsResult,
    abelian_wells,
    audit_round_trip,
    averaging_automorphisms,
    build_extension,
    check_cocycle,
    check_compatible_pair,
    check_extension,
    check_split_semidirect,
    cocycles_equivalent,
    default_section,
    exact_sequence_audit,
    extension_automorphisms,
    extensions_equivalent,
    extract_cocycle,
    lift_automorphism,
    project_automorphism,
    transform_cocycle,
    wells_class,
)
from .fields import GF, QQ, Field, PrimeField, Rationals, field_from_string
from .homotopy import (
    CrossedModule,
    HomotopyAveraging,
    TwoTermLinf,
    check_crossed_module,
    check_homotopy_averaging,
    check_two_term,
    crossed_semidirect,
    crossed_to_strict,
    is_skeletal,
    is_strict,
    skeletal_equivalent,
    skeletal_to_triple,
    strict_to_crossed,
    triple_to_skeletal,
)
from .lie import (
    AveragingLieAlgebra,
    LeibnizAlgebra,
    LieAlgebra,
    Representation,
    adjoint_representation,
    check_averaging,
    check_embedding_tensor,
    check_lie,
    check_representation,
    double_construction,
    embedding_to_averaging,
    induced_leibniz,
    semidirect_product,
    trivial_representation,
)
from .linalg import Matrix, Tensor, enumerate_linear_maps, kernel_basis, rank, solve_affine
from .multilinear import AltMap

__version__ = "0.1.0"
