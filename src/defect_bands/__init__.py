"""Spectra of periodic lattice operators perturbed by defects of smaller
dimension: bulk bands, guided branches along the defects, localized modes,
all through one certified step procedure, validated against brute-force
truncations."""

from .model import (
    DefectLayer,
    GridConfig,
    InvalidSpec,
    ProblemSpec,
    ToleranceSet,
    ValidationReport,
    defect_stencil_to_symbol,
    validate,
)
from .oracle import (
    TruncatedOperator,
    assemble_truncated,
    boundary_mass,
    compare_spectra,
    oracle_eigenpairs,
    oracle_eigenvalues,
    periodic_box_check,
)
from .quadrature import NonConvergence, grid_nodes
from .spectrum import (
    Branch,
    Chain,
    ExclusionSet,
    MembershipCertificate,
    OmegaComponent,
    SpectralResult,
    StepCheckResult,
    UncertifiedLevel,
    bands,
    dispersion_branch,
    exclusion_set,
    forward_apply,
    full_spectrum,
    membership,
    resolvent_apply,
    step_check,
    trig_vector,
)
from .symbol import (
    InputError,
    OmegaSymbol,
    SingularMatrix,
    TrigMatrixPolynomial,
    as_complex_matrix,
    det,
    inverse,
    is_hermitian,
    smallest_singular_value,
)

__version__ = "0.1.0"
