"""Discrete Gabor-frame toolkit.

Frame operators in multiplier (Walnut) form on finite cyclic grids, canonical
dual and tight windows, weighted sup-block norms, and exact desk-scale checks
of the operator identities tying them together.
"""

from .amalgam import AmalgamProfile, amalgam_norm, amalgam_profile, embedding_check
from .bracket import (
    PeriodicVector,
    bracket_fourier_coeffs,
    bracket_product,
    correlation_G,
)
from .core import (
    AdmissibilityReport,
    GaborLattice,
    Grid,
    Signal,
    Weight,
    WindowSpec,
    build_grid,
    build_window,
    check_admissible,
    inner_product,
    norm_l2,
    read_window_file,
    signed_range,
    signed_rep,
    tf_shift,
)
from .diagnostics import (
    IdentityResidual,
    SummabilityReport,
    bracket_series,
    build_counterexample,
    conjecture_probe,
    convo_identity_residual,
    counterexample_report,
    dense_matrix,
    dual_summability_report,
    estimate_convest,
    extract_walnut_from_matrix,
    forbound_check,
    forbound_slack,
    mixed_bracket,
)
from .errors import (
    BranchError,
    ContractViolationError,
    ConvergenceError,
    DimensionError,
    DivisibilityError,
    DomainError,
    GaborToolkitError,
    GridMismatchError,
    LatticeError,
    NotAFrameError,
    NotAFrameWarning,
    ParseError,
    SizeError,
)
from .frame_op import (
    Coeffs,
    WalnutCoeffs,
    analysis,
    dense_frame_matrix,
    empirical_multiplier_ratio,
    frame_operator_direct,
    frame_operator_walnut,
    synthesis,
    walnut_coefficients,
    walnut_weighted_sum,
)
from .invert import (
    FrameBounds,
    SolverReport,
    dual_window,
    duality_defect,
    frame_bounds,
    inverse_solve,
    tight_window,
    verify_reconstruction,
)

__version__ = "0.1.0"
