"""Numerical laboratory for approximation schemes.

Sequence transforms (seq), discretized quasi-normed spaces (space), scheme
definitions and validation (scheme), best-approximation solvers (solve),
constructive lower-bound witnesses (witness), scheme diagnostics (analyze),
and a JSON-config CLI (cli).
"""

from .seq import (
    IndexMap,
    InsufficientWindowError,
    NullSequence,
    SequenceError,
    lethargy_majorant,
)
from .space import Grid, Space, SpaceError, norm
from .scheme import (
    Dictionary,
    Scheme,
    SchemeError,
    build_scheme,
    list_schemes,
    membership,
    validate_scheme,
)
from .solve import (
    BestApprox,
    ErrorProfile,
    NoSolverError,
    SolverError,
    best_approx,
    error_profile,
    midpoint_quantizer,
    quantizer_error,
)
from .witness import (
    Witness,
    WitnessError,
    construct_slow_decay,
    verify_slow_decay,
    verify_witness,
    witness_bv,
    witness_c0,
    witness_haar_bumps,
    witness_orthonormal_nterm,
    witness_quantizer,
    witness_ridge,
    witness_tensor,
    witness_translates,
    witness_wavelet,
)
from .analyze import (
    AnalyzeError,
    DensityCertificate,
    ShapiroVerdict,
    bernstein_audit,
    brudnyi_gap,
    density_lower_bound,
    dolzhenko_variation_audit,
    jackson_audit,
    shapiro_check,
)

__version__ = "0.1.0"
