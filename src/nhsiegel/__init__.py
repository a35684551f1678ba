"""Evaluation and growth-bound certification for vector-valued, nearly
holomorphic modular forms on the Siegel upper half space (degrees 1 and 2)."""

from .errors import (
    EigenIterationError,
    FormDataError,
    NhsiegelError,
    ReductionBudgetError,
    SingularMatrixError,
    TailDivergenceError,
)
from .formio import (
    load_form_package,
    package_from_dict,
    package_to_dict,
    save_form_package,
)
from .forms import (
    FormPackage,
    FourierExpansion,
    InvarianceReport,
    PointEvaluator,
    check_invariance,
    evaluate,
    phi,
    slash,
    tail_bound,
)
from .growth import (
    GrowthReport,
    SweepConfig,
    corollary_rhs,
    estimate_constant,
    lift,
    sturm_rhs,
    verify_growth_bound,
    verify_moderate_growth,
)
from .linalg import (
    MultiIndex,
    eigenvalues_sym,
    eigh_sym,
    inverse,
    monomial,
    sqrt_posdef,
)
from .reps import (
    Rep,
    RepVector,
    apply,
    highest_weight,
    inner,
    norm,
    rep_matrix,
)
from .samples import SAMPLE_BUILDERS, build_sample
from .symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    act,
    automorphy_factor,
    delta_for_degree,
    from_point,
    is_symplectic,
    reduce_batch,
    reduce_to_fundamental,
)

__version__ = "0.1.0"
