"""Sign-variation analysis of totally positive differential systems.

The package covers sign-variation counts (s_minus / s_plus / sigma),
total-positivity classification and bidiagonal factorization, compound
matrices, TNDS/TPDS classification of linear time-varying systems, RK4
transition-matrix integration with sign-variation tracking, Floquet
analysis of periodic systems, and nonlinear entrainment experiments,
integrated with error control by default.
"""

from . import errors
from .compound import add_compound, index_subsets, is_metzler, metzler_compound_profile, mult_compound
from .floquet import FloquetData, floquet, floquet_mode_evolution
from .generators import (
    random_nonsingular,
    random_tn,
    random_tp,
    random_tpds_system,
    random_tridiagonal_cooperative,
)
from .integrate import (
    Trajectory,
    TransitionRecord,
    compound_transition,
    simulate_linear,
    tn_weak_svdp_check,
    trajectory_record,
    transition_matrix,
)
from .nonlinear import (
    NonlinearSystem,
    PoincareResult,
    eventual_monotonicity,
    poincare_analysis,
    simulate_nonlinear,
)
from .signvar import in_V, s_minus, s_plus, sigma, signs
from .specfile import SystemSpec, shipped, shipped_names
from .systems import (
    Segment,
    SystemClass,
    TimeVaryingSystem,
    classify_constant,
    classify_time_varying,
    in_M,
    in_M_plus,
    negative_minor_witness,
)
from .totalpos import (
    Classification,
    GEBFactorization,
    classify,
    column_set_equivalence,
    geb_factorize,
    is_dominant_tridiagonal_TN,
    is_geb,
    minor,
    oscillatory_spectrum,
    strong_svdp_holds,
    svdp_check,
)

__version__ = "0.1.0"
