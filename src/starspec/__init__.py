"""starspec: the spectral problem on star-shaped graphs.

Given finite target spectra M_1 ... M_n and a level gamma, decide whether
Hermitian operators A_j with spectrum inside M_j and sum equal to gamma I
exist, and construct explicit matrix solutions: reflection functors handle
the real-root dimensions, a small constrained optimizer handles the
hyperplane (imaginary root) case on the (2,2,2) star.
"""

__version__ = "0.1.0"

from .graph import (
    GraphClass,
    GraphError,
    StarGraph,
    bilinear_form,
    build_star,
    classify,
    tits_form,
    unit_vector,
)
from .graph import GVec
from .coxeter import (
    CoxeterDomainError,
    DimCharPair,
    ReductionSchedule,
    char_transport_up,
    coxeter_char,
    coxeter_dim,
    coxeter_power_matrix_e6,
    coxeter_power_table_e6,
    elementary_coxeter_matrix,
    reduction_schedule,
)
from .roots import (
    coxeter_series,
    fundamental_roots,
    is_root,
)
from .transfer import (
    GeneralizedDimension,
    SpectralInstance,
    TransferError,
    char_from_chi,
    chi_from_char,
    dim_from_n,
    make_instance,
    md_matrix,
    mf_matrix,
    n_from_dim,
    nondegenerate_dim,
)
from .feasibility import (
    FAMILIES,
    FAMILY_INNER,
    FAMILY_LEAF,
    FAMILY_ROOT,
    FeasibilityError,
    FeasibilityVerdict,
    Hyperplane,
    closed_form_e6,
    horn_check_e6,
    hyperplane,
    iterative_feasible,
    on_hyperplane,
    solve,
    trajectory_dim,
)
from .reps import (
    AlgebraRep,
    ConstructionError,
    GraphRep,
    RepError,
    build_graph_rep,
    build_hyperplane_rep,
    canonicalize,
    from_algebra_rep,
    reflect_rep,
    simple_rep,
    to_algebra_rep,
)
from .verify import (
    VerificationReport,
    commutant_dimension,
    verify_algebra_rep,
    verify_graph_rep,
)
