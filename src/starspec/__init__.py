"""starspec: the spectral problem on star-shaped graphs.

Given finite target spectra M_1 ... M_n and a level gamma, decide whether
Hermitian operators A_j with spectrum inside M_j and sum equal to gamma I
exist, and construct explicit matrix solutions: reflection functors handle
the real-root dimensions, a small constrained optimizer handles the
hyperplane (imaginary root) case on the (2,2,2) star.

The exact decision layer (`graph`, `rational`, `coxeter`, `roots`,
`transfer`, `feasibility`) uses no numpy, and importing this package loads
only that layer.  The numerical layer (`reps`, `verify`) is imported the
first time one of its names is read from the package, so `from starspec
import build_graph_rep` works as before and loads numpy then.
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

# Names of the numerical layer, read through `__getattr__` on each access and
# never cached here, so a name always reads its module's current binding.
_NUMERICAL = {
    "reps": "reps",
    "verify": "verify",
    "AlgebraRep": "reps",
    "ConstructionError": "reps",
    "GraphRep": "reps",
    "RepError": "reps",
    "build_graph_rep": "reps",
    "build_hyperplane_rep": "reps",
    "canonicalize": "reps",
    "from_algebra_rep": "reps",
    "reflect_rep": "reps",
    "simple_rep": "reps",
    "to_algebra_rep": "reps",
    "VerificationReport": "verify",
    "commutant_dimension": "verify",
    "verify_algebra_rep": "verify",
    "verify_graph_rep": "verify",
}


def __getattr__(name: str):
    try:
        module = _NUMERICAL[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    home = import_module(f"{__name__}.{module}")
    return home if name == module else getattr(home, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _NUMERICAL.keys())
