"""Exact symbolic engine for quantum matrix, SL, and GL function algebras,
their integer forms over Z[q,q^-1], the quantized enveloping algebra of
gl(n+1), and the classical enveloping-algebra limits."""

from .laurent import (
    LAURENT,
    LaurentPoly,
    NotDivisible,
    POLE_AT_ONE,
    PoleAtOne,
    RATFUNC,
    RatFunc,
)
from .freealg import (
    AlgebraMismatch,
    AlgebraSpec,
    DimensionOverflow,
    GenSym,
    NCElement,
    NonTerminating,
    confluence_check,
    graded_component_basis,
)
from .qmatrix import (
    BadIndexLists,
    InadmissibleOrder,
    MatrixAlgebra,
    OrderMismatch,
    TensorElement,
)
from .qsl import (
    BorelAlgebra,
    GLAlgebra,
    NotInBorel,
    SLAlgebra,
    antipode_convention_report,
    pi_project,
    sl_reduce,
)
from .classical import (
    C_SYM,
    ClassicalTensor,
    JacobiFailure,
    LieStructure,
    PBWElement,
    build_h,
    build_h_prime,
    reference_cobracket,
)
from .intform import (
    IntContext,
    IntExpr,
    OutOfForm,
    RelationRecord,
    check_span_identities,
    lift,
    poisson_cobracket,
    q_minus_1_divisibility,
    relation_catalog,
    specialize_phi,
    verify_hopf_catalog,
    verify_relation_catalog,
)
from .uq import (
    ConvexOrder,
    MuMap,
    NotInSlForm,
    PoleAtOneError,
    ThetaMap,
    UqAlgebra,
    UqElement,
    braid_T,
    collapse_at_one,
    convex_order,
    q_bracket,
    root_vector_iterated,
    root_vector_lusztig,
    uq_coproduct,
)

__version__ = "0.1.0"
