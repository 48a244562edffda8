"""Exact rational toolkit for multiplicative n-ary Hom-Lie superalgebras."""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    Mat,
    SubspaceBasis,
    contains,
    extend_to_complement,
    subspace_sum,
)
from .algebra import (  # noqa: F401
    InvalidAlgebra,
    NHomAlgebra,
    ValidationReport,
    bracket,
    canonicalize_tuple,
    center,
    derived_subspace,
    is_alpha_surjective,
    transport,
    validate,
)
from .solver import (  # noqa: F401
    EndoSubspace,
    GradedEndo,
    Kind,
    alpha_twist,
    hom_associator,
    in_space,
    jordan_product,
    omega,
    solve,
    supercommutator,
)
from .propositions import (  # noqa: F401
    Claim,
    PropReport,
    check_prop31,
    check_prop32,
    check_prop33,
    check_prop34,
    check_prop38,
    check_prop39,
    random_even_invertible,
    solved_dims,
)
from .extension import (  # noqa: F401
    TExtension,
    build_check,
    check_prop42,
    check_prop43,
    phi,
)
from .io import (  # noqa: F401
    PrecheckError,
    SchemaError,
    parse_algebra,
    serialize_algebra,
)
