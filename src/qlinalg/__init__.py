"""qlinalg — exact linear algebra over the rationals.

Matrices of ``fractions.Fraction`` entries, Gaussian elimination with full
operation traces, determinants by two routes, Cramer's rule and adjoint
inverses, subspace bases, linear maps, rational eigentheory, and
Gram-Schmidt — every answer exact, no floats anywhere.
"""

from .determinant import (
    DetEffectLog,
    Expansion,
    adjoint,
    cofactor_expand,
    cofactor_matrix,
    cramer_solve,
    det,
    det_cofactor,
    det_with_effects,
    inverse_2x2,
    inverse_adjoint,
    inverse_entry,
    row_op_det_effect,
)
from .eigen import (
    Diagonalizable,
    EigenSummary,
    NotDiagonalizable,
    NotSplit,
    Split,
    char_poly,
    deficient_eigenvalue,
    diagonalize,
    eigen_summary,
    eigenspace,
    eigenvalues,
    matrix_power,
)
from .elimination import (
    FORMS,
    AddMultiple,
    Inconsistent,
    Infinite,
    RowOp,
    Scale,
    Swap,
    Trace,
    Unique,
    apply_row_op,
    elementary_matrix,
    inverse_gauss_jordan,
    invert_row_op,
    leaders,
    left_factor,
    reduce,
    render_row_op,
    satisfies_form,
    solve,
    solve_with_trace,
)
from .errors import (
    AllZeroInput,
    DegreeTooHigh,
    DependentPoints,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    InputDependent,
    LinAlgError,
    MalformedForm,
    MalformedScalar,
    MixedDimensions,
    NegativePowerOfSingular,
    NonLinearCoordinate,
    NotInvertible,
    NotSpanning,
    NotSquare,
    RaggedRows,
    SingularCoefficient,
    UsageError,
    WrongSize,
    ZeroDenominator,
    ZeroScale,
    ZeroVectorPresent,
)
from .matrix import (
    Combination,
    Matrix,
    SymmetryClass,
    as_vector,
    classify_symmetry,
    hstack,
    parse_matrix_text,
    product_as_combination,
    render_block,
    render_inline,
    split_augmented,
    sym_skew_decompose,
)
from .orthogonal import (
    OrthogonalBasis,
    OrthogonalityReport,
    dot,
    gram_schmidt,
    is_orthogonal_set,
    squared_norm,
)
from .poly import Polynomial, rational_roots
from .scalars import Q, as_scalar, format_scalar, parse_scalar
from .spaces import (
    Dependent,
    Fundamentals,
    Independent,
    LinearForm,
    NotSubspace,
    Subspace,
    basis_of_span,
    extend_to_basis,
    fundamental_subspaces,
    independence,
    infer_parameter_order,
    parse_linear_form,
    span_contains,
    subspace_from_forms,
)
from .transform import (
    LinearMap,
    NotLinear,
    coords_to_poly,
    from_basis_images,
    from_forms,
    from_matrix,
    integral_functional,
    poly_to_coords,
    standard_matrix,
)

__version__ = "0.1.0"

import types as _types

__all__ = [
    _n
    for _n, _v in list(globals().items())
    if not _n.startswith("_") and not isinstance(_v, _types.ModuleType)
]
