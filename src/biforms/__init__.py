"""Exact-arithmetic toolkit for binary forms and biforms.

Everything is computed exactly over Q; forms and matrices hold integer
numerators over one denominator, and Fractions appear only at the boundary
(parsing, coeff_vector, entries).  It covers sparse multihomogeneous
polynomials and their parser, transvectants and bi-transvectants, exact
linear algebra (reduced echelon forms, kernels, Pluecker minors),
substitution and derivation actions of 2x2 and 3x3 groups, the biform <->
rational space curve dictionary, and a seeded verification registry
(C01..C14) with a CLI front end.
"""

from .poly import MPoly, RING_BI, RING_XY, RING_XYZ
from .parsing import ParseError, parse_form, to_string
from .forms import (
    BiForm,
    BinaryForm,
    TernaryForm,
    binary_basis,
    biform_basis,
    from_binomial_coeffs,
    tensor_product,
    ternary_basis,
)
from .linalg import (
    QMat,
    Subspace,
    det,
    kernel_basis,
    rank,
    rref,
    top_minors,
)
from .transvectant import (
    apolar_diffop,
    bitransvectant,
    cg_components,
    specialized_1s,
    transvectant,
    transvectant_matrix,
)
from .actions import (
    G3Element,
    GroupPair,
    LiePair,
    act,
    act_ternary,
    det_scalar,
    lie_act,
    lie_act_binary,
    matrix_of_binary_action,
    projective_stabilizer_dim,
    subspace_stabilizer_dim,
    weight_of,
)
from .curves import (
    binary_gcd,
    branch_form,
    hyperplane_degree,
    image_subspace,
    is_squarefree,
    phi_components,
    singular_system,
    span_dim,
    sylvester_resultant,
)
from .checks import VERSION as __version__, CheckResult, Report, emit, run_all, run_check
