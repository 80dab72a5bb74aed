"""Weyl-group orbit combinatorics and orbit-function transforms.

The package covers exact root-system data, orbit enumeration, products
and branchings of orbits, affine-Weyl reduction with its grids and
rational elements, symmetric exponential orbit functions, and both the
continuous (quadrature) and exact finite transforms built on them.
"""

from .errors import (
    CapExceeded,
    DomainError,
    IndexOutOfRange,
    InvariantViolation,
    MismatchedSystem,
    NonTermination,
    NotStrictlyDominant,
    SeparationFailure,
    UnknownPair,
    UnsupportedRank,
    UnsupportedSeries,
    UnsupportedType,
    WeylOrbitsError,
)
from .root_system import RootSystem, build_root_system, root_system
from .weights import (
    Point,
    Weight,
    coord_str,
    from_orthogonal,
    fundamental_weight,
    highest_root,
    inner_product,
    is_dominant,
    is_strictly_dominant,
    pairing,
    parse_point,
    parse_weight,
    point,
    point_to_weight,
    to_orthogonal,
    weight,
    weight_to_point,
    zero_point,
    zero_weight,
)
from .weyl import (
    Orbit,
    dominant_representative,
    group_elements,
    orbit,
    orbit_size,
    orthogonal_orbit,
    reflect_simple,
    reflect_simple_point,
    stabilizer_order,
)
from .orbit_algebra import (
    OrbitSum,
    ProjectionMatrix,
    branch_equal_rank,
    branch_restrict,
    builtin_projection,
    congruence_modulus,
    congruence_number,
    conjecture_probe,
    product,
    product_fastpath_classify,
)
from .affine import (
    GridPoint,
    RationalElement,
    barycentric_point,
    element_orders,
    fundamental_vertices,
    grid_fm,
    in_fundamental_domain,
    interior_base_point,
    is_rational_element,
    lattice_tm,
    rational_elements,
    reduce_to_fundamental,
    reflect_r0,
    tm_level_for_grid,
)
from .cyclotomic import Cyc
from .orbit_fn import (
    Monomial,
    OrbitFunction,
    an_identity_suite,
    contragredient_partner,
    directional_derivative_fd,
    duality_double_sum,
    dy_eigencheck,
    eval_exact_cyc,
    eval_fn,
    eval_many,
    laplace_apply_fd,
    laplace_coefficients,
    laplace_eigenvalue,
    monomial,
    monomial_eval,
    orbit_function,
    point_orthogonal,
    realness_class,
    wall_inward_normal,
)
from .transform import (
    QuadratureRule,
    SpectrumEntry,
    build_quadrature,
    finite_forward,
    finite_fourier,
    forward_transform,
    inverse_transform,
    minimal_separating_m,
    orthogonality_gram,
    plancherel,
    quadrature_integrate,
    separates,
    synthesize,
    synthesize_spectrum,
    tm_scalar_product,
)

__version__ = "0.1.0"
