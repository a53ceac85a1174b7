"""k-orthogonal matrix semigroups over finite commutative rings, their
Chinese-Remainder decompositions, and the linear codes they generate."""

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    InvariantViolationError,
    KorthosError,
    NotApplicableError,
    NotAUnitError,
    NotSplittableError,
    RingMismatchError,
    SizeCapError,
    UndefinedDistanceError,
)
from .rings import (
    GaloisFieldRing,
    ProductRing,
    Ring,
    VExtensionRing,
    ZmodRing,
    make_galois_field,
    make_product,
    make_r2,
    make_v_extension,
    make_zmod,
    parse_ring,
)
from .matrices import (
    Mat,
    OrthClass,
    classify_k_orthogonal,
    find_k,
    hstack,
    identity,
    is_left_k_orthogonal,
    is_right_k_orthogonal,
    reversal,
    scalar_mat,
    zeros,
)
from .search import (
    SemigroupCensus,
    antiorthogonal_exists,
    census_table,
    circulant_characterization_check,
    count_semigroup,
    disjoint_or_equal_check,
    enumerate_naive,
    enumerate_semigroup,
    transpose_bijection_check,
    verify_closure,
    verify_group,
)
from .crt import (
    CrtSplit,
    gl_order,
    gl_order_bruteforce,
    map_matrix,
    orth_group_order,
    split,
    verify_semigroup_isomorphism,
)
from .codes import (
    DualityReport,
    LinearCode,
    anti_orthogonal_check,
    code_from_generator,
    drop_rows,
    dual_code,
    duality_report,
    hamming_distance,
    lee_distance,
    row_anti_orthogonal_check,
    row_self_orthogonal_check,
    self_orthogonal_check,
    systematic_from_A,
)

__version__ = "0.1.0"
