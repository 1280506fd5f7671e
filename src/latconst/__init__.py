"""Certified geometric constants and monotonicity moduli of
finite-dimensional Banach lattices (R^n, coordinatewise order)."""

from .constants import (
    ConstantBattery,
    ConstantEstimate,
    alpha,
    beta,
    constant_battery,
    james,
    lambda_plus,
    lambda_schaffer,
)
from .constructions import (
    EmbeddingReport,
    diagonal_isomorphism,
    direct_sum_l1,
    disjoint_parts,
    extract_linfty2,
    find_embedding,
)
from .core import (
    BlockSum,
    BudgetExceededError,
    DimensionMismatchError,
    EmbeddingError,
    FormMax,
    InvalidNormError,
    LatticeSpace,
    MaxOf,
    NormExpr,
    NormValidationReport,
    Scale,
    UnsupportedDimensionError,
    WeightedP,
    absval,
    as_vector,
    join,
    lp,
    meet,
    norm_from_dict,
    permute_norm,
    rescale_coordinates,
    space_from_dict,
    validate_lattice_norm,
)
from .moduli import (
    Characteristic,
    CheckResult,
    ModulusCurve,
    characteristic,
    delta_curve,
    delta_m,
    identity_battery,
    sigma,
    sigma_curve,
)
from .nets import (
    DEFAULT_PAIR_BUDGET,
    SphereNet,
    default_resolution,
    half_sphere_net,
    positive_face_net,
    support_pairs,
)
from .spaces import (
    BUILTIN_NAMES,
    beta_gap_space,
    builtin_space,
    linf_space,
    lp_space,
    max_l2_linf_space,
    max_linf_l1_space,
    random_polyhedral2_space,
)

__version__ = "0.1.0"
