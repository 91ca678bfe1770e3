"""Desk-scale numerics for function-space constructions.

Submodules:
    geometry     - finite metric spaces, Lipschitz norms, dual-norm formulas
    kernels      - kernel expression algebra, Gram matrices, PSD testing
    multipliers  - sampled multiplier norms and contraction criteria
    realization  - sequence-space realization of a finite metric space
    hardy_pick   - Toeplitz truncations, Pick interpolation, Carleson probes
    cli          - batch front-end (`funcspace` command)
"""

from . import errors, geometry, hardy_pick, kernels, multipliers, realization
from .errors import NumericalError, ToolkitError, ValidationError
from .geometry import (
    EuclideanPointSet,
    MetricSpace,
    SampledFunction,
    dil,
    lip_dual_pair_norm,
    lip_norm,
    lip_point_norm,
    set_distance,
    submult_ratio,
)
from .hardy_pick import (
    PickProblem,
    ardy_multiplier_check,
    carleson_seq,
    detect_mo,
    pick_feasible,
    pick_min_norm,
    pick_solve,
    separability_probe,
    toeplitz_mo,
)
from .kernels import (
    ClosedFormFunction,
    KernelExpr,
    PsdReport,
    ball,
    constant,
    coordinate,
    geom,
    gram,
    hadamard,
    kernel_block,
    kernel_eval,
    kernel_from_json,
    kernel_sum,
    kernel_to_json,
    moebius,
    pencil_norms,
    polynomial,
    psd_check,
    rank_one,
    scale,
    schur_product_check,
    szego,
    szego_section,
)
from .multipliers import (
    MultNormReport,
    contraction_check,
    kl_monotonicity_check,
    sampled_mult_norm,
    von_neumann_check,
)
from .realization import (
    DenseSequence,
    RealizationModel,
    build_g,
    build_model,
    choose_b,
    coefficient_roundtrip,
    embed,
    point_eval_rank,
    point_functional,
    topology_probe,
    very_independence_check,
)

__version__ = "0.1.0"
