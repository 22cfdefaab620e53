"""Computable finite-level models of self-affine measures and their frames."""

from .errors import (
    AtomBudgetExceeded,
    CantorFramesError,
    DimensionMismatch,
    DuplicateDigits,
    EigenBudgetExceeded,
    EmptyFrequencySet,
    HadamardCheckFailed,
    NoWitnessFound,
    NonExpandingMatrix,
    NotCertifiedPacking,
    SingularA4,
    SingularMatrix,
    SizeMismatch,
    ToleranceUnreachable,
    ZeroNormInput,
)
from .fourier import (
    FactorizationReport,
    MaskPolynomial,
    TransformValue,
    factorization_check,
    mask_eval,
    mu_hat,
    windowed_transform,
)
from .frames import (
    BlockedLinearMap,
    FrameReport,
    FrequencySet,
    ShearData,
    bessel_quotient,
    frame_bounds,
    indicator_coefficients,
    jp_spectrum,
    shear_blocks,
)
from .experiments import (
    CrossBesselResult,
    DegeneracyResult,
    RotationResult,
    collinear_lower_bounds,
    cross_bessel_experiment,
    degeneracy_experiment,
    integer_pool,
    rotation_experiment,
)
from .measures import (
    AtomicMeasure,
    DigitSystem,
    PointCloud,
    add,
    as_point,
    attractor_points,
    ball_mass,
    convolve,
    cylinder_points,
    embed_axis,
    level_measure,
    tail_radius,
    translate,
)
from .packing import (
    OverlapReport,
    PackingCertificate,
    SingularityWitness,
    SscCertificate,
    difference_set,
    packing_certificate_from_clouds,
    packing_certificate_from_digits,
    radon_nikodym_atoms,
    singularity_witness,
    ssc_certificate,
    translation_overlap,
)

__version__ = "0.1.0"
