"""Polarization-algebra parametrization of 3x3 unitary matrices.

Compose unitaries from nine parameters (three rotation angles, two shape
angles, four phases), recover the parameters from any unitary, and analyze
coherency matrices via the characteristic decomposition and its regularity
spectrum.
"""
from .linalg import (
    EigenDecomposition,
    FloatRangeError,
    NonFiniteError,
    NotHermitianError,
    NotUnitaryError,
    Unitary3Error,
    eig_hermitian3,
    outer_product,
    unitarity_distance,
)
from .rotations import (
    NotOrthogonalError,
    RotationAngles,
    compose_rotation,
    extract_rotation_angles,
    wrap_angle,
)
from .parametrization import (
    InconsistentColumnError,
    NotUnitError,
    ParameterRangeError,
    RecoveryReport,
    RecoveryToleranceError,
    StructureViolationError,
    UnitaryParams,
    canonical_basis,
    compose_core,
    compose_unitary,
    ellipticity,
    extract_core_params,
    flip_equivalent,
    normalize_global_phase,
    params_distance,
    recover_first_column,
    recover_params,
)
from .characteristic import (
    CharacteristicComponents,
    NotPositiveSemidefiniteError,
    PurityIndices,
    RegularityReport,
    ZeroTraceError,
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    purity_indices,
    regularity_report,
)
from .documents import (
    MalformedDocumentError,
    parse_matrix,
    parse_params,
    serialize_matrix,
    serialize_params,
)
from .sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_params,
    random_psd_hermitian,
)
from .selftest import run_selftest

__version__ = "0.1.0"
