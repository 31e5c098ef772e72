"""Polarization-algebra parametrization of 3x3 unitary matrices.

Compose unitaries from nine parameters (three rotation angles, two shape
angles, four phases), recover the parameters from any unitary, and analyze
coherency matrices via the characteristic decomposition and its regularity
spectrum.

``import unitary3`` loads no submodule: each public name below, and each
submodule, is imported on first access (PEP 562) and then kept here, so a
program loads only the modules it uses.
"""
# The public names of each submodule.
_EXPORTS = {
    "linalg": "ConvergenceError EigenDecomposition FloatRangeError NonFiniteError NotHermitianError "
              "NotUnitaryError Unitary3Error eig_hermitian3 unitarity_distance",
    "rotations": "NotOrthogonalError RotationAngles compose_rotation extract_rotation_angles wrap_angle",
    "parametrization": "ParameterRangeError RecoveryReport RecoveryToleranceError UnitaryParams "
                       "canonical_basis compose_core compose_unitary flip_equivalent params_distance "
                       "recover_params",
    "characteristic": "CharacteristicComponents NotPositiveSemidefiniteError PurityIndices RegularityReport "
                      "ZeroTraceError characteristic_decomposition intrinsic_middle middle_component "
                      "purity_indices regularity_report",
    "documents": "MalformedDocumentError OutputWriteError parse_matrix parse_params serialize_matrix "
                 "serialize_params",
    "sampling": "SeededGenerator generate_haar_unitary random_params random_psd_hermitian",
    "selftest": "run_selftest",
}
# Each public name and the submodule that defines it.
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_MODULE, *_EXPORTS]
__version__ = "0.1.0"
# The named stages of the recovery and coherency pipelines and of the CLI's
# documents, each with the kernels that run it, as "submodule.function": a
# profiler matches their code objects, so an ordinary call costs nothing,
# and the names are strings, so the table loads no submodule.
_STAGES = {
    "recovery": {
        "unitarity_gate": ("linalg._check_unitary",),
        "phase_normalization": ("parametrization._normalize_global_phase",),
        "first_column": ("parametrization._recover_first_column", "parametrization._ellipticity",
                         "rotations._rotation_angles"),
        "branch": ("parametrization._branch",),
        "core_extraction": ("parametrization._extract_core_params",),
        "residual": ("parametrization._core_parts", "parametrization._residual"),
    },
    "coherency": {
        "eigensolve": ("linalg._eig", "linalg._jacobi"),
        "decomposition": ("characteristic._decompose",),
        "regularity": ("characteristic._regularity",),
    },
    "documents": {
        "parse": ("documents._parse_rows",),
        "recovery_text": ("documents._recovery_text",),
        "roundtrip_text": ("documents._roundtrip_text",),
        "chardecomp_text": ("documents._chardecomp_text",),
    },
}


def __getattr__(name: str):
    """A submodule or public name, imported on first access and bound here."""
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # the import binds the submodule here
        return globals()[name]
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
