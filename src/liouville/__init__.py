"""Impedance-form Sturm-Liouville spectra and the slope-to-potential map.

The package works on the unit interval at desk scale: uniform grids,
truncated spectral data, and Newton-type inverse problems.  The central
object is the change of dependent variable that turns the impedance-form
operator into a normal-form operator with a mean-zero potential; spectra,
norming constants, trace identities and product formulas agree across the
two pictures, and the inverse routines recover slopes and potentials from
truncated data.
"""

from .errors import (BracketError, ConditionError, DegenerateEigenfunctionError,
                     FitError, GridMismatchError, IntegrationError,
                     InversionError, LiouvilleError, PoleCollisionError,
                     RangeError, TargetError)
from .grid import (DEFAULT_CELLS, MIN_CELLS, FourierRep, GridFunction,
                   SequenceData, cumulative_integral, differentiate,
                   inner_product, integral, l2_norm, resample, seq_norm,
                   sup_norm, symmetry_defect, symmetry_project, trig_basis)
from .transform import (ConditionU, DecayTerm, EstimateReport, EstimateRow,
                        Impedance, ImpedanceProfile, MonotoneBound, Potential,
                        build_rho, calibrate_bounds, compute_c0, estimate_suite,
                        evaluate_u, forward_transform, frechet_apply)
from .ode import (INF, ImpedanceProblem, SchrodingerProblem, StateTrace,
                  is_dirichlet, oscillation_count, shoot_backward,
                  shoot_forward, wronskian)
from .spectral import (AdmissibilityReport, SpectralData, boundary_shift,
                       characterize, compute_eigenvalues, extract_remainders,
                       hadamard_wronskian, identity_ab, identity_b,
                       norming_constants, normalizing_constants, regime_of,
                       solve_spectrum, unperturbed_eigenvalues,
                       unperturbed_norming)
from .inverse import (FitReport, FitTarget, ImpedanceFitReport,
                      InversionConfig, InversionReport, fit_impedance,
                      fit_impedance_detailed, fit_potential,
                      fit_potential_detailed, invert_transform,
                      invert_transform_detailed)
from .serialize import (atomic_write_text, condition_from_dict,
                        condition_to_dict, dump_json, inversion_report_to_dict,
                        json_text, load_json, read_grid_csv, spectral_from_dict,
                        spectral_to_dict, target_from_dict, target_to_dict,
                        write_grid_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LiouvilleError", "GridMismatchError", "ConditionError", "RangeError",
    "IntegrationError", "BracketError", "DegenerateEigenfunctionError",
    "PoleCollisionError", "InversionError", "TargetError", "FitError",
    # grids and sequences
    "MIN_CELLS", "DEFAULT_CELLS", "GridFunction", "FourierRep", "SequenceData",
    "differentiate", "cumulative_integral", "integral", "inner_product",
    "l2_norm", "sup_norm", "seq_norm", "symmetry_project", "symmetry_defect",
    "resample", "trig_basis",
    # transform
    "DecayTerm", "ConditionU", "MonotoneBound", "Impedance", "Potential",
    "ImpedanceProfile", "EstimateRow", "EstimateReport", "build_rho",
    "evaluate_u", "compute_c0", "forward_transform", "frechet_apply",
    "estimate_suite", "calibrate_bounds",
    # shooting
    "INF", "is_dirichlet", "SchrodingerProblem", "ImpedanceProblem",
    "StateTrace", "shoot_forward", "shoot_backward", "wronskian",
    "oscillation_count",
    # spectra
    "SpectralData", "AdmissibilityReport", "regime_of",
    "unperturbed_eigenvalues",
    "unperturbed_norming", "boundary_shift", "compute_eigenvalues",
    "solve_spectrum", "norming_constants", "normalizing_constants",
    "extract_remainders", "hadamard_wronskian", "identity_b", "identity_ab",
    "characterize",
    # inverse problems
    "InversionConfig", "InversionReport", "FitTarget", "FitReport",
    "ImpedanceFitReport", "invert_transform", "invert_transform_detailed",
    "fit_potential", "fit_potential_detailed", "fit_impedance",
    "fit_impedance_detailed",
    # serialization
    "atomic_write_text", "json_text", "dump_json", "load_json",
    "write_grid_csv", "read_grid_csv", "spectral_to_dict",
    "spectral_from_dict", "target_to_dict", "target_from_dict",
    "condition_to_dict", "condition_from_dict", "inversion_report_to_dict",
]
