"""Spectral geometry and Lyapunov exponents of adiabatically modulated
periodic Schrodinger operators.

The pipeline: `hill` resolves the unperturbed band structure and the
Bloch quasi-momentum, `geometry` builds the iso-energy picture in the
slow variable (branch points, pre-bands, pre-gaps, level lines),
`actions` turns pre-gaps into tunneling actions and the asymptotic
Lyapunov exponent, and `cocycle` measures the exponent directly from
matrix products or from long-range integration of the equation itself.

A public name loads its module on first use (PEP 562), so a command
imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_OWNERS = {name: module for module, names in {
    "actions": "ActionSet AsymptoticLyapunov Coefficient action_with_error "
               "compute_actions lyapunov_asymptotic total_T tunneling_action "
               "tunneling_coefficient window_model",
    "cocycle": "CocycleSpec ConjugationReport LyapunovEstimate MatrixFamily "
               "SmallDenominatorWarning cocycle_lyapunov "
               "conjugation_invariance_check default_z_samples "
               "direct_lyapunov frequency_from_epsilon herman_bound_check "
               "herman_family model_matrix theta_to_Theta",
    "errors": "AdiaspecError BranchSelectionError ConfigError "
              "ConsistencyError ConvergenceFailure CoverageError "
              "DegeneracyError DegeneratePointError InsufficientLengthError "
              "InvalidInputError NonFiniteResultError PathError "
              "ResolutionFailure StallError",
    "geometry": "AnalyticPotential BandLabel GapLabel IsoEnergyGeometry "
                "RealBranch StokesLine WindowReport analyze_window "
                "analyze_windows best_window_energy branch_points "
                "complex_momentum grid_geometries period_index real_branch "
                "real_branches strip_clearance strip_model trace_stokes_line",
    "hill": "BandStructure ComplexDiscriminantModel DiscriminantModel "
            "FundamentalMatrix PeriodicPotential QuasiMomentumValue "
            "band_edges discriminant fundamental_matrix "
            "quasimomentum_main",
}.items() for name in names.split()}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
