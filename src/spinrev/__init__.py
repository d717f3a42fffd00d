"""Time-reversal and decoupling pulse schemes for n-spin couplings.

Synthesis and verification of inversion/decoupling schemes under
first-order averaging, spectral lower bounds on step count and time
overhead, numerical scheme search, and an exact small-n Hilbert-space
oracle.

The public names are loaded on first access (PEP 562), so `import
spinrev` imports neither numpy nor any submodule until a name is used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundsAudit",
        "BoundsReport",
        "audit_stats_against_bounds",
        "bounds_report",
        "check_scheme_against_bounds",
        "steps_lower_bound",
        "steps_lower_bound_case2",
        "tau_lower_bound",
    ),
    "coupling": (
        "CouplingClass",
        "CouplingInput",
        "classification_margins",
        "classify_type",
        "complete_weights",
        "coupling_from_dict",
        "dipole_type",
        "scalar_type",
        "tensor_coupling",
    ),
    "hilbert": (
        "ErrorScaling",
        "build_hamiltonian",
        "conjugation_consistency",
        "error_scaling",
        "evolve",
        "kron_all",
        "lift_rotations",
        "operator_norm",
    ),
    "rotations": (
        "SymSpectrum",
        "axis_cycle",
        "random_special_unitary",
        "rotation_about",
        "so3_to_su2",
        "su2_to_so3",
        "sym_eig",
    ),
    "schemes": (
        "Scheme",
        "SchemeKind",
        "SchemeStats",
        "Step",
        "VerifyResult",
        "average_coupling",
        "conjugate",
        "decoupling_to_inversion",
        "hadamard_matrix",
        "inversion_to_decoupling",
        "pi_rotation",
        "scheme_from_dict",
        "scheme_stats",
        "scheme_to_dict",
        "selective_decoupling",
        "synthesize_case1",
        "synthesize_case2",
        "verify",
    ),
    "search": (
        "CandidatePool",
        "SearchResult",
        "collective_cyclic_pool",
        "find_inversion_nnls",
        "greedy_pool_growth",
        "merge_pools",
        "octahedral_group",
        "pair_pi_pool",
        "random_octahedral_pool",
        "search_result_to_dict",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: `import spinrev; spinrev.search.merge_pools` works
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
