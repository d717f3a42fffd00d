"""Time-reversal and decoupling pulse schemes for n-spin couplings.

Synthesis and verification of inversion/decoupling schemes under
first-order averaging, spectral lower bounds on step count and time
overhead, numerical scheme search, and an exact small-n Hilbert-space
oracle.
"""

from .bounds import (
    BoundsAudit,
    BoundsReport,
    audit_stats_against_bounds,
    bounds_report,
    check_scheme_against_bounds,
    steps_lower_bound,
    steps_lower_bound_case2,
    tau_lower_bound,
)
from .coupling import (
    CouplingClass,
    CouplingInput,
    classification_margins,
    classify_type,
    complete_weights,
    coupling_block,
    coupling_from_dict,
    dipole_type,
    n_spins,
    scalar_type,
    tensor_coupling,
)
from .hilbert import (
    ErrorScaling,
    build_hamiltonian,
    conjugation_consistency,
    error_scaling,
    evolve,
    kron_all,
    lift_rotations,
    operator_norm,
    run_cycle,
)
from .rotations import (
    SymSpectrum,
    axis_cycle,
    random_special_unitary,
    rotation_about,
    so3_to_su2,
    su2_to_so3,
    sym_eig,
)
from .schemes import (
    Scheme,
    SchemeKind,
    SchemeStats,
    Step,
    VerifyResult,
    average_coupling,
    block_diag_rotations,
    conjugate,
    decoupling_to_inversion,
    hadamard_matrix,
    inversion_to_decoupling,
    pi_rotation,
    scheme_from_dict,
    scheme_stats,
    scheme_to_dict,
    selective_decoupling,
    synthesize_case1,
    synthesize_case2,
    verify,
)
from .search import (
    CandidatePool,
    PoolSource,
    SearchResult,
    collective_cyclic_pool,
    find_inversion_nnls,
    greedy_pool_growth,
    merge_pools,
    nnls_active_set,
    octahedral_group,
    pair_pi_pool,
    random_octahedral_pool,
    search_result_to_dict,
    user_pool,
)

__version__ = "0.1.0"
