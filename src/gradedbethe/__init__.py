"""Verification laboratory for gl(2|1)-invariant integrable spin chains.

Builds graded R-matrices and monodromy matrices from first principles,
solves the nested (twisted) Bethe equations on small chains, and certifies
numerically that form factors of local operators reduce to universal form
factors times explicitly computable vacuum-ratio prefactors.
"""

from .bethe import (
    BetheRoots,
    BetheSolverError,
    RootTrajectory,
    bethe_residual,
    continue_twist,
    solve_bethe,
    tau_eigenvalue,
)
from .chain import (
    ChainSpec,
    PoleError,
    TwistConfig,
    VacuumFunctions,
    monodromy_blocks,
    transfer_matrix,
    vacuum_eigenvalue,
    verify_rtt,
    yang_baxter_residual,
    zero_mode,
)
from .formfactors import (
    FormFactorReport,
    ZetaFactors,
    check_proposition1,
    check_theorem1,
    check_theorem2,
    generating_functional,
    partial_zero_mode_ff,
    universal_form_factor,
    zero_mode_ladder_checks,
)
from .graded import (
    GradedMatrix,
    GradedSpace,
    graded_permutation,
    parity_of_index,
)
from .spectrum import (
    DegenerateSpectrumError,
    EigenState,
    MatchError,
    SpectralDecomposition,
    classify_spectrum,
    diagonalize_transfer,
    match_roots_to_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
