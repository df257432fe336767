"""Pseudospectral two-endpoint solver and estimate monitors for weighted 1-D Schrodinger evolutions.

The package solves the variable-coefficient evolution

    d/dt u = i (d/dx (a du/dx) + W u)

in an exponentially weighted frame: prescribing the negative-frequency part
of the weighted solution at t = 0 and the positive-frequency part at the
horizon gives a well-posed two-endpoint problem, solved here by frozen-source
sweeps over viscous linear sub-problems.  Everything the construction relies
on (energy bounds, weighted smoothing, commutator constants, the dyadic
splitting of frequency interactions, the drift-integrability obstruction to
the forward problem) is measured by a monitor rather than assumed.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    GridMismatchError,
    HorizonError,
    ResolvableRangeError,
    SingularOperatorError,
    StabilityError,
    ValidationError,
)
from .spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    annulus_bump,
    block_symbol,
    dealiased_product,
    derivative,
    fractional,
    gaussian_field,
    hilbert,
    lp_block,
    lp_norm,
    mode_field,
    pi0,
    project,
    remove_pi0,
    smooth_bump,
)
from .weights import WeightProfile, build_weight, unit_weight
from .coefficients import (
    CoefficientField,
    HorizonSelection,
    MizohataReport,
    NormBundle,
    mizohata_index,
    norm_bundle,
    select_horizon,
)
from .free_bvp import (
    FreeBvpData,
    FreeEstimateReport,
    GrowthReport,
    forward_growth_demo,
    solve_free,
    verify_free_estimate,
)
from .stepper import (
    EpsilonStudyReport,
    LinearProblem,
    StepperConfig,
    epsilon_study,
    heat_quartic,
    solve_linear,
)
from .picard import (
    AssembledSolution,
    BvpProblem,
    PicardReport,
    ResidualProfile,
    assemble_solution,
    coupling_norms,
    coupling_stacks,
    pde_residual,
    picard_solve,
)
from .estimates import (
    EstimateReport,
    bootstrap_diagnostics,
    energy_monitor,
    weighted_smoothing_monitor,
)
from .commutators import (
    BoundEstimate,
    CommutatorTrial,
    DecompositionAudit,
    FractionalResult,
    commutator_apply,
    decomposition_audit,
    derivative_identity_residual,
    estimate_constant,
    fractional_commutator,
    trial_coefficient,
    trial_field,
)
from .fieldio import (
    dump_field_binary,
    dump_field_csv,
    load_field,
    write_norms_csv,
)
from .presets import (
    build_datum,
    load_preset,
    merge_scenario,
    preset_names,
    resolve_scenario,
)

__version__ = "0.1.0"
