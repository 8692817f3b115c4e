"""Phase-estimation bounds for multi-headed cat-state resources.

Closed-form expressions and an independent truncated-Fock pipeline for the
quantum Fisher information of cat-based entangled states in a Mach-Zehnder
interferometer, with and without phase averaging and photon loss.
"""

from .bench import (
    ConsistencyReport,
    FamilyCurve,
    SweepConfig,
    SweepRow,
    default_config,
    delta_phi,
    find_crossover,
    interpolate_at_nav,
    run_sweep,
    verify_consistency,
)
from .channels import (
    BlockStack,
    CpsOutcome,
    LossSpec,
    NoonMixture,
    NoonSupportError,
    SpectralState,
    cps_round,
    cps_round_outcome,
    from_pure,
    loss_channel,
    noon_mixture_to_spectral,
    phase_average,
    synthesize_extended,
    to_noon_mixture,
)
from .closed_form import (
    MomentPair,
    ecs_qfi,
    extended_moments,
    fig1_moments,
    k_sum,
    lossy_noon_mixture,
    modified_moments,
    moment_qfi,
    normalization,
    pa_qfi,
    pa_weight,
)
from .fock import (
    CatSpec,
    CutoffError,
    FockVector,
    TwoModeState,
    beam_splitter_5050,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    fidelity,
    mandel_q,
    noon_state,
    number_moment,
    overlap,
    phase_shift,
    product_state,
    truncation_bound,
)
from .qfi import DegenerateSpectrumWarning, qfi_mixed, qfi_noon_mixture, qfi_pure

__version__ = "0.1.0"
