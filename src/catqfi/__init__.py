"""Phase-estimation bounds for multi-headed cat-state resources.

Closed-form expressions and an independent truncated-Fock pipeline for the
quantum Fisher information of cat-based entangled states in a Mach-Zehnder
interferometer, with and without phase averaging and photon loss.
"""

from .bench import (
    ConsistencyReport,
    FIGURES,
    FamilyCurve,
    SweepRow,
    delta_phi,
    find_crossover,
    interpolate_at_nav,
    run_sweep,
    verify_consistency,
)
from .channels import (
    BlockStack,
    Layers,
    LossSpec,
    SpectralState,
    from_pure,
    head_layers,
    layer_blocks,
    loss_channel,
    phase_average,
    synthesize_heralded,
)
from .closed_form import (
    MomentPair,
    NoonMixture,
    ecs_qfi,
    extended_moments,
    fig1_moments,
    lossy_noon_ladder,
    lossy_noon_mixture,
    moment_qfi,
    pa_qfi,
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
    phase_shift,
    product_state,
)
from .qfi import DegenerateSpectrumWarning, qfi_mixed, qfi_pure

__version__ = "0.1.0"
