"""spectrunc: truncated spectral approximation under perturbation.

Estimators that keep the top-k eigenpairs of a perturbed, partially
observed or sampled symmetric matrix; the closed-form error bounds that
justify them; and a deterministic experiment harness that measures the
bounds on synthetic instances.
"""

__version__ = "0.1.0"

from .bounds import (  # noqa: E402
    AdmissibilityReport,
    BoundReport,
    EnvelopeIndices,
    RatePair,
    SamplingThreshold,
    additive_error_bound,
    completion_sampling_threshold,
    covariance_admissible,
    denoising_error_bound,
    exponential_error_rate,
    exponential_rank_cutoff,
    gap_error_bound,
    powerlaw_error_rate,
    powerlaw_rank_cutoff,
    relative_error_bound,
    sample_covariance_rates,
    spectral_envelope,
)
from .estimators import (  # noqa: E402
    ObservationSet,
    SampleSet,
    complete,
    covariance_reduced,
    denoise,
    sample_covariance,
    zero_fill_rescale,
)
from .harness import (  # noqa: E402
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    rate_regression,
    run_experiment,
    run_trial,
)
from .linalg import (  # noqa: E402
    SpectralDecomposition,
    SpectrumStats,
    eig_sym,
    principal_angle_sin,
    spectral_norm_sym,
    spectrum_stats,
    spikeness,
    top_eigenpairs,
    truncate,
)
from .proofcheck import (  # noqa: E402
    AlignmentCheck,
    AlignmentReport,
    aligned_subspace,
    check_alignment,
    reference_matrix,
)
from .synth import (  # noqa: E402
    bernoulli_observe,
    goe_noise,
    haar_orthogonal,
    make_spectrum,
    mvn_samples,
    psd_from_spectrum,
    rng_stream,
    scaled_perturbation,
)
