"""spectrunc: truncated spectral approximation under perturbation.

Estimators that keep the top-k eigenpairs of a perturbed, partially
observed or sampled symmetric matrix; the closed-form error bounds that
justify them; and a deterministic experiment harness that measures the
bounds on synthetic instances.

What each command loads: ``--version``, ``--help``, ``bounds`` and every
rejected config or flag load neither numpy nor scipy, and neither does
``import spectrunc``, which imports each name below from its module on first
access.  numpy loads at the first array a command touches: ``synth``, the
file commands, and ``run`` once its config is accepted.  scipy loads at the
first eigensolve (``linalg.top_eigenpairs``, or a Lanczos norm at
n >= ``linalg.ARPACK_MIN_N``), so ``synth`` runs without it.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package re-exports from it
_EXPORTS = {
    "bounds": (
        "AdmissibilityReport", "BoundReport", "EnvelopeIndices", "RatePair",
        "SamplingThreshold", "additive_error_bound", "completion_sampling_threshold",
        "covariance_admissible", "denoising_error_bound", "exponential_error_rate",
        "exponential_rank_cutoff", "gap_error_bound", "powerlaw_error_rate",
        "powerlaw_rank_cutoff", "relative_error_bound", "sample_covariance_rates",
        "spectral_envelope",
    ),
    "config": ("ExperimentConfig",),
    "estimators": (
        "ObservationSet", "SampleSet", "complete", "covariance_reduced", "denoise",
        "sample_covariance", "zero_fill_rescale",
    ),
    "harness": (
        "EXPERIMENTS", "ExperimentReport", "TrialRecord", "rate_regression", "run_experiment",
        "run_trial",
    ),
    "linalg": (
        "SpectrumStats", "eig_sym", "principal_angle_sin", "spectral_norm_sym",
        "spectrum_stats", "spikeness", "top_eigenpairs", "truncate",
    ),
    "proofcheck": (
        "AlignmentCheck", "AlignmentReport", "aligned_subspace", "check_alignment",
        "reference_matrix",
    ),
    "synth": (
        "bernoulli_observe", "goe_noise", "haar_orthogonal", "make_spectrum", "mvn_samples",
        "psd_from_spectrum", "rng_stream", "scaled_perturbation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a re-exported name, or one of the modules above, on first access (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
