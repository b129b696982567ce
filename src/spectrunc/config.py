"""The run schema: what a ``spectrunc run`` config may say, checked without numpy.

:class:`ExperimentConfig` is a validated experiment description; it takes
just the parameters ``EXPERIMENT_PARAMS`` and ``SPECTRUM_KINDS`` list for its
experiment and spectrum kind (:func:`bounds.check_inputs`).  The
``key = value`` text format that spells it is read by
:func:`spectrunc.io.parse_config` and :func:`spectrunc.io.read_config`.
Nothing here builds an array: :func:`spectrum_head` checks a stock
spectrum's parameters and returns its leading eigenvalue from scalars, and
:func:`synth.make_spectrum` runs the same check before it builds the
spectrum.  So a config is accepted or rejected, with the same message, before
numpy is loaded.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from .bounds import (
    DEFAULT_C1,
    DEFAULT_C_A,
    DEFAULT_C_B,
    DEFAULT_C_COV,
    DEFAULT_C_DN,
    DEFAULT_C_MC,
    check_domain,
    check_inputs,
    check_rank,
)

if typing.TYPE_CHECKING:
    import numpy as np

__all__ = ["EXPERIMENT_PARAMS", "SPECTRUM_KINDS", "BASES", "ExperimentConfig", "spectrum_head"]

#: experiment -> the parameters it requires beyond the common ones; a config
#: may set a parameter only for the experiments that list it
EXPERIMENT_PARAMS = {
    "relative": ("k", "eps"),
    "gap": ("k", "eps"),
    "alignment": ("k", "eps"),
    "denoising": ("k", "nu"),
    "completion": ("k", "eps", "p", "t"),
    "covariance": ("k", "eps", "n_samples"),
    "decay_rate": ("delta_grid",),
}

#: spectrum kind -> the parameter it reads
SPECTRUM_KINDS = {"powerlaw": ("beta",), "exponential": ("c",), "explicit": ("values",)}

#: the bases a synthetic instance is built in: a Haar-random orthogonal one, or the identity
BASES = ("haar", "identity")


def check_basis(basis: str) -> None:
    """Raise ValueError unless ``basis`` is one of ``BASES``."""
    if basis not in BASES:
        raise ValueError(f"basis must be {' or '.join(map(repr, BASES))}, got {basis!r}")


def spectrum_head(
    kind: str,
    n: int,
    beta: float | None = None,
    c: float | None = None,
    values=None,
) -> float:
    """Check a stock spectrum's parameters and return sigma_1, building no array.

    The rules are :func:`synth.make_spectrum`'s: a known kind with exactly
    its parameter of ``SPECTRUM_KINDS`` set, finite ``beta`` > 0 or ``c`` > 0,
    and explicit ``values`` of length n, nonincreasing, finite and
    nonnegative.  sigma_1 is 1 for a power law, ``exp(-c)`` for exponential
    decay (0 once it underflows) and ``values[0]`` for an explicit spectrum.
    """
    check_inputs("spectrum kind", kind, SPECTRUM_KINDS, beta=beta, c=c, values=values)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "powerlaw":
        if not 0.0 < beta < math.inf:
            raise ValueError(f"powerlaw spectrum requires finite beta > 0, got {beta}")
        return 1.0
    if kind == "exponential":
        if not 0.0 < c < math.inf:
            raise ValueError(f"exponential spectrum requires finite c > 0, got {c}")
        return math.exp(-c)
    # an array's shape is its own; a sequence's is its length
    sig = [float(v) for v in values] if getattr(values, "ndim", 1) == 1 else []
    shape = getattr(values, "shape", (len(sig),))
    if shape != (n,):
        raise ValueError(f"expected {n} values, got shape {shape}")
    if any(b > a for a, b in zip(sig, sig[1:])):
        raise ValueError("explicit spectrum must be nonincreasing")
    if not all(math.isfinite(v) and v >= 0 for v in sig):
        raise ValueError("explicit spectrum must be finite and nonnegative")
    return sig[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    Scientific parameters are mandatory for the experiments that list them
    in ``EXPERIMENT_PARAMS`` and rejected for the others; only the bound
    constants carry defaults.  ``k_oracle`` (covariance only, in place of
    ``k``) selects the truncation rank per trial by minimizing the true error.
    """

    experiment: str
    n: int
    trials: int
    seed: int
    spectrum_kind: str
    basis: str
    spectrum_beta: float | None = None
    spectrum_c: float | None = None
    spectrum_values: tuple[float, ...] | None = None
    k: int | None = None
    k_oracle: bool = False
    eps: float | None = None
    nu: float | None = None
    p: float | None = None
    t: float | None = None
    n_samples: int | None = None
    delta_grid: tuple[float, ...] | None = None
    C_mc: float = DEFAULT_C_MC
    c_dn: float = DEFAULT_C_DN
    C_a: float = DEFAULT_C_A
    C_b: float = DEFAULT_C_B
    c_cov: float = DEFAULT_C_COV
    C1: float = DEFAULT_C1

    def __post_init__(self):
        params = [name for names in EXPERIMENT_PARAMS.values() for name in names]
        given = {name: getattr(self, name) for name in params}
        if self.k_oracle:  # k = oracle sets k, per trial
            given["k"] = "oracle"
        check_inputs("experiment", self.experiment, EXPERIMENT_PARAMS, **given)
        shared = ("n", "eps", "nu", "t", "n_samples", "C_mc", "c_dn", "C_a", "C_b", "c_cov", "C1")
        check_domain(**{name: getattr(self, name) for name in (*shared, "trials", "seed")})
        check_basis(self.basis)
        # the kind, its parameter, no other kind's parameter, and sigma_1 > 0
        head = spectrum_head(
            self.spectrum_kind,
            self.n,
            beta=self.spectrum_beta,
            c=self.spectrum_c,
            values=self.spectrum_values,
        )
        if head <= 0:
            name = "spectrum_c" if self.spectrum_kind == "exponential" else "spectrum_values"
            raise ValueError(f"{name} gives a leading eigenvalue of 0; it must be positive")
        if self.k_oracle and self.experiment != "covariance":
            raise ValueError("k = oracle is only valid for covariance")
        if self.k_oracle and self.k is not None:
            raise ValueError("k = oracle chooses k per trial; do not also set k")
        if self.k is not None:
            check_rank(self.k, self.n)
        check_domain(p=self.p)
        if self.experiment == "decay_rate":
            if self.spectrum_kind == "explicit":
                raise ValueError("decay_rate requires a powerlaw or exponential spectrum")
            if not self.delta_grid:
                raise ValueError("decay_rate requires a nonempty delta_grid")
            if any(d <= 0 for d in self.delta_grid):
                raise ValueError("delta_grid entries must be positive")

    def spectrum(self) -> np.ndarray:
        from .synth import make_spectrum

        return make_spectrum(
            self.spectrum_kind,
            self.n,
            beta=self.spectrum_beta,
            c=self.spectrum_c,
            values=self.spectrum_values,
        )
