"""The run config: what ``spectrunc run`` reads, checked without numpy.

:class:`ExperimentConfig` is a validated experiment description,
``EXPERIMENT_PARAMS`` lists the parameters each experiment takes, and
:func:`parse_config` / :func:`read_config` read the ``key = value`` text
format.  Nothing here builds an array: :func:`spectrum_head` checks a stock
spectrum's parameters and returns its leading eigenvalue from scalars, and
:func:`synth.make_spectrum` runs the same check before it builds the
spectrum.  So a config is accepted or rejected, with the same message, before
numpy is loaded.  ``harness`` and ``io`` re-export these names.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import dataclass
from typing import Any

from .bounds import (
    DEFAULT_C1,
    DEFAULT_C_A,
    DEFAULT_C_B,
    DEFAULT_C_COV,
    DEFAULT_C_DN,
    DEFAULT_C_MC,
    check_domain,
)

if typing.TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXPERIMENT_PARAMS",
    "ExperimentConfig",
    "FormatError",
    "spectrum_head",
    "parse_value",
    "parse_config",
    "read_config",
]

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


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


#: the characters ``str.splitlines`` ends a line at
_LINE_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: characters read from a file at a time
_BLOCK = 1 << 16


def _line_blocks(source: str | typing.TextIO) -> typing.Iterator[list[str]]:
    """The lines of ``source``, a text or an open text file, a block at a time.

    A file is read ``_BLOCK`` characters at a time, and a line cut by the
    end of a block is carried into the next, so the lines are the ones
    ``str.splitlines`` gives for the whole text: a form feed, ``\\u2028`` or
    another separator it knows ends a line in a file too.  The file must
    translate newlines, as ``open`` does by default, so that no ``\\r\\n``
    is cut between two blocks.
    """
    if isinstance(source, str):
        yield source.splitlines()
        return
    tail = ""
    for block in iter(lambda: source.read(_BLOCK), ""):
        lines = (tail + block).splitlines()
        tail = "" if block[-1] in _LINE_ENDS else lines.pop()
        yield lines
    if tail:
        yield [tail]


def _data_lines(source: str | typing.TextIO) -> typing.Iterator[tuple[int, str]]:
    """(line_number, stripped line) for every non-blank, non-comment line of ``source``."""
    ln = 0
    for lines in _line_blocks(source):
        for raw in lines:
            ln += 1
            s = raw.strip()
            if s and not s.startswith("#"):
                yield ln, s


def spectrum_head(
    kind: str,
    n: int,
    beta: float | None = None,
    c: float | None = None,
    values=None,
) -> float:
    """Check a stock spectrum's parameters and return sigma_1, building no array.

    The rules are :func:`synth.make_spectrum`'s: a known kind, no parameter
    the kind does not read, finite ``beta`` > 0 or ``c`` > 0, and explicit
    ``values`` of length n, nonincreasing, finite and nonnegative.  sigma_1
    is 1 for a power law, ``exp(-c)`` for exponential decay (0 once it
    underflows) and ``values[0]`` for an explicit spectrum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    reads = {"powerlaw": "beta", "exponential": "c", "explicit": "values"}.get(kind)
    if reads is None:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    given = {"beta": beta, "c": c, "values": values}
    unused = [name for name, v in given.items() if v is not None and name != reads]
    if unused:
        raise ValueError(f"{kind} spectrum does not use {', '.join(unused)}")
    if kind == "powerlaw":
        if beta is None or not 0.0 < beta < math.inf:
            raise ValueError(f"powerlaw spectrum requires finite beta > 0, got {beta}")
        return 1.0
    if kind == "exponential":
        if c is None or not 0.0 < c < math.inf:
            raise ValueError(f"exponential spectrum requires finite c > 0, got {c}")
        return math.exp(-c)
    if values is None:
        raise ValueError("explicit spectrum requires values")
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
    in ``EXPERIMENT_PARAMS``; only the bound constants carry defaults.
    ``k_oracle`` (covariance only, in place of ``k``) selects the truncation
    rank per trial by minimizing the true error.
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
        if self.experiment not in EXPERIMENT_PARAMS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {tuple(EXPERIMENT_PARAMS)}"
            )
        shared = ("n", "eps", "nu", "t", "n_samples", "C_mc", "c_dn", "C_a", "C_b", "c_cov", "C1")
        check_domain(**{name: getattr(self, name) for name in shared})
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.basis not in ("haar", "identity"):
            raise ValueError(f"basis must be 'haar' or 'identity', got {self.basis!r}")
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
        ex = self.experiment
        if self.k_oracle and ex != "covariance":
            raise ValueError("k = oracle is only valid for covariance")
        if self.k_oracle and self.k is not None:
            raise ValueError("k = oracle chooses k per trial; do not also set k")
        for name in EXPERIMENT_PARAMS[ex]:
            if getattr(self, name) is None and not (name == "k" and self.k_oracle):
                raise ValueError(f"experiment {ex!r} requires {name}")
        if self.k is not None and not 1 <= self.k <= self.n - 1:
            raise ValueError(f"k must lie in [1, {self.n - 1}], got {self.k}")
        check_domain(p=self.p)
        if ex == "decay_rate":
            if self.spectrum_kind == "explicit":
                raise ValueError("decay_rate requires a powerlaw or exponential spectrum")
            if not self.delta_grid:
                raise ValueError("decay_rate requires a nonempty delta_grid")
            if any(d <= 0 for d in self.delta_grid):
                raise ValueError("delta_grid entries must be positive")
            if self.k is not None:
                raise ValueError("decay_rate derives k from the cutoff rule; do not set k")

    def spectrum(self) -> np.ndarray:
        from .synth import make_spectrum

        return make_spectrum(
            self.spectrum_kind,
            self.n,
            beta=self.spectrum_beta,
            c=self.spectrum_c,
            values=self.spectrum_values,
        )


def parse_value(text: str, annotation: Any) -> Any:
    """Convert one config or ``--set`` value by its parameter's type annotation.

    ``X | None`` converts as ``X``; a tuple of floats accepts comma- or
    space-separated values.  Floats, alone or in a tuple, must be finite.
    """
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    if typing.get_origin(annotation) is tuple:
        value = floats = tuple(float(v) for v in text.replace(",", " ").split())
    else:
        value = annotation(text)
        floats = (value,) if annotation is float else ()
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{text!r} is not finite")
    return value


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` experiment configuration text.

    The keys are the :class:`ExperimentConfig` fields (``spectrum`` for
    ``spectrum_kind``, ``k = oracle`` for ``k_oracle``); an experiment takes
    only its own parameters from ``EXPERIMENT_PARAMS``.  Fields without a
    default are mandatory.  Unknown and duplicate keys are rejected by name.
    """
    return _parse_config(text)


def read_config(path) -> ExperimentConfig:
    """Read a config file line by line, as :func:`parse_config` reads text."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_config(fh)


def _parse_config(source: str | typing.TextIO) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for ln, s in _data_lines(source):
        joined = " ".join(s.split())
        if "=" not in joined:
            raise FormatError("expected 'key = value'", ln)
        key, _, value = joined.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise FormatError("expected 'key = value'", ln)
        if key in raw:
            raise FormatError(f"duplicate key {key!r}", ln)
        raw[key] = value

    if "experiment" not in raw:
        raise FormatError("missing mandatory key 'experiment'")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENT_PARAMS:
        raise FormatError(
            f"unknown experiment {experiment!r}; expected one of {sorted(EXPERIMENT_PARAMS)}"
        )
    # other experiments' parameters are not keys here; k_oracle is spelled k = oracle
    others = set().union(*EXPERIMENT_PARAMS.values()) - set(EXPERIMENT_PARAMS[experiment])
    skipped = {"k_oracle"} | others
    fields = {
        "spectrum" if f.name == "spectrum_kind" else f.name: f
        for f in dataclasses.fields(ExperimentConfig)
        if f.name not in skipped
    }
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise FormatError(
            f"unknown key(s) for experiment {experiment!r}: {', '.join(unknown)}"
        )
    missing = sorted(
        key for key, f in fields.items() if f.default is dataclasses.MISSING and key not in raw
    )
    if missing:
        raise FormatError(f"missing mandatory key(s): {', '.join(missing)}")

    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key == "k" and value == "oracle":
            kwargs["k_oracle"] = True
            continue
        name = fields[key].name
        try:
            kwargs[name] = parse_value(value, _CONFIG_TYPES[name])
        except ValueError as e:
            raise FormatError(f"invalid value for {key!r}: {e}") from None
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as e:
        raise FormatError(str(e)) from None
