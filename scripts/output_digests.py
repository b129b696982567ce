"""Print one sha256 digest per spectrunc output, to compare two source trees.

Usage::

    python scripts/output_digests.py SRC

``SRC`` is the directory that holds the ``spectrunc`` package (``src`` in a
checkout).  The script pins the BLAS to one thread before numpy loads, then
runs in-process:

* ``spectrunc run`` in JSON and CSV for every experiment, including
  covariance with ``k = oracle`` (once where the oracle keeps every rank),
  an identity-basis exponential ``decay_rate``, and a variant of each config
  that overrides every bound constant;
* ``spectrunc bounds`` in JSON and CSV for all 11 kinds, with every
  sampling regime and both covariance modes.

Every ``run`` config has n <= 120, below ``linalg.ARPACK_MIN_N``, so the
digests cover the dense eigensolver routes only; the Lanczos routes (ARPACK)
are covered by the seed-0 reference gate of ``perfbench``.

It prints ``<sha256>  <output>`` per output.  Report bytes are reproducible
only for a fixed numpy version, BLAS build and BLAS thread count, so compare
two trees on one host::

    python scripts/output_digests.py /path/to/parent/src > parent.txt
    python scripts/output_digests.py src > change.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io as _io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

COMMON = {"trials": 3, "seed": 11, "basis": "haar"}
POWERLAW = {"spectrum": "powerlaw", "spectrum_beta": 1.0}
EXPONENTIAL = {"spectrum": "exponential", "spectrum_c": 0.3}
CONSTANTS = {"C_mc": 2.5, "c_dn": 0.5, "C_a": 1.5, "C_b": 2.0, "c_cov": 3.0, "C1": 1.7}

CONFIGS = {
    "relative": {"experiment": "relative", "n": 40, **POWERLAW, "k": 3, "eps": 0.2},
    "gap": {"experiment": "gap", "n": 40, **EXPONENTIAL, "k": 3, "eps": 0.1},
    "alignment": {"experiment": "alignment", "n": 40, **POWERLAW, "k": 3, "eps": 0.2},
    "denoising": {"experiment": "denoising", "n": 40, **POWERLAW, "k": 3, "nu": 0.01},
    "completion": {"experiment": "completion", "n": 40, **POWERLAW, "k": 2, "eps": 0.2,
                   "p": 0.6, "t": 0.1},
    "covariance": {"experiment": "covariance", "n": 30, **EXPONENTIAL, "k": 3, "eps": 0.25,
                   "n_samples": 200},
    "covariance_oracle": {"experiment": "covariance", "n": 20, **EXPONENTIAL, "k": "oracle",
                          "eps": 0.25, "n_samples": 60},
    # a flat spectrum well sampled: the oracle keeps all n ranks (zero tail)
    "covariance_oracle_full": {"experiment": "covariance", "n": 4, "spectrum": "explicit",
                               "spectrum_values": "1, 1, 1, 1", "k": "oracle", "eps": 0.25,
                               "n_samples": 2000},
    "decay_rate": {"experiment": "decay_rate", "n": 100, **POWERLAW,
                   "delta_grid": "0.1, 0.03"},
    "decay_rate_identity_exponential": {"experiment": "decay_rate", "n": 120,
                                        "spectrum": "exponential", "spectrum_c": 0.5,
                                        "basis": "identity", "delta_grid": "1e-8 1e-9 1e-10"},
}

BOUNDS = {
    "relative": {"k": 3, "eps": 0.2, "tail_F": 0.5, "tail_2": 0.25},
    "relative_measured": {"kind": "relative", "k": 3, "eps": 0.2, "tail_F": 0.5,
                          "tail_2": 0.25, "perturbation_2": 0.02},
    "gap": {"k": 2, "eps": 0.1, "gap": 0.3, "tail_F": 0.6, "perturbation_2": 0.01},
    "additive": {"k": 4, "delta": 0.05, "tail_F": 0.4, "head_F": 2.0},
    "denoising": {"nu": 0.01, "sigma_k1": 0.25, "k": 3, "tail_F": 0.5},
    "sampling_sqrt_k": {"kind": "sampling", "regime": "sqrt_k", "mu0": 2.0, "norm_F": 1.5,
                        "n": 64, "t": 0.1, "sigma_k1": 0.2},
    "sampling_relative": {"kind": "sampling", "regime": "relative", "mu0": 2.0,
                          "norm_F": 1.5, "n": 64, "t": 0.1, "sigma_k1": 0.2, "eps": 0.2,
                          "k": 3},
    "sampling_gap": {"kind": "sampling", "regime": "gap", "mu0": 2.0, "norm_F": 1.5,
                     "n": 64, "t": 0.1, "gap": 0.1, "eps": 0.2, "k": 3},
    "covariance_relative": {"kind": "covariance", "mode": "relative", "r_e": 3.0,
                            "eps": 0.2, "k": 2, "n_samples": 10000, "gamma_k": 2.0},
    "covariance_gap": {"kind": "covariance", "mode": "gap", "r_e": 3.0, "eps": 0.2, "k": 2,
                       "n_samples": 10000, "norm_2": 2.0, "gap": 0.5},
    "covariance_rates": {"norm_2": 2.0, "r_e": 3.0, "n_samples": 500, "n": 50},
    "powerlaw_cutoff": {"delta": 0.01, "beta": 1.0, "n": 1000},
    "powerlaw_cutoff_C1": {"kind": "powerlaw_cutoff", "delta": 0.01, "beta": 1.0,
                           "n": 1000, "C1": 2.0},
    "powerlaw_rate": {"delta": 0.01, "beta": 1.5, "n": 1000},
    "exponential_cutoff": {"delta": 1e-8, "c": 0.1, "n": 500},
    "exponential_rate": {"delta": 1e-8, "c": 0.1, "n": 500},
}


def _cli(main, argv: list[str], out: Path) -> bytes:
    err = _io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"spectrunc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.read_bytes()


def digests(work: Path):
    """(output name, sha256) for every output, in a fixed order."""
    from spectrunc.cli import main

    configs = dict(CONFIGS)
    configs.update({f"{name}+constants": {**cfg, **CONSTANTS} for name, cfg in CONFIGS.items()})
    for name, cfg in configs.items():
        path = work / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in {**COMMON, **cfg}.items()))
        for fmt in ("json", "csv"):
            data = _cli(main, ["run", "--config", str(path), "--format", fmt], work / "out")
            yield f"run {name} {fmt}", hashlib.sha256(data).hexdigest()
    for name, inputs in BOUNDS.items():
        inputs = dict(inputs)
        kind = inputs.pop("kind", name)
        sets = [a for key, v in inputs.items() for a in ("--set", f"{key}={v}")]
        for fmt in ("json", "csv"):
            data = _cli(main, ["bounds", "--kind", kind, *sets, "--format", fmt], work / "out")
            yield f"bounds {name} {fmt}", hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/output_digests.py SRC", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import spectrunc

    if not Path(spectrunc.__file__).resolve().is_relative_to(src):
        print(f"spectrunc imported from {spectrunc.__file__}, not from {src}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
