"""Print one sha256 digest per spectrunc output, to compare two source trees.

Usage::

    python scripts/output_digests.py SRC

``SRC`` is the directory that holds the ``spectrunc`` package (``src`` in a
checkout).  The script pins the BLAS to one thread before numpy loads, then
runs in-process:

* ``spectrunc run`` in JSON and CSV for every experiment, including
  covariance with ``k = oracle`` (once where the oracle keeps every rank),
  an identity-basis exponential ``decay_rate``, alignment and denoising at
  n = 200, and a variant of each config that overrides every bound constant;
* ``spectrunc bounds`` in JSON and CSV for all 11 kinds, with every
  sampling regime and both covariance modes;
* the file commands at n = 40 and n = 200: ``synth`` (Haar and identity
  basis), ``denoise``, ``complete``, ``cov --center``, and ``verify`` in
  JSON and CSV.  The script writes their input files itself (a Haar
  power-law matrix, that matrix plus a small symmetric perturbation, its
  observations at p = 0.6 and 2n samples) from its own generator and its
  own ``%.17g`` writer, so both trees read the same bytes;
* rejected inputs: ``run`` of configs with an unknown key, a parameter the
  spectrum kind does not read, an increasing explicit spectrum and a zero
  sigma_1, and ``bounds`` with a malformed ``--set`` and an unknown
  ``--kind``.  Their digest covers the exit code and stderr, so a moved
  check cannot change an error message unnoticed.

The n = 200 configs and file inputs sit at ``linalg.ARPACK_MIN_N``, so they
reach the Lanczos routes: ARPACK top-k in the alignment step and in
``denoise``, and ``spectral_norm_sym`` for the perturbation scale, the
noise norm, the spectral error and ``check_alignment``'s proximity check.
Every other ``run`` config has n <= 120 and takes the dense routes.

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
os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width

COMMON = {"trials": 3, "seed": 11, "basis": "haar"}
POWERLAW = {"spectrum": "powerlaw", "spectrum_beta": 1.0}
EXPONENTIAL = {"spectrum": "exponential", "spectrum_c": 0.3}
CONSTANTS = {"C_mc": 2.5, "c_dn": 0.5, "C_a": 1.5, "C_b": 2.0, "c_cov": 3.0, "C1": 1.7}

CONFIGS = {
    "relative": {"experiment": "relative", "n": 40, **POWERLAW, "k": 3, "eps": 0.2},
    "gap": {"experiment": "gap", "n": 40, **EXPONENTIAL, "k": 3, "eps": 0.1},
    "alignment": {"experiment": "alignment", "n": 40, **POWERLAW, "k": 3, "eps": 0.2},
    "denoising": {"experiment": "denoising", "n": 40, **POWERLAW, "k": 3, "nu": 0.01},
    # n = linalg.ARPACK_MIN_N: the Lanczos routes
    "alignment_lanczos": {"experiment": "alignment", "n": 200, **POWERLAW, "k": 5,
                          "eps": 0.1},
    "denoising_lanczos": {"experiment": "denoising", "n": 200, **POWERLAW, "k": 5,
                          "nu": 0.01},
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


#: rejected inputs: name -> a config, run through ``spectrunc run``, or an argv
REJECTED = {
    "unknown key": {**CONFIGS["relative"], "widget": 1},
    "wrong kind parameter": {**CONFIGS["relative"], "spectrum_c": 0.5},
    "increasing explicit spectrum": {"experiment": "relative", "n": 4, "spectrum": "explicit",
                                     "spectrum_values": "1, 2, 0.5, 0.25", "k": 1,
                                     "eps": 0.2},
    "zero sigma_1": {**CONFIGS["gap"], "spectrum_c": 750},
    "bad --set": ["bounds", "--kind", "relative", "--set", "k"],
    "unknown --kind": ["bounds", "--kind", "nope", "--set", "k=1"],
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


def rejection_digests(work: Path):
    """(input name, sha256 of the exit code and stderr) for every rejected input."""
    from spectrunc.cli import main

    for name, spec in REJECTED.items():
        argv = spec
        if isinstance(spec, dict):
            argv = ["run", "--config", str(work / "rejected.cfg")]
            text = "".join(f"{key} = {value}\n" for key, value in {**COMMON, **spec}.items())
            (work / "rejected.cfg").write_text(text)
        err = _io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(_io.StringIO()):
            code = main(argv)
        if code == 0:
            raise SystemExit(f"spectrunc {' '.join(argv)} was accepted")
        yield f"rejected {name}", hashlib.sha256(f"{code}\n{err.getvalue()}".encode()).hexdigest()


#: file-command inputs: order -> rank k; the files are drawn from seed [FILES_SEED, n]
FILE_ORDERS = {40: 3, 200: 5}
FILES_SEED = 11
FILES_EPS = 0.2


def _rows_text(header: str, rows) -> str:
    """``header``, then one line per row with every entry as ``%.17g``."""
    return "".join([header + "\n", *(" ".join("%.17g" % v for v in row) + "\n" for row in rows)])


def _write_file_inputs(work: Path, n: int, k: int) -> dict[str, Path]:
    """The matrix, perturbed matrix, observation and sample files at order n."""
    import numpy as np

    rng = np.random.default_rng([FILES_SEED, n])
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.where(np.diag(R) < 0, -1.0, 1.0)
    sig = 1.0 / np.arange(1, n + 1)
    A = (Q * sig) @ Q.T
    A = (A + A.T) / 2.0
    M = rng.standard_normal((n, n))
    E = (M + M.T) / 2.0
    # half the relative-regime allowance eps^2 * sigma_{k+1}: verify applies
    E *= 0.5 * FILES_EPS**2 * sig[k] / np.max(np.abs(np.linalg.eigvalsh(E)))
    iu, ju = np.triu_indices(n)
    seen = rng.random(iu.size) < 0.6
    X = rng.standard_normal((2 * n, n)) @ (Q * np.sqrt(sig)).T
    paths = {name: work / f"{name}{n}" for name in ("A.sym", "Ahat.sym", "A.obs", "X.samples")}
    paths["A.sym"].write_text(_rows_text(f"sym {n}", A.tolist()))
    paths["Ahat.sym"].write_text(_rows_text(f"sym {n}", (A + E).tolist()))
    obs = zip((iu[seen] + 1).tolist(), (ju[seen] + 1).tolist(), A[iu[seen], ju[seen]].tolist())
    paths["A.obs"].write_text(
        f"obs {n} 0.6 {int(seen.sum())}\n" + "".join(f"{i} {j} {v:.17g}\n" for i, j, v in obs)
    )
    paths["X.samples"].write_text(_rows_text(f"samples {2 * n} {n}", X.tolist()))
    return paths


def file_digests(work: Path):
    """(output name, sha256) for the file commands at each order in FILE_ORDERS."""
    from spectrunc.cli import main

    for n, k in FILE_ORDERS.items():
        paths = {name: str(p) for name, p in _write_file_inputs(work, n, k).items()}
        commands = {
            "synth haar": ["synth", "--kind", "powerlaw", "--beta", "1", "--n", str(n),
                           "--basis", "haar", "--seed", str(FILES_SEED)],
            "synth identity": ["synth", "--kind", "exponential", "--c", "0.3", "--n", str(n),
                               "--basis", "identity"],
            "denoise": ["denoise", "--matrix", paths["Ahat.sym"], "--k", str(k)],
            "complete": ["complete", "--obs", paths["A.obs"], "--k", str(k)],
            "cov --center": ["cov", "--samples", paths["X.samples"], "--k", str(k), "--center"],
            **{
                f"verify {fmt}": ["verify", "--matrix", paths["A.sym"], "--perturbed",
                                  paths["Ahat.sym"], "--k", str(k), "--eps", str(FILES_EPS),
                                  "--format", fmt]
                for fmt in ("json", "csv")
            },
        }
        for name, argv in commands.items():
            data = _cli(main, argv, work / "out")
            yield f"{name} n={n}", hashlib.sha256(data).hexdigest()


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
        work = Path(tmp)
        for name, digest in [*digests(work), *file_digests(work), *rejection_digests(work)]:
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
