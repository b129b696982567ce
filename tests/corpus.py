"""The input corpus: every input of a whole-program check, each declared once.

Each input is a name and a value or a builder.  The checks that run whole
commands read their inputs here, and keep no table of their own:

* ``scripts/output_digests.py``, the byte contract: every config, bound
  input, rejected input and file input it prints a digest of;
* ``tests/test_routes.py``, route independence: the configs, the file
  inputs and the named matrices;
* ``tests/test_cli.py``, the ``-W error`` sweeps: the named matrices, the
  float-edge spectra, the configs, the bound and rejected inputs and the
  malformed files;
* ``tests/test_io.py`` and ``tests/test_harness.py``: the malformed texts
  with the line each error carries, and the configs.

A new entry reaches every check that iterates its table; one that the
digest script reads moves ``tests/output_digests.txt``.  ``perfbench/``
keeps its own configs: they define the benchmark.

The module imports numpy and nothing of ``spectrunc``, and writes its files
with its own ``%.17g`` writer, so that two source trees compared by the
digest script read the same input bytes.  The digest script imports it
only after pinning the BLAS to one thread.
"""

from pathlib import Path

import numpy as np

# ------------------------------------------------------------------ configs

COMMON = {"trials": 3, "seed": 11, "basis": "haar"}
POWERLAW = {"spectrum": "powerlaw", "spectrum_beta": 1.0}
EXPONENTIAL = {"spectrum": "exponential", "spectrum_c": 0.3}
#: a value for every bound constant, each other than its default
CONSTANTS = {"C_mc": 2.5, "c_dn": 0.5, "C_a": 1.5, "C_b": 2.0, "c_cov": 3.0, "C1": 1.7}

#: config name -> its keys on top of COMMON; each experiment's own name is its config
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
    # k = 9, 32, 99, 332: ARPACK, ARPACK, evr, then evd on the last delta
    "decay_rate_identity_routes": {"experiment": "decay_rate", "n": 500, **POWERLAW,
                                   "basis": "identity",
                                   "delta_grid": "0.1, 0.03, 0.01, 0.003"},
}


def config(name: str, **over) -> dict:
    """``CONFIGS[name]`` on ``COMMON``, with ``over`` on top.

    A ``spectrum`` in ``over`` drops the config's own spectrum parameter.
    """
    cfg = {**COMMON, **CONFIGS[name]}
    if "spectrum" in over:
        cfg = {key: v for key, v in cfg.items() if not key.startswith("spectrum_")}
    return {**cfg, **over}


def listed(values) -> str:
    """A list value as a config file and ``synth --values`` read it."""
    return ", ".join(map(str, values))


def config_text(cfg: dict) -> str:
    """The ``key = value`` lines of ``cfg``, in its order."""
    return "".join(
        f"{key} = {listed(v) if isinstance(v, (list, tuple)) else v}\n" for key, v in cfg.items()
    )


# ------------------------------------------------------------------- bounds

#: name -> ``spectrunc bounds`` inputs, of the kind ``name`` unless they set one
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


def bounds_argv(name: str) -> list[str]:
    """The ``spectrunc bounds`` argv of ``BOUNDS[name]``: its kind, then one ``--set`` per input."""
    inputs = dict(BOUNDS[name])
    kind = inputs.pop("kind", name)
    sets = (a for key, v in inputs.items() for a in ("--set", f"{key}={v}"))
    return ["bounds", "--kind", kind, *sets]


# ----------------------------------------------------------------- rejected

#: rejected inputs: name -> a config, run through ``spectrunc run``, or an argv
REJECTED = {
    "unknown key": config("relative", widget=1),
    "wrong kind parameter": config("relative", spectrum_c=0.5),
    "another experiment's parameter": config("relative", nu=0.01),
    "covariance without k or n_samples": {
        key: v for key, v in config("covariance").items() if key not in ("k", "n_samples")
    },
    "increasing explicit spectrum": {**COMMON, "experiment": "relative", "n": 4,
                                     "spectrum": "explicit",
                                     "spectrum_values": "1, 2, 0.5, 0.25", "k": 1, "eps": 0.2},
    "zero sigma_1": config("gap", spectrum_c=750),
    "bad --set": ["bounds", "--kind", "relative", "--set", "k"],
    "unknown --kind": ["bounds", "--kind", "nope", "--set", "k=1"],
    "bounds without --set": ["bounds", "--kind", "relative"],
    "bounds unknown key": [*bounds_argv("powerlaw_rate"), "--set", "zeta=3"],
    "bounds keyword-only constant": [*bounds_argv("sampling_sqrt_k"), "--set", "C_mc=2"],
    "sampling input the regime does not use": [*bounds_argv("sampling_sqrt_k"), "--set", "k=1"],
}

# ---------------------------------------------------------- malformed files

#: file reader (a ``spectrunc.io`` function) -> the argv whose last flag reads its file
READER_ARGV = {
    "read_matrix_file": ["denoise", "--k", "1", "--matrix"],
    "read_observations_file": ["complete", "--k", "1", "--obs"],
    "read_samples_file": ["cov", "--k", "1", "--samples"],
    "read_config": ["run", "--config"],
}

#: the malformed files whose rejection the digest script prints: name -> (reader, text, line)
REJECTED_FILES = {
    "non-finite matrix entry": ("read_matrix_file",
                                "sym 3\n1 0 0\n0 1 0\n# last row\n0 0 -inf\n", 5),
    "short matrix row": ("read_matrix_file", "sym 3\r\n1 0 0\r\n0 1\r\n0 0 1\r\n", 3),
    "asymmetric pair": ("read_matrix_file",
                        "sym 3\n1 0.5 0.25\n0.5 1 2\n0.2500001 2.0 1\n", 2),
    "bad observation index": ("read_observations_file",
                              "obs 3 0.5 3\n1 1 5.0\n1 3 1.0\n3 2 4.0\n", 4),
    "wrong sample count": ("read_samples_file", "samples 4 2\n1 0\n0 1\n\n1 1\n", 1),
}

_SHORT4 = "0 0 1 0\n0 0 0\n"  # rows 3 and 4 of an order-4 file, row 4 short

_MATRIX, _OBS, _SAMPLES, _CONFIG = READER_ARGV  # the readers' names

#: the malformed texts, by what they show: group -> rows of ``(reader, text, line)``, or
#: ``(reader, text, line, pattern)`` where the error must also match ``pattern``; ``reader``
#: is a key of READER_ARGV and ``line`` the one its FormatError carries
MALFORMED = {
    "matrix_line_numbers": [
        (_MATRIX, "", None), (_MATRIX, "wat 2\n1 0\n0 1\n", 1), (_MATRIX, "sym 2\n1 0\n", 1),
        (_MATRIX, "sym 2\n1 0\n0 1 2\n", 3), (_MATRIX, "sym 2\n1 x\n0 1\n", 2),
        (_MATRIX, "sym 2\n1 inf\n0 1\n", 2),
        (_MATRIX, "sym 2\n1 2\n3 1\n", 2),  # asymmetry on the row of the upper entry
    ],
    # a bad or non-finite token in row 2 before a short row 4, and a bad index on one
    # line before a bad value on a later one
    "first_bad_row": [
        (_MATRIX, "sym 4\n1 0 0 0\n0 x 0 0\n" + _SHORT4, 3),
        (_MATRIX, "sym 4\n1 0 0 0\n0 1e999 0 0\n" + _SHORT4, 3),
        (_SAMPLES, "samples 4 4\n1 0 0 0\n0 nan 0 0\n" + _SHORT4, 3),
        (_OBS, "obs 3 0.5 2\n2 1 5.0\n1 1 x\n", 2),
    ],
    # a bad lower token (its mirror reads 2) before a bad upper token; an inf below the
    # diagonal is the inf above it, on the earlier line
    "matrix_mirrors": [
        (_MATRIX, "sym 3\n1 2 3\nx 1 0\n3 0 y\n", 3, "'x'"),
        (_MATRIX, "sym 3\n1 0 inf\n0 1 0\ninf 0 1\n", 2),
        (_MATRIX, "sym 3\n1 0 0\n0 1 0\n1e999 0 1\n", 4),
    ],
    # the row count is checked before the declared array could be allocated
    "huge_header": [
        (_MATRIX, "sym 100000000\n1 2\n", 1, "expected 100000000 data rows, found 1"),
        (_SAMPLES, "samples 10000000000 10000000000\n1 2\n", 1),
    ],
    # comment and blank lines between rows: the last row, made bad, keeps its line number
    "comment_lines": [
        (_MATRIX, "sym 2\n# first row\n1 0\n\n   \n# second row\n0 inf\n", 7),
        (_SAMPLES, "samples 2 1\n\n# a\n3\n# b\nfour\n", 6),
        (_OBS, "obs 2 0.5 2\n# i j value\n1 1 2.5\n\n2 1 -1\n", 5),
    ],
    "other": [
        (_MATRIX, "sym 1\n0x10\n", 2), (_MATRIX, "sym 1\nInfinity\n", 2),
        # shorter than its header with a bad line, and a line past its count
        (_MATRIX, "sym 3\n1 x 0\n0 1 0\n", 1), (_MATRIX, "sym 2\n1 0\n0 1\n0 0\n", 1),
        (_OBS, "obs 3 0.5 1\n2 1 5.0\n", 2), (_OBS, "obs 3 0.5 1\n1 4 5.0\n", 2),
        (_OBS, "obs 3 0.5 2\n1 1 5.0\n", 1), (_OBS, "obs 3 0.5 1\n1 1\n", 2),
        (_OBS, "obs 3 2.0 1\n1 1 5.0\n", 1), (_OBS, "obs 3 0.5 2\n1 1 5.0\n1.0 2 3\n", 3),
        (_OBS, "obs 3 0.5 1\n1 x 5.0\n", 2), (_OBS, "obs 3 0.5 2\n1 1 5.0\n1 2 inf\n", 3),
        # a repeated position names the repeating line and the pair
        (_OBS, "obs 3 0.5 3\n1 1 5.0\n1 2 1.0\n1 1 6.0\n", 4, r"\(1, 1\), first on line 2"),
        (_OBS, "obs 3 0.5 3\n1 1 5.0\n# c\n1 2 1.0\n1 1 6.0\n", 5),
        (_OBS, "obs 3 2.0 2\n1 1 5.0\n1 1 6.0\n", 1),  # the bad p first
        (_OBS, "obs 3 0.5 3\n1 1 x\n1 2 1\n", 1), (_OBS, "obs 3 0.5 1\n1 1 2.5\n1 2 1\n", 1),
        # an order or a count the header cannot hold, named on the header
        (_OBS, "obs 0 0.5 1\n1 1 1\n", 1, "n must be >= 1, got 0"),
        (_OBS, "obs 3 0.5 -1\n", 1, "observation count must be >= 0, got -1"),
        (_SAMPLES, "samples 2 2\n1 0\n", 1), (_SAMPLES, "samples 0 2\n", 1),
        (_SAMPLES, "samples 2 2\n1 0\n0 1 2\n", 3), (_SAMPLES, "samples 2 2\n1 0\n0 x\n", 3),
        (_SAMPLES, "samples 2 2\n1 nan\n0 1\n", 2), (_SAMPLES, "samples 3 2\n1 x\n3 4\n", 1),
        (_SAMPLES, "samples 1 2\n1 2\n3 4\n", 1),
        (_CONFIG, "experiment relative\n", 1, "expected 'key = value'"),
    ],
    "rejected_files": list(REJECTED_FILES.values()),
}


def malformed(reader: str) -> list[tuple]:
    """The rows of every MALFORMED group whose reader is ``reader``."""
    return [row for rows in MALFORMED.values() for row in rows if row[0] == reader]


#: line ends other than ``\n``: name -> the separators a file's lines end with, in turn
LINE_ENDS = {"crlf": ["\r\n"], "ff u2028": ["\x0c", "\u2028"]}

# ----------------------------------------------------------------- matrices


def tied_spectrum(n: int) -> list[float]:
    """Three tied top eigenvalues 1, then n - 3 falling from 0.5 to 0.01."""
    return [1.0, 1.0, 1.0, *np.linspace(0.5, 0.01, n - 3).tolist()]


def _repeated_blocks(n: int) -> np.ndarray:
    """n / 50 copies of one symmetric 50 x 50 Gaussian block: every eigenvalue repeats."""
    B = np.random.default_rng(0).standard_normal((50, 50))
    return np.kron(np.eye(n // 50), (B + B.T) / 2.0)


def _path_laplacian_plus_identity(n: int) -> np.ndarray:
    ones = np.ones(n - 1)
    return np.diag(np.r_[2.0, 3 * ones[1:], 2.0]) - np.diag(ones, 1) - np.diag(ones, -1)


def _infinite_eigenvalue(n: int) -> np.ndarray:
    """The identity with a 2 x 2 block of 1.5e308: its top eigenvalue, 3e308, overflows."""
    A = np.eye(n)
    A[:2, :2] = 1.5e308
    return A


#: ROADMAP item 1's corpus, on which Lanczos may miss copies of a repeated
#: eigenvalue: name -> the matrix of order n
LANCZOS_MATRICES = {
    "tied_diagonal": lambda n: np.diag(tied_spectrum(n)),
    "repeated_blocks": _repeated_blocks,
    "path_laplacian_plus_identity": _path_laplacian_plus_identity,
    "cycle_laplacian": lambda n: (2 * np.eye(n) - np.roll(np.eye(n), 1, axis=1)
                                  - np.roll(np.eye(n), -1, axis=1)),
    "zero": lambda n: np.zeros((n, n)),
}

#: explicit spectra whose trials leave the float range: name -> the n values.  A Haar
#: trial's error is about 1e284 against a tail of 3e-300, and the top pair's squares
#: and sums overflow
EDGE_SPECTRA = {
    "tiny_tail": lambda n: [1e300, *[1e-300] * (n - 1)],
    "near_max": lambda n: [1.7e308, 1e308, *[1.0] * (n - 2)],
}

#: matrices at the ends of the float range: name -> the matrix of order n
FLOAT_EDGE_MATRICES = {
    # rank one, lambda_1 = n * scale; an entry of 1e-320 keeps about 11 significant bits
    "subnormal": lambda n, scale=1e-320: np.full((n, n), scale),
    "near_max": lambda n: np.diag(EDGE_SPECTRA["near_max"](n)),
    "infinite_eigenvalue": _infinite_eigenvalue,
}

MATRICES = {**LANCZOS_MATRICES, **FLOAT_EDGE_MATRICES}

#: each named matrix at the order the checks run it: item 1's past linalg.ARPACK_MIN_N,
#: on the Lanczos routes, and the float-edge ones small
ORDERS = {**dict.fromkeys(LANCZOS_MATRICES, 300), **dict.fromkeys(FLOAT_EDGE_MATRICES, 6)}

# -------------------------------------------------------------- file inputs

#: file-command inputs: order -> rank k; the files are drawn from seed [FILES_SEED, n]
FILE_ORDERS = {40: 3, 200: 5}
FILES_SEED = 11
FILES_EPS = 0.2
#: the rate at which A.obs keeps each upper entry
OBS_P = 0.6


def powerlaw_inputs(n: int, k: int) -> tuple:
    """``(A, A_hat, seen, X)`` drawn from seed ``[FILES_SEED, n]``.

    ``A`` is a Haar power-law matrix, ``A_hat`` adds a symmetric perturbation
    at half the relative-regime allowance ``FILES_EPS**2 * sigma_{k+1}`` (which
    verify applies), ``seen`` keeps each upper entry at rate ``OBS_P``, and
    ``X`` holds 2n samples of covariance ``A``.
    """
    rng = np.random.default_rng([FILES_SEED, n])
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.where(np.diag(R) < 0, -1.0, 1.0)
    sig = 1.0 / np.arange(1, n + 1)
    A = (Q * sig) @ Q.T
    A = (A + A.T) / 2.0
    M = rng.standard_normal((n, n))
    E = (M + M.T) / 2.0
    E *= 0.5 * FILES_EPS**2 * sig[k] / np.max(np.abs(np.linalg.eigvalsh(E)))
    seen = rng.random(n * (n + 1) // 2) < OBS_P
    X = rng.standard_normal((2 * n, n)) @ (Q * np.sqrt(sig)).T
    return A, A + E, seen, X


def matrix_inputs(A: np.ndarray) -> tuple:
    """``(A, A, seen, A)``: ``A`` as its own perturbation and its own n samples."""
    n = A.shape[0]
    return A, A, np.random.default_rng(0).random(n * (n + 1) // 2) < OBS_P, A


def _rows_text(header: str, rows) -> str:
    """``header``, then one line per row with every entry as ``%.17g``."""
    return "".join([header + "\n", *(" ".join("%.17g" % v for v in row) + "\n" for row in rows)])


def sym_text(A: np.ndarray) -> str:
    """The ``sym n`` text of a square matrix."""
    return _rows_text(f"sym {A.shape[0]}", A.tolist())


def obs_text(n: int, p: float, entries: list) -> str:
    """The ``obs n p count`` text of ``entries``, each ``(i, j, value)`` with 1-based indices."""
    return f"obs {n} {p} {len(entries)}\n" + "".join(f"{i} {j} {v:.17g}\n" for i, j, v in entries)


def samples_text(X: np.ndarray) -> str:
    """The ``samples N n`` text of the rows of ``X``."""
    return _rows_text(f"samples {X.shape[0]} {X.shape[1]}", X.tolist())


def write_inputs(work: Path, A, A_hat, seen, X) -> dict[str, str]:
    """Write ``A.sym``, ``Ahat.sym``, ``A.obs`` and ``X.samples`` into ``work``; name -> path.

    ``A.obs`` holds the upper entries of ``A`` where ``seen`` (in
    ``np.triu_indices`` order) is true, observed at rate ``OBS_P``.
    """
    n = A.shape[0]
    work.mkdir(parents=True, exist_ok=True)
    iu, ju = np.triu_indices(n)
    obs = zip((iu[seen] + 1).tolist(), (ju[seen] + 1).tolist(), A[iu[seen], ju[seen]].tolist())
    texts = {
        "A.sym": sym_text(A),
        "Ahat.sym": sym_text(A_hat),
        "A.obs": obs_text(n, OBS_P, list(obs)),
        "X.samples": samples_text(X),
    }
    for name, text in texts.items():
        (work / name).write_text(text)
    return {name: str(work / name) for name in texts}
