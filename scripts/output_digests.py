"""Print one sha256 digest per spectrunc output, to compare two source trees.

Usage::

    python scripts/output_digests.py SRC

``SRC`` is the directory that holds the ``spectrunc`` package (``src`` in a
checkout).  The script pins the BLAS to one thread before numpy loads, then
runs in-process, on inputs it reads from ``tests/corpus.py``:

* ``spectrunc run`` in JSON and CSV for every experiment, including
  covariance with ``k = oracle`` (once where the oracle keeps every rank),
  an identity-basis exponential ``decay_rate``, alignment and denoising at
  n = 200, an identity-basis power-law ``decay_rate`` at n = 500 whose
  delta grid reaches every ``top_eigenpairs`` route (k = 9, 32, 99, 332:
  ARPACK, ARPACK, ``evr``, ``evd``), and a variant of each config that
  overrides every bound constant;
* ``spectrunc bounds`` in JSON and CSV for all 11 kinds, with every
  sampling regime and both covariance modes;
* through the Python API, not the CLI: the relative report (JSON and CSV)
  of an ``ExperimentConfig`` whose numbers are numpy scalars, and the
  ``relative_measured`` bound (JSON and CSV) called with numpy scalars, so
  the writers also meet values that are not Python numbers;
* the file commands at n = 40 and n = 200: ``synth`` (Haar and identity
  basis), ``denoise``, ``complete``, ``cov --center``, and ``verify`` in
  JSON and CSV, and ``denoise`` once more writing to stdout.  Their input
  files (a Haar power-law matrix, that matrix plus a small symmetric
  perturbation, its observations at p = 0.6 and 2n samples) are drawn by
  the corpus with numpy alone and written by its own ``%.17g`` writer, so
  both trees read the same bytes;
* ``run`` of the relative config and ``denoise`` of the n = 40 perturbed
  matrix once more, from files whose lines end with ``\\r\\n``, and with form
  feed and ``\\u2028`` in turn;
* ``sym`` files across the chunks in which the reader and writer keep each
  column's mirror text (32 rows each): ``denoise`` and ``verify`` (JSON)
  of an n = 75 perturbed matrix whose rows 40, 70 and 74 spell lower
  entries otherwise than their mirrors (``%.20e`` for ``%.17g``, ``-0``
  against ``0``, and a value 1e-13 off, inside the symmetry tolerance),
  and ``synth`` at n = 75;
* the corpus's rejected inputs: the configs (run by ``run``) and ``bounds``
  argvs of ``REJECTED``, and the malformed files of ``REJECTED_FILES``.
  Their digest covers the exit code and stderr, so a moved check cannot
  change an error message unnoticed.

The n = 200 configs and file inputs sit at ``linalg.ARPACK_MIN_N``, so they
reach the Lanczos routes: ARPACK top-k in the alignment step and in
``denoise``, and ``spectral_norm_sym`` for the perturbation scale, the
noise norm, the spectral error and ``check_alignment``'s proximity check.
Every other ``run`` config but the n = 500 ``decay_rate`` has n <= 120 and
takes the dense routes.

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

# the inputs, after the pin: the corpus imports numpy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from corpus import (  # noqa: E402
    BOUNDS, CONFIGS, CONSTANTS, FILE_ORDERS, FILES_EPS, FILES_SEED, LINE_ENDS, READER_ARGV,
    REJECTED, REJECTED_FILES, bounds_argv, config, config_text, powerlaw_inputs, write_inputs,
)


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

    configs = {name: config(name) for name in CONFIGS}
    configs.update({f"{name}+constants": {**cfg, **CONSTANTS} for name, cfg in configs.items()})
    for name, cfg in configs.items():
        path = work / "run.cfg"
        path.write_text(config_text(cfg))
        for fmt in ("json", "csv"):
            data = _cli(main, ["run", "--config", str(path), "--format", fmt], work / "out")
            yield f"run {name} {fmt}", hashlib.sha256(data).hexdigest()
    for name in BOUNDS:
        for fmt in ("json", "csv"):
            data = _cli(main, [*bounds_argv(name), "--format", fmt], work / "out")
            yield f"bounds {name} {fmt}", hashlib.sha256(data).hexdigest()


def rejection_digests(work: Path):
    """(input name, sha256 of the exit code and stderr) for every rejected input."""
    from spectrunc.cli import main

    files = {name: (READER_ARGV[reader], text)
             for name, (reader, text, _) in REJECTED_FILES.items()}
    for name, spec in {**REJECTED, **files}.items():
        if isinstance(spec, dict):  # a config: its text, read by ``run --config``
            spec = (READER_ARGV["read_config"], config_text(spec))
        argv = spec
        if isinstance(spec, tuple):
            argv, text = spec
            (work / "rejected.txt").write_bytes(text.encode())
            argv = [*argv, str(work / "rejected.txt")]
        err = _io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(_io.StringIO()):
            code = main(argv)
        if code == 0:
            raise SystemExit(f"spectrunc {' '.join(argv)} was accepted")
        yield f"rejected {name}", hashlib.sha256(f"{code}\n{err.getvalue()}".encode()).hexdigest()


def _file_inputs(work: Path, n: int, k: int) -> dict[str, str]:
    """The corpus's power-law file inputs at order n, written in their own directory."""
    return write_inputs(work / str(n), *powerlaw_inputs(n, k))


def file_digests(work: Path):
    """(output name, sha256) for the file commands at each order in FILE_ORDERS."""
    from spectrunc.cli import main

    for n, k in FILE_ORDERS.items():
        paths = _file_inputs(work, n, k)
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
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(commands["denoise"])
        if code != 0:
            raise SystemExit(f"spectrunc denoise to stdout exited {code}: {err.getvalue()}")
        yield f"denoise stdout n={n}", hashlib.sha256(out.getvalue().encode()).hexdigest()


def _numpy_scalars(values: dict) -> dict:
    """``values`` with each int as ``np.int64`` and each float as ``np.float64``."""
    import numpy as np

    return {
        key: np.int64(v) if isinstance(v, int) else np.float64(v) if isinstance(v, float) else v
        for key, v in values.items()
    }


def numpy_scalar_digests():
    """(output name, sha256) of a report and a bound whose inputs are numpy scalars."""
    from spectrunc import ExperimentConfig, relative_error_bound, run_experiment
    from spectrunc.io import bound_csv_bytes, bound_json_bytes, report_csv_bytes, report_json_bytes

    cfg = config("relative")
    cfg["spectrum_kind"] = cfg.pop("spectrum")
    report = run_experiment(ExperimentConfig(**_numpy_scalars(cfg)))
    inputs = dict(BOUNDS["relative_measured"])
    del inputs["kind"]
    bound = relative_error_bound(**_numpy_scalars(inputs))
    for name, data in {
        "run relative json": report_json_bytes(report),
        "run relative csv": report_csv_bytes(report),
        "bounds relative_measured json": bound_json_bytes(bound),
        "bounds relative_measured csv": bound_csv_bytes(bound),
    }.items():
        yield f"numpy scalars {name}", hashlib.sha256(data).hexdigest()


def line_end_digests(work: Path):
    """(output name, sha256) of ``run`` and ``denoise`` on files whose lines end otherwise."""
    from spectrunc.cli import main

    n = 40
    k = FILE_ORDERS[n]
    inputs = {
        "run relative": (READER_ARGV["read_config"], config_text(config("relative"))),
        f"denoise n={n}": (
            ["denoise", "--k", str(k), "--matrix"],
            Path(_file_inputs(work, n, k)["Ahat.sym"]).read_text(),
        ),
    }
    path = work / "line_ends.txt"
    for name, seps in LINE_ENDS.items():
        for command, (argv, text) in inputs.items():
            lines = text.splitlines()
            ended = "".join(line + seps[i % len(seps)] for i, line in enumerate(lines))
            path.write_bytes(ended.encode())
            data = _cli(main, [*argv, str(path)], work / "out")
            yield f"{command} {name}", hashlib.sha256(data).hexdigest()


#: order of the chunk-crossing files: past two 32-row chunks, and no multiple of 32
CHUNKED_N = 75


def chunk_digests(work: Path):
    """(output name, sha256) of the file commands on ``sym`` files across mirror-text chunks."""
    from spectrunc.cli import main

    n, k = CHUNKED_N, FILE_ORDERS[40]
    paths = _file_inputs(work, n, k)
    for name in ("A.sym", "Ahat.sym"):  # both, so that verify's perturbation stays small
        rows = [line.split() for line in Path(paths[name]).read_text().splitlines()]
        # rows[1 + i][j] is entry (i, j); each lower entry below differs from its mirror's text
        rows[1 + 2][70], rows[1 + 70][2] = "0", "-0"
        if name == "Ahat.sym":
            rows[1 + 40][33] = format(float(rows[1 + 33][40]), ".20e")  # the same value
            rows[1 + 74][45] = "%.17g" % (float(rows[1 + 45][74]) + 1e-13)  # inside the tolerance
        Path(paths[name]).write_text("".join(" ".join(row) + "\n" for row in rows))
    commands = {
        "denoise": ["denoise", "--matrix", paths["Ahat.sym"], "--k", str(k)],
        "verify json": ["verify", "--matrix", paths["A.sym"], "--perturbed", paths["Ahat.sym"],
                        "--k", str(k), "--eps", str(FILES_EPS)],
        "synth haar": ["synth", "--kind", "powerlaw", "--beta", "1", "--n", str(n),
                       "--basis", "haar", "--seed", str(FILES_SEED)],
    }
    for name, argv in commands.items():
        data = _cli(main, argv, work / "out")
        yield f"chunks {name} n={n}", hashlib.sha256(data).hexdigest()


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
        outputs = [
            *digests(work), *numpy_scalar_digests(), *file_digests(work),
            *line_end_digests(work), *chunk_digests(work), *rejection_digests(work),
        ]
        for name, digest in outputs:
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
