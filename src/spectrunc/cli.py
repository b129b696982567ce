"""Command-line interface.

Subcommands
-----------
synth     generate a synthetic symmetric matrix file
complete  rank-k completion from an observation file
denoise   rank-k truncation of a noisy matrix file
cov       rank-k truncated sample covariance from a samples file
bounds    evaluate a closed-form bound from scalar inputs
verify    measure the alignment inequality chain on a matrix pair
run       run a configured experiment and emit its report

Exit codes: 0 success, 1 invalid input (bad flags, malformed files,
rejected configuration), 2 numerical failure at runtime.  Data goes to
stdout or ``--out``; progress and timing go to stderr only, so captured
output is reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import __version__, io
from .bounds import KINDS, check_rank
from .config import BASES, SPECTRUM_KINDS


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit 2: ``ArithmeticError``, and numpy's
    ``LinAlgError`` and ARPACK's ``ArpackError`` once their modules are
    loaded, as they must be for either to be raised."""
    found = [ArithmeticError]
    for module, name in (("numpy.linalg", "LinAlgError"), ("scipy.sparse.linalg", "ArpackError")):
        loaded = sys.modules.get(module)
        if loaded is not None:
            found.append(getattr(loaded, name))
    return tuple(found)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse, but CLI misuse exits 1 (validation) instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _emit(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _emit_matrix(A, out: str | None) -> None:
    """Write ``A`` as a ``sym n`` file to ``out`` or stdout, one row at a time.

    A non-finite entry (an estimate past the float range) raises ValueError
    naming the first one, before ``out`` is opened.
    """
    import numpy as np

    if not (np.isfinite(A.min()) and np.isfinite(A.max())):  # NaN reaches both; no mask
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"output entry ({i + 1}, {j + 1}) is not finite: {A[i, j]}")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            io.write_matrix(A, fh)
    else:
        io.write_matrix(A, sys.stdout)


def _parse_kv(pairs: list[str]) -> dict[str, str]:
    vals: dict[str, str] = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"--set expects key=value, got {item!r}")
        if key in vals:
            raise ValueError(f"duplicate --set key {key!r}")
        vals[key] = value
    return vals


def _cmd_synth(args) -> int:
    from .synth import instance, make_spectrum, rng_stream

    values = None
    if args.values:  # read as the config key spectrum_values is
        try:
            values = io.parse_value(args.values, tuple[float, ...])
        except ValueError as e:
            raise ValueError(f"invalid value for '--values': {e}") from None
    spectrum = make_spectrum(args.kind, args.n, beta=args.beta, c=args.c, values=values)
    _emit_matrix(instance(spectrum, args.basis, rng_stream(args.seed, args.stream)), args.out)
    return 0


def _cmd_complete(args) -> int:
    from .estimators import complete

    obs = io.read_observations_file(args.obs)
    note = f"completed n={obs.n} from {obs.count} observations at p={obs.p} (rank {args.k})"
    estimate = complete(obs, args.k)
    del obs  # the input is released before the estimate is written
    _emit_matrix(estimate, args.out)
    print(note, file=sys.stderr)
    return 0


def _cmd_denoise(args) -> int:
    from .estimators import denoise

    # the input is released once the estimate exists, before it is written
    _emit_matrix(denoise(io.read_matrix_file(args.matrix), args.k), args.out)
    return 0


def _cmd_cov(args) -> int:
    from .estimators import covariance_reduced

    # the input is released once the estimate exists, before it is written
    estimate = covariance_reduced(io.read_samples_file(args.samples), args.k, center=args.center)
    _emit_matrix(estimate, args.out)
    return 0


def _eval_bound(kind: str, vals: dict[str, str]):
    """Call the bound of ``kind`` with its ``--set`` inputs.

    The keys are the function's positional-or-keyword parameters, bound by
    :func:`io.parse_kwargs`.  Keyword-only parameters are the bound
    constants, which only ``run`` configs set.
    """
    func = KINDS[kind]
    params = inspect.signature(func, eval_str=True).parameters.values()
    keys = {p.name: p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}
    return func(**io.parse_kwargs(keys, vals))


def _cmd_bounds(args) -> int:
    result = _eval_bound(args.kind, _parse_kv(args.set or []))
    _emit((io.bound_json_bytes if args.format == "json" else io.bound_csv_bytes)(result), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .linalg import spectral_norm_sym, top_eigenpairs
    from .proofcheck import check_alignment

    A = io.read_matrix_file(args.matrix)
    A_hat = io.read_matrix_file(args.perturbed)
    if A_hat.shape != A.shape:
        raise ValueError(f"--matrix is {A.shape}, --perturbed is {A_hat.shape}")
    check_rank(args.k, A.shape[0])
    delta = spectral_norm_sym(A_hat - A)
    pairs = top_eigenpairs(A_hat, args.k)
    del A_hat  # only its top-k pairs are checked
    report = check_alignment(A, *pairs, args.k, args.eps, delta)
    data = (
        io.alignment_json_bytes(report)
        if args.format == "json"
        else io.alignment_csv_bytes(report)
    )
    _emit(data, args.out)
    if not report.applicable:
        print(
            f"note: perturbation {report.delta_measured:.6g} exceeds allowance "
            f"{report.delta_allowed:.6g}; checks not applicable",
            file=sys.stderr,
        )
    return 0


def _cmd_run(args) -> int:
    config = io.read_config(args.config)
    from .harness import run_experiment  # numpy loads once the config is accepted

    report = run_experiment(config)
    data = (
        io.report_json_bytes(report)
        if args.format == "json"
        else io.report_csv_bytes(report)
    )
    _emit(data, args.out)
    print(
        f"{config.experiment}: {len(report.trials)} trial(s) in "
        f"{report.runtime_seconds:.2f}s",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="spectrunc", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"spectrunc {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic symmetric matrix")
    p.add_argument("--kind", required=True, choices=list(SPECTRUM_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--values", help="comma- or space-separated explicit spectrum")
    p.add_argument("--basis", choices=BASES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("complete", help="rank-k completion from observations")
    p.add_argument("--obs", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("denoise", help="rank-k truncation of a noisy matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("cov", help="rank-k truncated sample covariance")
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--center", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="measure the alignment inequality chain")
    p.add_argument("--matrix", required=True)
    p.add_argument("--perturbed", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses 0 for --help/--version; our _Parser.error maps misuse to 1
        return int(e.code or 0)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so the numerical branch must come
    # first; its tuple is built only once an exception reaches it
    except _numerical_errors() as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 2
    except (io.FormatError, ValueError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
