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
from .bounds import (
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
)


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
    from .synth import haar_orthogonal, make_spectrum, psd_from_spectrum, rng_stream

    spectrum = make_spectrum(
        args.kind,
        args.n,
        beta=args.beta,
        c=args.c,
        values=[float(v) for v in args.values.split(",")] if args.values else None,
    )
    if args.basis == "haar":
        rng = rng_stream(args.seed, args.stream)
        A = psd_from_spectrum(spectrum, haar_orthogonal(args.n, rng))
    else:
        A = psd_from_spectrum(spectrum, None)
    _emit(io.matrix_bytes(A), args.out)
    return 0


def _cmd_complete(args) -> int:
    from .estimators import complete

    with open(args.obs, "r", encoding="utf-8") as fh:
        obs = io.read_observations(fh.read())
    _emit(io.matrix_bytes(complete(obs, args.k)), args.out)
    print(
        f"completed n={obs.n} from {obs.count} observations at p={obs.p} "
        f"(rank {args.k})",
        file=sys.stderr,
    )
    return 0


def _cmd_denoise(args) -> int:
    from .estimators import denoise

    with open(args.matrix, "r", encoding="utf-8") as fh:
        Y = io.read_matrix(fh.read())
    _emit(io.matrix_bytes(denoise(Y, args.k)), args.out)
    return 0


def _cmd_cov(args) -> int:
    from .estimators import covariance_reduced

    with open(args.samples, "r", encoding="utf-8") as fh:
        samples = io.read_samples(fh.read())
    est = covariance_reduced(samples, args.k, center=args.center)
    _emit(io.matrix_bytes(est), args.out)
    return 0


#: ``bounds --kind`` -> the function it evaluates
_BOUNDS = {
    "relative": relative_error_bound,
    "gap": gap_error_bound,
    "additive": additive_error_bound,
    "denoising": denoising_error_bound,
    "sampling": completion_sampling_threshold,
    "covariance": covariance_admissible,
    "covariance_rates": sample_covariance_rates,
    "powerlaw_cutoff": powerlaw_rank_cutoff,
    "powerlaw_rate": powerlaw_error_rate,
    "exponential_cutoff": exponential_rank_cutoff,
    "exponential_rate": exponential_error_rate,
}


def _eval_bound(kind: str, vals: dict[str, str]):
    """Call the bound of ``kind`` with its ``--set`` inputs.

    Every positional-or-keyword parameter is a key, required when it has
    no default and converted by its annotation.  Keyword-only parameters
    are the bound constants, which only ``run`` configs set.
    """
    func = _BOUNDS[kind]
    kwargs = {}
    for name, param in inspect.signature(func, eval_str=True).parameters.items():
        if param.kind is not param.POSITIONAL_OR_KEYWORD:
            continue
        if name not in vals:
            if param.default is param.empty:
                raise ValueError(f"bound kind is missing required input {name!r}")
            continue
        try:
            kwargs[name] = io.parse_value(vals.pop(name), param.annotation)
        except ValueError as e:
            raise ValueError(f"invalid value for {name!r}: {e}") from None
    if vals:
        raise ValueError(f"unused input(s): {', '.join(sorted(vals))}")
    return func(**kwargs)


def _cmd_bounds(args) -> int:
    result = _eval_bound(args.kind, _parse_kv(args.set or []))
    _emit((io.bound_json_bytes if args.format == "json" else io.bound_csv_bytes)(result), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .linalg import spectral_norm_sym, top_eigenpairs
    from .proofcheck import check_alignment

    with open(args.matrix, "r", encoding="utf-8") as fh:
        A = io.read_matrix(fh.read())
    with open(args.perturbed, "r", encoding="utf-8") as fh:
        A_hat = io.read_matrix(fh.read())
    n = A.shape[0]
    if A_hat.shape != A.shape:
        raise ValueError(f"--matrix is {A.shape}, --perturbed is {A_hat.shape}")
    if not 1 <= args.k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {args.k}")
    delta = spectral_norm_sym(A_hat - A)
    report = check_alignment(A, *top_eigenpairs(A_hat, args.k), args.k, args.eps, delta)
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
    p.add_argument("--kind", required=True, choices=["powerlaw", "exponential", "explicit"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--values", help="comma-separated explicit spectrum")
    p.add_argument("--basis", choices=["haar", "identity"], required=True)
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
    p.add_argument("--kind", required=True, choices=_BOUNDS)
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
