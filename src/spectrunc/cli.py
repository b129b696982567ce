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
import sys
import time

import numpy as np

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
from .estimators import complete as _complete
from .estimators import covariance_reduced, denoise as _denoise
from .harness import run_experiment
from .linalg import require_symmetric
from .proofcheck import check_alignment
from .synth import haar_orthogonal, make_spectrum, psd_from_spectrum, rng_stream


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


def _take(vals: dict[str, str], key: str, conv, required=True, default=None):
    if key not in vals:
        if required:
            raise ValueError(f"bound kind is missing required input {key!r}")
        return default
    try:
        return conv(vals.pop(key))
    except ValueError as e:
        raise ValueError(f"invalid value for {key!r}: {e}") from None


def _cmd_synth(args) -> int:
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
    with open(args.obs, "r", encoding="utf-8") as fh:
        obs = io.read_observations(fh.read())
    res = _complete(obs, args.k)
    _emit(io.matrix_bytes(res.estimate), args.out)
    print(
        f"completed n={obs.n} from {obs.count} observations at p={obs.p} "
        f"(rank {args.k})",
        file=sys.stderr,
    )
    return 0


def _cmd_denoise(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        Y = io.read_matrix(fh.read())
    _emit(io.matrix_bytes(_denoise(Y, args.k)), args.out)
    return 0


def _cmd_cov(args) -> int:
    with open(args.samples, "r", encoding="utf-8") as fh:
        samples = io.read_samples(fh.read())
    est = covariance_reduced(samples, args.k, center=args.center)
    _emit(io.matrix_bytes(est), args.out)
    return 0


_BOUND_KINDS = (
    "relative",
    "gap",
    "additive",
    "denoising",
    "sampling",
    "covariance",
    "covariance_rates",
    "powerlaw_cutoff",
    "powerlaw_rate",
    "exponential_cutoff",
    "exponential_rate",
)


def _eval_bound(kind: str, vals: dict[str, str]):
    if kind == "relative":
        rep = relative_error_bound(
            _take(vals, "k", int),
            _take(vals, "eps", float),
            _take(vals, "tail_F", float),
            _take(vals, "tail_2", float),
            _take(vals, "perturbation_2", float, required=False),
        )
    elif kind == "gap":
        rep = gap_error_bound(
            _take(vals, "k", int),
            _take(vals, "eps", float),
            _take(vals, "gap", float),
            _take(vals, "tail_F", float),
            _take(vals, "perturbation_2", float, required=False),
        )
    elif kind == "additive":
        rep = additive_error_bound(
            _take(vals, "k", int),
            _take(vals, "delta", float),
            _take(vals, "tail_F", float),
            _take(vals, "head_F", float),
        )
    elif kind == "denoising":
        rep = denoising_error_bound(
            _take(vals, "nu", float),
            _take(vals, "sigma_k1", float),
            _take(vals, "k", int),
            _take(vals, "tail_F", float),
        )
    elif kind == "sampling":
        regime = _take(vals, "regime", str)
        # only the relative and gap regimes use eps and k
        eps_k_required = regime in ("relative", "gap")
        return completion_sampling_threshold(
            _take(vals, "mu0", float),
            _take(vals, "norm_F", float),
            _take(vals, "sigma_k1", float, required=False, default=0.0),
            _take(vals, "gap", float, required=False, default=0.0),
            _take(vals, "n", int),
            _take(vals, "t", float),
            _take(vals, "eps", float, required=eps_k_required),
            _take(vals, "k", int, required=eps_k_required),
            regime,
        )
    elif kind == "covariance":
        return covariance_admissible(
            _take(vals, "r_e", float),
            _take(vals, "eps", float),
            _take(vals, "k", int),
            _take(vals, "gamma_k", float, required=False, default=float("inf")),
            _take(vals, "n_samples", int),
            _take(vals, "mode", str),
            _take(vals, "norm_2", float, required=False),
            _take(vals, "gap", float, required=False),
        )
    elif kind == "covariance_rates":
        return sample_covariance_rates(
            _take(vals, "norm_2", float),
            _take(vals, "r_e", float),
            _take(vals, "n_samples", int),
            _take(vals, "n", int),
        )
    elif kind == "powerlaw_cutoff":
        return powerlaw_rank_cutoff(
            _take(vals, "delta", float),
            _take(vals, "beta", float),
            _take(vals, "n", int),
            _take(vals, "C1", float, required=False, default=1.0),
        )
    elif kind == "powerlaw_rate":
        return powerlaw_error_rate(
            _take(vals, "delta", float), _take(vals, "beta", float), _take(vals, "n", int)
        )
    elif kind == "exponential_cutoff":
        return exponential_rank_cutoff(
            _take(vals, "delta", float), _take(vals, "c", float), _take(vals, "n", int)
        )
    else:
        return exponential_error_rate(
            _take(vals, "delta", float), _take(vals, "c", float), _take(vals, "n", int)
        )
    return rep


def _cmd_bounds(args) -> int:
    import dataclasses
    import json

    vals = _parse_kv(args.set or [])
    result = _eval_bound(args.kind, vals)
    if vals:
        raise ValueError(f"unused input(s): {', '.join(sorted(vals))}")
    from .bounds import BoundReport

    if isinstance(result, BoundReport):
        data = io.bound_json_bytes(result) if args.format == "json" else io.bound_csv_bytes(result)
    else:
        if dataclasses.is_dataclass(result):
            doc = dataclasses.asdict(result)
        else:
            doc = {"value": result}
        if args.format == "json":
            data = (json.dumps(doc, indent=2) + "\n").encode()
        else:
            keys = list(doc)
            row = ",".join(io._csv_cell(doc[k]) for k in keys)
            data = (",".join(keys) + "\n" + row + "\n").encode()
    _emit(data, args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        A = io.read_matrix(fh.read())
    with open(args.perturbed, "r", encoding="utf-8") as fh:
        A_hat = io.read_matrix(fh.read())
    require_symmetric(A)
    report = check_alignment(A, A_hat, args.k, args.eps)
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
    t0 = time.perf_counter()
    report = run_experiment(config)
    data = (
        io.report_json_bytes(report)
        if args.format == "json"
        else io.report_csv_bytes(report)
    )
    _emit(data, args.out)
    print(
        f"{config.experiment}: {len(report.trials)} trial(s) in "
        f"{time.perf_counter() - t0:.2f}s",
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
    p.add_argument("--kind", required=True, choices=_BOUND_KINDS)
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
    # LinAlgError subclasses ValueError, so the numerical branch must come first
    except (np.linalg.LinAlgError, ArithmeticError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 2
    except (io.FormatError, ValueError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
