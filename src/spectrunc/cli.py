"""Command-line interface.

One subcommand per job; ``spectrunc --help`` lists them.  Exit codes: 0
success, 1 invalid input (bad flags, malformed files, rejected
configuration, an input too large to allocate), 2 numerical failure at
runtime.  Data goes to stdout or ``--out``; progress and timing go to
stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
import time

from . import __version__, io
from .bounds import KINDS, check_domain, check_rank
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


def _output(out: str | None):
    """The ``--out`` file, opened for text with ``\\n`` line ends, or stdout."""
    if out:
        return open(out, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


def _emit(doc, args) -> None:
    """Write ``doc`` to ``--out`` or stdout by ``io.<report>_<format>_bytes``.

    ``report`` is the command's report kind.  The writer is looked up on
    ``io`` at each call, so a wrapper patched onto the module is seen.
    """
    data = getattr(io, f"{args.report}_{args.format}_bytes")(doc)
    with _output(args.out) as fh:
        fh.write(data.decode())


def _emit_matrix(A, out: str | None) -> None:
    """Write ``A`` as a ``sym n`` file to ``out`` or stdout, one row at a time.

    A non-finite entry (an estimate past the float range) raises ValueError
    naming the first one, before ``out`` is opened.
    """
    from .linalg import check_finite

    check_finite(A, "output")
    with _output(out) as fh:
        io.write_matrix(A, fh)


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
    items = ((None, item) for item in args.set or [])
    vals = io.parse_pairs(items, "--set expects key=value, got {item!r}",
                          "duplicate --set key {key!r}")
    _emit(_eval_bound(args.kind, vals), args)
    return 0


def _cmd_verify(args) -> int:
    check_domain(eps=args.eps)  # ahead of numpy, the reads and the solves
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
    report = check_alignment(A, *pairs, args.k, args.eps, delta, what="--matrix")
    _emit(report, args)
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

    t0 = time.perf_counter()
    report = run_experiment(config)
    seconds = time.perf_counter() - t0
    _emit(report, args)
    print(f"{config.experiment}: {len(report.trials)} trial(s) in {seconds:.2f}s", file=sys.stderr)
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
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("complete", help="rank-k completion from observations")
    p.add_argument("--obs", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("denoise", help="rank-k truncation of a noisy matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("cov", help="rank-k truncated sample covariance")
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--center", action="store_true")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_bounds, report="bound")

    p = sub.add_parser("verify", help="measure the alignment inequality chain")
    p.add_argument("--matrix", required=True)
    p.add_argument("--perturbed", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_verify, report="alignment")

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run, report="report")

    # last, after each command's own options, as --help lists them
    for p in sub.choices.values():
        if p.get_default("report"):
            p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out")
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
    except (io.FormatError, ValueError, OSError, MemoryError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
