"""The benchmark's workloads: generated inputs, operations and output checks.

Each workload turns ``(seed, workdir)`` into a list of :class:`Op`.  An op
is one experiment run or one CLI command; its ``run`` is the timed call
into spectrunc, and it returns the op's outputs (report bytes, or an exit
code whose output files are read after the pass, untimed).  ``check``
holds for every seed; the reference comparison in :mod:`gate` only for the
default seed.

The program is reached through module attributes at call time
(``sio.parse_config``, ``cli.main``), so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spectrunc.cli as cli
import spectrunc.harness as sh
import spectrunc.io as sio
from gate import parse_csv, parse_matrix

#: deltas of the decay sweep and the ranks the powerlaw cutoff gives at n=2000
DECAY_LADDER = {0.1: 9, 0.03: 32, 0.01: 99, 0.003: 332, 0.001: 999}


@dataclass
class Op:
    name: str
    kind: str  # experiment or subcommand; the tracer groups spans by it
    trials: int  # experiment trials the op runs (0 for plain commands)
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    files: dict[str, Path] = field(default_factory=dict)  # read after the pass


def config_text(**items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


# ------------------------------------------------------------------ checks


def _report_problems(doc: dict, experiment: str, trials: int) -> list[str]:
    """Invariants of every per-trial experiment report."""
    out = []
    recs = doc["trials"]
    if doc["experiment"] != experiment:
        out.append(f"experiment {doc['experiment']!r}, expected {experiment!r}")
    if len(recs) != trials:
        out.append(f"{len(recs)} trials, expected {trials}")
    if [r["trial_id"] for r in recs] != list(range(len(recs))):
        out.append("trial ids are not 0..trials-1")
    if not all(math.isfinite(r["measured_error_F"]) and r["measured_error_F"] >= 0 for r in recs):
        out.append("a measured error is negative or not finite")
    considered = [r for r in recs if r["precondition_holds"] and r["bound_satisfied"] is not None]
    agg = doc["aggregates"]
    if agg["pass_rate_denominator"] != len(considered):
        out.append("pass_rate_denominator disagrees with the trials")
    rate = sum(r["bound_satisfied"] for r in considered) / len(considered) if considered else None
    if doc["pass_rate"] != rate:
        out.append("pass_rate disagrees with the trials")
    return out


def _alignment_problems(doc: dict) -> list[str]:
    out = []
    recs = doc["trials"]
    for r in recs:
        aux = r["aux"]
        if aux["checks_total"] not in (8, 9):
            out.append(f"trial {r['trial_id']}: checks_total {aux['checks_total']}")
        if not 0 <= aux["checks_passed"] <= aux["checks_total"]:
            out.append(f"trial {r['trial_id']}: checks_passed out of range")
        if aux["all_checks_passed"] != (aux["checks_passed"] == aux["checks_total"]):
            out.append(f"trial {r['trial_id']}: all_checks_passed inconsistent")
    rate = sum(r["aux"]["all_checks_passed"] for r in recs) / len(recs)
    if doc["aggregates"]["all_checks_passed_rate"] != rate:
        out.append("all_checks_passed_rate disagrees with the trials")
    return out


def _decay_problems(doc: dict) -> list[str]:
    out = []
    agg = doc["aggregates"]
    ks = {row["delta"]: row["k"] for row in agg["per_delta"]}
    if ks != DECAY_LADDER:
        out.append(f"per-delta k {ks}, expected {DECAY_LADDER}")
    if not all(row["cutoff_valid"] for row in agg["per_delta"]):
        out.append("a cutoff is not valid")
    if not 0.35 <= agg["slope"] <= 0.65:
        out.append(f"slope {agg['slope']} outside [0.35, 0.65]")
    if len(doc["trials"]) != 2 * len(DECAY_LADDER):
        out.append(f"{len(doc['trials'])} trial records, expected {2 * len(DECAY_LADDER)}")
    return out


# ----------------------------------------------------------------- library


def _experiment_op(name: str, text: str, trials: int, problems) -> Op:
    def run() -> dict:
        report = sh.run_experiment(sio.parse_config(text))
        return {"report.json": sio.report_json_bytes(report)}

    def check(outs: dict) -> list[str]:
        return problems(json.loads(outs["report.json"]))

    return Op(name, name, trials, run, check)


def decay_sweep(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    """Criterion 6 scaled to n=2000: the k ladder crosses the solver routes."""
    text = config_text(
        experiment="decay_rate",
        n=2000,
        trials=2,
        seed=seed,
        spectrum="powerlaw",
        spectrum_beta=1.0,
        basis="identity",
        delta_grid=", ".join(repr(d) for d in DECAY_LADDER),
    )
    cfg = work / "decay_sweep.cfg"
    cfg.write_text(text)
    return [_experiment_op("decay_rate", text, 2 * len(DECAY_LADDER), _decay_problems)], [cfg]


def trial_mix(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    """Per-trial Haar experiments: dense eigensolves, proofcheck, QR, sampling."""
    common = dict(trials=10, seed=seed, basis="haar")
    specs = {
        "alignment": dict(
            n=600, spectrum="powerlaw", spectrum_beta=1.0, k=5, eps=0.1
        ),
        "covariance": dict(
            n=400, spectrum="exponential", spectrum_c=0.5, k="oracle", eps=0.25, n_samples=800
        ),
        "completion": dict(
            n=400, spectrum="exponential", spectrum_c=0.5, k=2, eps=0.25, p=0.5, t=0.1
        ),
        "denoising": dict(
            n=500, spectrum="powerlaw", spectrum_beta=1.0, k=5, nu=repr(0.1 / 6)
        ),
    }
    ops, cfgs = [], []
    for experiment, spec in specs.items():
        text = config_text(experiment=experiment, **common, **spec)
        cfg = work / f"{experiment}.cfg"
        cfg.write_text(text)
        cfgs.append(cfg)

        def problems(doc, experiment=experiment):
            out = _report_problems(doc, experiment, common["trials"])
            return out + _alignment_problems(doc) if experiment == "alignment" else out

        ops.append(_experiment_op(experiment, text, common["trials"], problems))
    return ops, cfgs


# --------------------------------------------------------------------- cli

CLI_N = 600
CLI_K = 5
CLI_EPS = 0.1


def _cli_op(name: str, argv: list[str], out: Path, check, trials: int = 0) -> Op:
    """``spectrunc <argv> --out <out>``; ``check`` gets the output bytes."""
    argv = [*argv, "--out", str(out)]

    def run() -> dict:
        err = _stdio.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return {"exit": code, "_stderr": err.getvalue()}

    def gated(outs: dict) -> list[str]:
        if outs["exit"] != 0:
            return [f"exit code {outs['exit']}: {outs['_stderr'].strip()[-300:]}"]
        return check(outs[out.name])

    return Op(name, argv[0], trials, run, gated, {out.name: out})


def _matrix_check(data: bytes) -> list[str]:
    A = parse_matrix(data)
    return [] if A.shape == (CLI_N, CLI_N) else [f"matrix has shape {A.shape}"]


def _verify_check(data: bytes) -> list[str]:
    doc = json.loads(data)
    problems = [] if doc["applicable"] else ["checks not applicable"]
    if len(doc["checks"]) not in (8, 9):
        problems.append(f"{len(doc['checks'])} checks")
    return problems


def _bounds_check(data: bytes) -> list[str]:
    doc = json.loads(data)
    ok = math.isfinite(doc["value"]) and doc["precondition_holds"] is True
    return [] if ok else [f"bound {doc}"]


def _write_matrix(path: Path, A: np.ndarray) -> None:
    np.savetxt(path, A, fmt="%.17g", header=f"sym {A.shape[0]}", comments="")


def cli_files(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    """The CLI file commands at n=600, then a many-trial n=30 ``run``."""
    n, k, eps, run_trials = CLI_N, CLI_K, CLI_EPS, 400
    rng = np.random.default_rng([seed, 3])
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.where(np.diag(R) < 0, -1.0, 1.0)
    sig = 1.0 / np.arange(1, n + 1)
    A = (Q * sig) @ Q.T
    A = (A + A.T) / 2.0
    M = rng.standard_normal((n, n))
    E = (M + M.T) / 2.0
    # half the relative-regime allowance eps^2 * sigma_{k+1}
    target = 0.5 * eps**2 * sig[k]
    E *= target / np.max(np.abs(np.linalg.eigvalsh(E)))
    iu, ju = np.triu_indices(n)
    seen = rng.random(iu.size) < 0.5
    X = rng.standard_normal((2 * n, n)) @ (Q * np.sqrt(sig)).T

    A_sym, Ahat_sym, obs, samples, cfg = (
        work / name for name in ("A.sym", "Ahat.sym", "A.obs", "X.samples", "rel.cfg")
    )
    _write_matrix(A_sym, A)
    _write_matrix(Ahat_sym, A + E)
    np.savetxt(
        obs,
        np.column_stack([iu[seen] + 1, ju[seen] + 1, A[iu[seen], ju[seen]]]),
        fmt=["%d", "%d", "%.17g"],
        header=f"obs {n} 0.5 {int(seen.sum())}",
        comments="",
    )
    np.savetxt(samples, X, fmt="%.17g", header=f"samples {2 * n} {n}", comments="")
    cfg.write_text(
        config_text(
            experiment="relative", n=30, trials=run_trials, seed=seed, spectrum="powerlaw",
            spectrum_beta=1.0, basis="haar", k=3, eps=0.2,
        )
    )

    def csv_check(data: bytes) -> list[str]:
        header, rows = parse_csv(data)
        if header[0] != "trial_id" or [r[0] for r in rows] != [str(i) for i in range(run_trials)]:
            return ["trial_id column is not 0..trials-1"]
        return []

    tail = sig[k:]
    bound_inputs = {
        "k": k, "eps": eps, "tail_F": float(np.sqrt(np.sum(tail**2))),
        "tail_2": float(tail[0]), "perturbation_2": float(target),
    }
    ops = [
        _cli_op("synth", ["synth", "--kind", "powerlaw", "--beta", "1", "--n", str(n),
                          "--basis", "haar", "--seed", str(seed)],
                work / "synth.sym", _matrix_check),
        _cli_op("denoise", ["denoise", "--matrix", str(Ahat_sym), "--k", str(k)],
                work / "denoise.sym", _matrix_check),
        _cli_op("complete", ["complete", "--obs", str(obs), "--k", str(k)],
                work / "complete.sym", _matrix_check),
        _cli_op("cov", ["cov", "--samples", str(samples), "--k", str(k), "--center"],
                work / "cov.sym", _matrix_check),
        _cli_op("verify", ["verify", "--matrix", str(A_sym), "--perturbed", str(Ahat_sym),
                           "--k", str(k), "--eps", repr(eps)],
                work / "verify.json", _verify_check),
        _cli_op("bounds", ["bounds", "--kind", "relative",
                           *(a for key, v in bound_inputs.items() for a in ("--set", f"{key}={v!r}"))],
                work / "bounds.json", _bounds_check),
        _cli_op("run_json", ["run", "--config", str(cfg), "--format", "json"], work / "run.json",
                lambda data: _report_problems(json.loads(data), "relative", run_trials),
                trials=run_trials),
        _cli_op("run_csv", ["run", "--config", str(cfg), "--format", "csv"], work / "run.csv",
                csv_check, trials=run_trials),
    ]
    return ops, [cfg]


WORKLOADS = {"decay_sweep": decay_sweep, "trial_mix": trial_mix, "cli_files": cli_files}
