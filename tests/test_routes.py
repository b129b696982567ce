"""Route independence: every result is the same when every solve takes its dense route.

``linalg.top_eigenpairs`` and ``linalg.spectral_norm_sym`` take Lanczos
(ARPACK) from order ``linalg.ARPACK_MIN_N`` up, and LAPACK below it.  Each
case here runs twice at ARPACK orders: as it is, and with
``ARPACK_MIN_N`` patched past every order, which sends each top-k solve to
``evr``/``evd`` and each norm to ``eigvalsh``.  The two runs must agree:
discrete values (verdicts, preconditions, ranks, counts, shapes) exactly,
and floats within ``RTOL`` relative.  A report agrees value by value; an
output matrix agrees in its largest entrywise difference, relative to its
largest entry.

Single-vector Lanczos sees one direction per eigenspace (Parlett, *The
Symmetric Eigenvalue Problem*, 1998, ch. 13), so on an eigenvalue of
multiplicity above one it can miss copies that the dense route returns.
The cases that show this are strict xfails, named after ROADMAP item 1,
whose fix must flip them.  The subnormal constant matrix, on which Lanczos
loses orthogonality and overstates the norm, is a strict xfail named after
item 14.  The configs, files and matrices come from ``tests/corpus.py``.
"""

import json

import numpy as np
import pytest

import corpus
from spectrunc import cli, linalg
from spectrunc.harness import EXPERIMENTS, run_experiment
from spectrunc.io import parse_config, read_matrix_file, report_json_bytes

#: the largest relative difference allowed between the two routes' floats
RTOL = 1e-12

ITEM_1 = "ROADMAP item 1: Lanczos misses copies of a repeated eigenvalue"
ITEM_14 = "ROADMAP item 14: Lanczos loses orthogonality at subnormal scale"


@pytest.fixture
def both_routes(monkeypatch):
    """``twice(run)``: ``run()`` as it is, then with every solve on its dense route."""

    def twice(run):
        plain = run()
        with monkeypatch.context() as m:
            m.setattr(linalg, "ARPACK_MIN_N", 10**9)
            dense = run()
        return plain, dense

    return twice


def assert_agree(plain, dense, path="doc"):
    """Equal discrete values and floats within ``RTOL``, through nested dicts and lists."""
    if isinstance(plain, float) and isinstance(dense, float):
        assert abs(plain - dense) <= RTOL * max(abs(plain), abs(dense)), (path, plain, dense)
    elif isinstance(plain, dict) and isinstance(dense, dict):
        assert plain.keys() == dense.keys(), path
        for key in plain:
            assert_agree(plain[key], dense[key], f"{path}.{key}")
    elif isinstance(plain, list) and isinstance(dense, list):
        assert len(plain) == len(dense), path
        for i, (a, b) in enumerate(zip(plain, dense)):
            assert_agree(a, b, f"{path}[{i}]")
    else:
        assert plain == dense, (path, plain, dense)


def assert_matrices_agree(plain, dense):
    assert plain.shape == dense.shape
    assert np.max(np.abs(plain - dense)) <= RTOL * np.max(np.abs(plain))


def _report(cfg: dict) -> dict:
    return json.loads(report_json_bytes(run_experiment(parse_config(corpus.config_text(cfg)))))


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


#: each experiment's corpus config at an ARPACK order
RUNS = {ex: corpus.config(ex, n=400, trials=2, seed=3) for ex in EXPERIMENTS}
RUNS["decay_rate"] = corpus.config("decay_rate", n=600, trials=1, seed=0)


@pytest.mark.parametrize("config", [
    *(pytest.param(cfg, id=name) for name, cfg in RUNS.items()),
    pytest.param(
        corpus.config("denoising", n=300, trials=1, seed=0, basis="identity",
                      spectrum="explicit", spectrum_values=corpus.tied_spectrum(300), nu=0.0),
        id="tied_diagonal_denoising", marks=_xfail(ITEM_1),
    ),
])
def test_run_reports_agree_across_routes(config, both_routes):
    plain, dense = both_routes(lambda: _report(config))
    assert_agree(plain, dense)


#: each corpus matrix on the Lanczos routes: name -> its builder's arguments
ARGS = {**{name: (corpus.ORDERS[name],) for name in corpus.LANCZOS_MATRICES},
        "subnormal": (250, 1e-310)}

#: solve -> the matrices on which its routes differ today: name -> the xfail reason
SOLVES = {
    "top_eigenpairs": (lambda A: linalg.top_eigenpairs(A.copy(), 4)[0],
                       {"tied_diagonal": ITEM_1, "repeated_blocks": ITEM_1,
                        "subnormal": ITEM_14}),
    "spectral_norm_sym": (linalg.spectral_norm_sym, {"subnormal": ITEM_14}),
}


@pytest.mark.parametrize("solve, name", [
    pytest.param(solve, name, id=f"{solve}-{name}",
                 marks=[_xfail(differ[name])] if name in differ else [])
    for solve, (_, differ) in SOLVES.items() for name in ARGS
])
def test_solves_agree_across_routes(solve, name, both_routes):
    A = corpus.MATRICES[name](*ARGS[name])
    plain, dense = both_routes(lambda: SOLVES[solve][0](A))
    np.testing.assert_allclose(plain, dense, rtol=RTOL, atol=0)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The corpus's power-law matrix of order 300, its perturbation, observations and samples."""
    return corpus.write_inputs(tmp_path_factory.mktemp("routes"), *corpus.powerlaw_inputs(300, 5))


COMMANDS = {
    "denoise": ["denoise", "--matrix", "Ahat.sym", "--k", "5"],
    "complete": ["complete", "--obs", "A.obs", "--k", "5"],
    "cov": ["cov", "--samples", "X.samples", "--k", "5"],
    "verify": ["verify", "--matrix", "A.sym", "--perturbed", "Ahat.sym", "--k", "5",
               "--eps", str(corpus.FILES_EPS)],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_outputs_agree_across_routes(command, files, both_routes, tmp_path):
    argv = [files.get(arg, arg) for arg in COMMANDS[command]]
    out = tmp_path / "out"

    def run():
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text()) if command == "verify" else read_matrix_file(out)

    plain, dense = both_routes(run)
    if command == "verify":
        assert_agree(plain, dense)
    else:
        assert_matrices_agree(plain, dense)
