"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single summary line with its measurements; the pytest
verdict for the test is the pass/fail line for that criterion.  All random
draws come from fixed Philox streams, so every number below is
reproducible bit-for-bit on a fixed numpy version.
"""

import math
import time

import numpy as np

from spectrunc import (
    ExperimentConfig,
    check_alignment,
    eig_sym,
    gap_error_bound,
    goe_noise,
    haar_orthogonal,
    make_spectrum,
    psd_from_spectrum,
    relative_error_bound,
    rng_stream,
    run_experiment,
    scaled_perturbation,
    spectral_norm_sym,
    spectrum_stats,
    top_eigenpairs,
    truncate,
)
from spectrunc.io import report_csv_bytes, report_json_bytes
from spectrunc.proofcheck import aligned_subspace

SEED = 20260823

# grid shared by criteria 3, 4 and 5: five decay profiles x ranks 1..10 x
# three eps values = 150 combinations, plus 50 repeats under fresh streams
GRID_SPECTRA = (
    ("powerlaw", 0.75),
    ("powerlaw", 1.0),
    ("powerlaw", 2.0),
    ("exponential", 0.3),
    ("exponential", 1.0),
)
GRID_EPS = (0.05, 0.1, 0.25)
GRID_NS = (20, 30, 40, 50, 60)


def grid_instances():
    combos = [
        (spec, k, eps) for spec in GRID_SPECTRA for k in range(1, 11) for eps in GRID_EPS
    ]
    combos += combos[:50]
    assert len(combos) == 200
    for idx, ((kind, par), k, eps) in enumerate(combos):
        n = GRID_NS[idx % len(GRID_NS)]
        if kind == "powerlaw":
            sig = make_spectrum("powerlaw", n, beta=par)
        else:
            sig = make_spectrum("exponential", n, c=par)
        rng = rng_stream(SEED, 1000 + idx)
        A = psd_from_spectrum(sig, haar_orthogonal(n, rng))
        yield idx, sig, A, n, k, eps, rng


def test_criterion_01_classical_inequalities():
    t0 = time.perf_counter()
    worst = {"weyl": np.inf, "poincare": np.inf, "pythagoras": np.inf, "davis_kahan": np.inf}
    for i in range(1000):
        n = 2 + i % 29  # dimensions 2..30
        rng = rng_stream(SEED, 10_000 + i)
        X = rng.standard_normal((n, n))
        X = (X + X.T) / 2.0
        Y = rng.standard_normal((n, n))
        Y = (Y + Y.T) / 2.0

        lx = np.linalg.eigvalsh(X)[::-1]
        ly = np.linalg.eigvalsh(Y)[::-1]
        lxy = np.linalg.eigvalsh(X + Y)[::-1]
        outer = lx[:, None] + ly[None, :]
        isum = np.arange(n)[:, None] + np.arange(n)[None, :]
        valid = isum < n
        worst["weyl"] = min(worst["weyl"], float((outer[valid] - lxy[isum[valid]]).min()))

        m = 1 + int(rng.integers(n))
        P = np.linalg.qr(rng.standard_normal((n, m)))[0]
        lp = np.linalg.eigvalsh(P.T @ X @ P)[::-1]
        worst["poincare"] = min(
            worst["poincare"],
            float(np.min(lx[:m] - lp)),
            float(np.min(lp - lx[n - m :])),
        )

        M = rng.standard_normal((n, n))
        proj = P @ (P.T @ M)
        total = float(np.linalg.norm(M, "fro") ** 2)
        split = float(np.linalg.norm(proj, "fro") ** 2 + np.linalg.norm(M - proj, "fro") ** 2)
        worst["pythagoras"] = min(worst["pythagoras"], -abs(total - split))

        Z = Y + X * 0.25
        lz, Q = np.linalg.eigh(Z)
        lz, Q = lz[::-1], Q[:, ::-1]
        P_x = np.linalg.eigh(X)[1][:, ::-1]
        dist = float(np.max(np.abs(np.linalg.eigvalsh(X - Z))))
        C = Q.T @ P_x
        for _ in range(8):
            ii = 1 + int(rng.integers(n - 1))
            jj = ii + int(rng.integers(n - ii))
            if lx[ii - 1] <= lz[jj]:
                continue
            block = C[jj:, :ii]
            lhs = float(np.linalg.svd(block, compute_uv=False)[0]) if block.size else 0.0
            worst["davis_kahan"] = min(
                worst["davis_kahan"], dist / (lx[ii - 1] - lz[jj]) - lhs
            )
    elapsed = time.perf_counter() - t0
    ok = all(v >= -1e-9 for v in worst.values())
    print(
        f"criterion 1 (classical inequalities, 1000 instances each): "
        f"{'PASS' if ok and elapsed < 30 else 'FAIL'} -- min slack "
        + ", ".join(f"{k}={v:.3e}" for k, v in worst.items())
        + f", {elapsed:.1f}s"
    )
    for name, slack in worst.items():
        assert slack >= -1e-9, f"{name} violated: min slack {slack:.3e}"
    assert elapsed < 30.0


def test_criterion_02_truncation_optimality():
    t0 = time.perf_counter()
    worst_gap = np.inf
    for i in range(50):
        n = 2 + i % 7  # dimensions 2..8
        rng = rng_stream(SEED, 20_000 + i)
        sig = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        A = psd_from_spectrum(sig, haar_orthogonal(n, rng))
        k = 1 + i % max(n - 1, 1)
        base = float(np.linalg.norm(truncate(*top_eigenpairs(A.copy(), k)) - A, "fro"))
        for _ in range(500):
            V = np.linalg.qr(rng.standard_normal((n, k)))[0]
            w = rng.standard_normal(k) * sig[0]
            B = (V * w) @ V.T
            cand = float(np.linalg.norm((B + B.T) / 2.0 - A, "fro"))
            worst_gap = min(worst_gap, cand - base)
    elapsed = time.perf_counter() - t0
    ok = worst_gap >= -1e-10 and elapsed < 30
    print(
        f"criterion 2 (rank-k optimality, 50 matrices x 500 candidates): "
        f"{'PASS' if ok else 'FAIL'} -- closest candidate margin {worst_gap:.3e}, "
        f"{elapsed:.1f}s"
    )
    assert worst_gap >= -1e-10
    assert elapsed < 30.0


def test_criterion_03_relative_bound_grid():
    t0 = time.perf_counter()
    held = 0
    min_margin = np.inf
    for idx, sig, A, n, k, eps, rng in grid_instances():
        stats = spectrum_stats(sig, k)
        target = eps**2 * stats.tail_2
        E = scaled_perturbation(n, target, rng)
        err = float(np.linalg.norm(truncate(*top_eigenpairs(A + E, k)) - A, "fro"))
        rep = relative_error_bound(k, eps, stats.tail_F, stats.tail_2,
                                   perturbation_2=spectral_norm_sym(E))
        assert rep.precondition_holds
        if err <= rep.value + 1e-8:
            held += 1
        min_margin = min(min_margin, rep.value - err)
    elapsed = time.perf_counter() - t0
    ok = held == 200 and elapsed < 120
    print(
        f"criterion 3 (relative bound, 200-instance grid): "
        f"{'PASS' if ok else 'FAIL'} -- {held}/200 within tolerance, "
        f"min margin {min_margin:.3e}, {elapsed:.1f}s"
    )
    assert held == 200
    assert elapsed < 120.0


def test_criterion_04_gap_bound_grid():
    t0 = time.perf_counter()
    held = 0
    min_margin = np.inf
    for idx, sig, A, n, k, eps, rng in grid_instances():
        stats = spectrum_stats(sig, k)
        assert stats.gap > 0
        target = eps * stats.gap
        E = scaled_perturbation(n, target, rng)
        err = float(np.linalg.norm(truncate(*top_eigenpairs(A + E, k)) - A, "fro"))
        rep = gap_error_bound(k, eps, stats.gap, stats.tail_F,
                              perturbation_2=spectral_norm_sym(E))
        assert rep.precondition_holds
        if err <= rep.value + 1e-8:
            held += 1
        min_margin = min(min_margin, rep.value - err)
    elapsed = time.perf_counter() - t0
    ok = held == 200
    print(
        f"criterion 4 (gap bound, same grid): {'PASS' if ok else 'FAIL'} -- "
        f"{held}/200 within tolerance, min margin {min_margin:.3e}, {elapsed:.1f}s"
    )
    assert held == 200


def test_criterion_05_alignment_chain_and_subspace_oracle():
    t0 = time.perf_counter()
    min_slack = np.inf
    applicable = 0
    for idx, sig, A, n, k, eps, rng in grid_instances():
        stats = spectrum_stats(sig, k)
        delta = eps**2 * stats.tail_2
        E = scaled_perturbation(n, delta, rng)
        rep = check_alignment(A, *top_eigenpairs(A + E, k), k, eps, delta)
        assert rep.applicable, f"instance {idx} unexpectedly out of regime"
        applicable += 1
        min_slack = min(min_slack, min(c.slack for c in rep.checks))

    # closed-form aligned frame against a 10^4-subspace random search;
    # profiles flat enough at eps = 0.25 that the band below the cut is
    # provably nonempty, so every instance exercises the search
    oracle_combos = (
        ("powerlaw", 0.75, 2),
        ("powerlaw", 0.75, 3),
        ("powerlaw", 1.0, 3),
        ("powerlaw", 1.0, 4),
        ("exponential", 0.3, 2),
        ("exponential", 0.3, 3),
        ("exponential", 0.3, 5),
        ("powerlaw", 0.75, 5),
    )
    worst_excess = -np.inf
    searched = 0
    for j, (kind, par, k) in enumerate(oracle_combos):
        n, eps = 8, 0.25
        sig = (
            make_spectrum("powerlaw", n, beta=par)
            if kind == "powerlaw"
            else make_spectrum("exponential", n, c=par)
        )
        rng = rng_stream(SEED, 30_000 + j)
        A = psd_from_spectrum(sig, haar_orthogonal(n, rng))
        stats = spectrum_stats(sig, k)
        E = scaled_perturbation(n, eps**2 * stats.tail_2, rng)
        dec, dech = eig_sym(A), eig_sym(A + E)
        W, env = aligned_subspace(dec, dech.basis, k, eps)
        r = k - env.m1
        assert r >= 1, f"oracle combo {j} left no band to search"
        searched += 1
        closed = float(np.linalg.svd(W.T @ dech.basis[:, :k], compute_uv=False)[-1])
        B = dec.basis[:, env.m1 : env.m2]
        for _ in range(10_000):
            S = B @ np.linalg.qr(rng.standard_normal((B.shape[1], r)))[0]
            cand = float(np.linalg.svd(S.T @ dech.basis[:, :k], compute_uv=False)[-1])
            worst_excess = max(worst_excess, cand - closed)
    elapsed = time.perf_counter() - t0
    ok = min_slack >= 0.0 and worst_excess <= 1e-8 and elapsed < 300
    print(
        f"criterion 5 (alignment chain + subspace search): "
        f"{'PASS' if ok else 'FAIL'} -- {applicable}/200 applicable, "
        f"min slack {min_slack:.3e}, search excess {worst_excess:.3e} "
        f"over {searched} instances, {elapsed:.1f}s"
    )
    assert applicable == 200
    assert min_slack >= 0.0
    assert searched == len(oracle_combos)
    assert worst_excess <= 1e-8
    assert elapsed < 300.0


def test_criterion_06_error_rate_scaling():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="decay_rate",
        n=4000,
        trials=5,
        seed=SEED,
        spectrum_kind="powerlaw",
        spectrum_beta=1.0,
        basis="identity",
        delta_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    per = rep.aggregates["per_delta"]
    slope = rep.aggregates["slope"]
    all_valid = all(row["cutoff_valid"] for row in per)
    ok = all_valid and 0.35 <= slope <= 0.65 and elapsed < 180
    detail = ", ".join(f"d={row['delta']:g}:k={row['k']}" for row in per)
    print(
        f"criterion 6 (error-vs-delta slope, n=4000): {'PASS' if ok else 'FAIL'} -- "
        f"slope {slope:.4f} (target 0.5 +/- 0.15), validity {all_valid}, "
        f"{detail}, {elapsed:.1f}s (budget 180s)"
    )
    assert all_valid, "discarded eigenvalue fell below delta/16 somewhere"
    assert 0.35 <= slope <= 0.65
    assert elapsed < 180.0


def test_criterion_07_completion_observation_ladder():
    t0 = time.perf_counter()
    medians = {}
    thresholds_raw = []
    for p in (0.25, 0.5, 1.0):
        cfg = ExperimentConfig(
            experiment="completion",
            n=400,
            trials=20,
            seed=SEED,
            spectrum_kind="exponential",
            spectrum_c=0.5,
            basis="haar",
            k=2,
            eps=0.25,
            p=p,
            t=0.1,
        )
        rep = run_experiment(cfg)
        medians[p] = float(np.median([r.ratio_F for r in rep.trials]))
        thresholds_raw += [r.aux["threshold_raw"] for r in rep.trials]
    elapsed = time.perf_counter() - t0
    # the relative-regime requirement is unmeetable here, so the clamped
    # rate is 1 and the ladder descends from it
    vacuous = all(thr > 1.0 for thr in thresholds_raw)
    monotone = medians[0.25] >= medians[0.5] >= medians[1.0]
    ok = vacuous and monotone and medians[1.0] <= 2.0 and elapsed < 240
    print(
        f"criterion 7 (completion ladder, n=400): {'PASS' if ok else 'FAIL'} -- "
        f"median ratios p=1/4:{medians[0.25]:.4f} >= p=1/2:{medians[0.5]:.4f} "
        f">= p=1:{medians[1.0]:.4f} (cap 2.0), threshold vacuous {vacuous}, "
        f"{elapsed:.1f}s"
    )
    assert vacuous
    assert medians[1.0] <= 2.0
    assert monotone
    assert elapsed < 240.0


def test_criterion_08_denoising_pass_rate():
    t0 = time.perf_counter()
    floor = 0.8 - 2.0 * math.sqrt(0.8 * 0.2 / 20.0)
    rates = {}
    for k in (2, 5, 10):
        sig_k1 = 1.0 / (k + 1)
        cfg = ExperimentConfig(
            experiment="denoising",
            n=500,
            trials=20,
            seed=SEED,
            spectrum_kind="powerlaw",
            spectrum_beta=1.0,
            basis="haar",
            k=k,
            nu=0.1 * sig_k1,
        )
        rep = run_experiment(cfg)
        assert rep.aggregates["pass_rate_denominator"] == 20
        rates[k] = rep.pass_rate
    elapsed = time.perf_counter() - t0
    ok = all(r >= floor for r in rates.values()) and elapsed < 180
    print(
        f"criterion 8 (denoising pass rate, n=500): {'PASS' if ok else 'FAIL'} -- "
        + ", ".join(f"k={k}:{r:.2f}" for k, r in rates.items())
        + f" (floor {floor:.4f}), {elapsed:.1f}s"
    )
    for k, r in rates.items():
        assert r >= floor, f"pass rate {r:.2f} at k={k} below {floor:.4f}"
    assert elapsed < 180.0


def test_criterion_09_covariance_sample_ladder():
    t0 = time.perf_counter()
    medians = []
    beats_full_at_5n = None
    for N in (200, 400, 1000, 2000):
        cfg = ExperimentConfig(
            experiment="covariance",
            n=200,
            trials=20,
            seed=SEED,
            spectrum_kind="exponential",
            spectrum_c=0.5,
            basis="haar",
            k_oracle=True,
            eps=0.25,
            n_samples=N,
        )
        rep = run_experiment(cfg)
        medians.append(float(np.median([r.measured_error_F for r in rep.trials])))
        if N == 1000:
            beats_full_at_5n = float(
                np.mean([bool(r.aux["beats_full"]) for r in rep.trials])
            )
    elapsed = time.perf_counter() - t0
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    ok = monotone and beats_full_at_5n >= 0.9 and elapsed < 240
    print(
        f"criterion 9 (covariance ladder, n=200): {'PASS' if ok else 'FAIL'} -- "
        f"medians {', '.join(f'{m:.4f}' for m in medians)} non-increasing "
        f"{monotone}, beats-full at N=5n {beats_full_at_5n:.2f} (floor 0.9), "
        f"{elapsed:.1f}s"
    )
    assert monotone
    assert beats_full_at_5n >= 0.9
    assert elapsed < 240.0


def test_criterion_10_noise_norm_sanity():
    t0 = time.perf_counter()
    n, nu = 500, 1.0
    ratios = [
        spectral_norm_sym(goe_noise(n, nu, rng_stream(SEED, 40_000 + s))) / nu
        for s in range(20)
    ]
    mean = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    ok = 1.8 <= mean <= 2.1 and elapsed < 60
    print(
        f"criterion 10 (noise norm concentration, n=500): "
        f"{'PASS' if ok else 'FAIL'} -- mean ratio {mean:.4f} in [1.8, 2.1], "
        f"{elapsed:.1f}s"
    )
    assert 1.8 <= mean <= 2.1
    assert elapsed < 60.0


def test_criterion_11_byte_identical_reports():
    def make(experiment, **kw):
        merged = dict(
            experiment=experiment, n=30, trials=5, seed=SEED,
            spectrum_kind="powerlaw", spectrum_beta=1.0, basis="haar",
        )
        merged.update(kw)
        return run_experiment(ExperimentConfig(**merged))

    pairs = []
    for args in (
        ("relative", dict(k=3, eps=0.2)),
        ("decay_rate", dict(n=100, delta_grid=(0.1, 0.03))),
        ("covariance", dict(k_oracle=True, eps=0.25, n_samples=60)),
    ):
        r1 = make(args[0], **args[1])
        r2 = make(args[0], **args[1])
        pairs.append(
            (
                args[0],
                report_json_bytes(r1) == report_json_bytes(r2),
                report_csv_bytes(r1) == report_csv_bytes(r2),
            )
        )
    ok = all(j and c for _, j, c in pairs)
    print(
        f"criterion 11 (byte-identical reruns): {'PASS' if ok else 'FAIL'} -- "
        + ", ".join(f"{name}: json={j} csv={c}" for name, j, c in pairs)
    )
    for name, j, c in pairs:
        assert j, f"{name} JSON differs between reruns"
        assert c, f"{name} CSV differs between reruns"
