"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line with the measured numbers (bypassing capture so the line is visible
in any run).  Tolerances are part of the contract; seeds are fixed, so a
passing suite stays passing.
"""

import statistics
import subprocess
import sys
import time
from importlib import resources

import numpy as np
from scipy import stats

from sinrmin.analytic import (
    DistributionSpec,
    _alpha_terms,
    alpha,
    avg_power_nus,
    avg_power_rus,
    cdf,
    mean_inverse,
    mean_inverse_quadrature,
)
from sinrmin.channel import SeedSpec, sample_channel_set
from sinrmin.cli import parse_config
from sinrmin.experiment import (
    ExperimentConfig,
    run_point,
    run_sweep,
    validate_rows,
)
from sinrmin.power import (
    SinrTargets,
    approx_min_power,
    downlink_dual_solution,
    exact_min_power,
)


def _check(capsys, num: int, passed: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if passed else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal((*shape, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def test_criterion_1_random_selection_mean(capsys):
    # 1e5-trial average for random two-user selection at M=4, K=10,
    # 10 dB, sigma^2=0.1 must land within 2% of the closed form, and the
    # single-threaded run must finish inside 30 s.
    cfg = ExperimentConfig(
        K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("RUS",),
        trials=100_000, master_seed=101, M=4, K=10,
    )
    t0 = time.perf_counter()
    rows = run_point(cfg, workers=1)
    elapsed = time.perf_counter() - t0
    row = next(r for r in rows if r.algorithm == "RUS")
    target = avg_power_rus(4, 2, 10.0, 0.1)
    rel = abs(row.mc_mean - target) / target
    passed = rel <= 0.02 and elapsed < 30.0
    _check(capsys, 1, passed,
           f"RUS mc={row.mc_mean:.6f} closed={target:.6f} "
           f"rel={rel:.3%} elapsed={elapsed:.1f}s")


def test_criterion_2_norm_selection_closed_form(capsys):
    # Two-user norm-based selection: the alpha-combination closed form
    # must match the quadrature term sum to 1e-6 relative over
    # M in 4..8, K in 8..16, and a 1e5-trial simulation at (4, 10) must
    # land within 2% of it.
    angle = {m: mean_inverse(DistributionSpec.sin_sq_angle(m, 1)) for m in range(4, 9)}
    worst = 0.0
    for m in range(4, 9):
        for k in range(8, 17):
            quad = (
                mean_inverse_quadrature(DistributionSpec.norm_order_stat(m, 2, k))
                + mean_inverse_quadrature(DistributionSpec.norm_order_stat(m, 1, k))
                * angle[m]
            )
            closed = (
                float(sum(_alpha_terms(m, 2, k)))
                + float(sum(_alpha_terms(m, 1, k))) * angle[m]
            )
            api = avg_power_nus(m, k, 2, 1.0, 1.0)
            worst = max(worst, abs(closed - quad) / quad, abs(api - quad) / quad)

    cfg = ExperimentConfig(
        K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("NUS",),
        trials=100_000, master_seed=202, M=4, K=10,
    )
    row = next(r for r in run_point(cfg) if r.algorithm == "NUS")
    rel = abs(row.mc_mean - row.analytic_value) / row.analytic_value
    passed = worst <= 1e-6 and rel <= 0.02
    _check(capsys, 2, passed,
           f"NUS closed-vs-quadrature worst rel={worst:.2e} over 45 (M,K); "
           f"mc={row.mc_mean:.6f} closed={row.analytic_value:.6f} rel={rel:.3%}")


def test_criterion_3_greedy_bound_one_sided(capsys):
    # The greedy-selection closed form is an upper bound: at every point
    # of the four packaged sweeps, 2e4-trial means must satisfy
    # mc <= bound + 3 * stderr.
    checked = 0
    failed = []
    for fig in (1, 2, 3, 4):
        path = resources.files("sinrmin").joinpath(f"configs/fig{fig}.cfg")
        cfg = parse_config(path, {"algorithms": ("SUS",), "trials": 20_000})
        report = [v for v in validate_rows(run_sweep(cfg)) if v.algorithm == "SUS"]
        checked += len(report)
        failed += [f"fig{fig}:{v.sweep_axis}={v.sweep_value}"
                   for v in report if not v.passed]
    passed = checked == 27 and not failed
    _check(capsys, 3, passed,
           f"SUS one-sided checks {checked - len(failed)}/{checked} points"
           + (f" failing: {failed}" if failed else ""))


def test_criterion_4_duality(capsys):
    # Transmit-side solutions built from the dual must reproduce the
    # exact total power and hit every SINR target to 1e-9 relative,
    # over 1000 instances for each group size in {1, 2, 4} at M=4.
    targets = SinrTargets(10.0, 0.1)
    worst_power = 0.0
    worst_sinr = 0.0
    for k_s in (1, 2, 4):
        for t in range(1000):
            h = sample_channel_set(4, k_s, SeedSpec(404 + k_s, t)).users
            exact = exact_min_power(h, targets)
            dual = downlink_dual_solution(h, targets)
            worst_power = max(
                worst_power,
                abs(dual.total_power - exact.total_power) / exact.total_power,
            )
            worst_sinr = max(
                worst_sinr, float(np.max(np.abs(dual.achieved_sinr / 10.0 - 1.0)))
            )
    passed = worst_power <= 1e-9 and worst_sinr <= 1e-9
    _check(capsys, 4, passed,
           f"3000 instances: worst total-power rel={worst_power:.2e}, "
           f"worst SINR rel={worst_sinr:.2e}")


def test_criterion_5_approximation_gap(capsys):
    # The residual-norm power never undercuts the exact one, and the
    # median relative gap at 30 dB is below 1% and below the 10 dB
    # median (1e4 two-user instances at M=4).
    dominated = True
    gaps = {10.0: [], 30.0: []}
    for t in range(10_000):
        h = sample_channel_set(4, 2, SeedSpec(515, t)).users
        for gamma_db in (10.0, 30.0):
            targets = SinrTargets(10.0 ** (gamma_db / 10.0), 0.1)
            exact = exact_min_power(h, targets).total_power
            approx = approx_min_power(h, targets).total_power
            dominated &= exact <= approx * (1.0 + 1e-12)
            gaps[gamma_db].append((approx - exact) / exact)
    med10 = statistics.median(gaps[10.0])
    med30 = statistics.median(gaps[30.0])
    passed = dominated and med30 < 0.01 and med30 < med10
    _check(capsys, 5, passed,
           f"exact<=approx on all 20000 solves: {dominated}; "
           f"median gap 30dB={med30:.4%} 10dB={med10:.4%}")


def test_criterion_6_benchmark_ordering(capsys):
    # At M=4, Ks=2, K in {4, 8, 12, 16, 20} with 1e5 trials: the lower
    # bound sits below greedy, greedy below norm-based and angle-based,
    # and angle-based below the random-selection closed form, each gap
    # exceeding 3 combined standard errors.  Greedy also stays within
    # 10% of the exhaustive benchmark at K=8 (1e4 trials).
    p_rus = avg_power_rus(4, 2, 10.0, 0.1)
    margins = []
    for k in (4, 8, 12, 16, 20):
        cfg = ExperimentConfig(
            K_s=2, gamma_db=10.0, sigma_sq=0.1,
            algorithms=("NUS", "SUS", "AUS"),
            trials=100_000, master_seed=606, M=4, K=k,
        )
        rows = run_point(cfg)
        by = {r.algorithm: r for r in rows}
        lb = by["LOWER_BOUND"].analytic_value
        sus, nus, aus = by["SUS"], by["NUS"], by["AUS"]
        margins.append(min(
            (sus.mc_mean - lb) / (3.0 * sus.mc_stderr),
            (nus.mc_mean - sus.mc_mean)
            / (3.0 * float(np.hypot(sus.mc_stderr, nus.mc_stderr))),
            (aus.mc_mean - sus.mc_mean)
            / (3.0 * float(np.hypot(sus.mc_stderr, aus.mc_stderr))),
            (p_rus - aus.mc_mean) / (3.0 * aus.mc_stderr),
        ))

    cfg = ExperimentConfig(
        K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("SUS", "EXHAUSTIVE"),
        trials=10_000, master_seed=607, M=4, K=8,
    )
    by = {r.algorithm: r for r in run_point(cfg)}
    ratio = by["SUS"].mc_mean / by["EXHAUSTIVE"].mc_mean
    passed = min(margins) > 1.0 and ratio <= 1.10
    _check(capsys, 6, passed,
           f"weakest gap {min(margins):.1f}x the 3-sigma floor; "
           f"SUS/EXHAUSTIVE={ratio:.4f} at K=8")


def test_criterion_7_sampling_laws(capsys):
    # Kolmogorov-Smirnov distance below 0.01 at 1e5 samples for the five
    # scalar laws, each sampled through an independent coordinate
    # construction and compared against the analytic CDF.
    n = 100_000
    results = {}

    norms = (np.abs(sample_channel_set(4, n, SeedSpec(701, 0)).users) ** 2).sum(axis=1)
    spec = DistributionSpec.norm_chisq(4)
    results["norm"] = stats.kstest(norms, lambda x: cdf(spec, x)).statistic

    h = _complex_gaussian(SeedSpec(702, 0).generator(), (n, 10, 4))
    second = np.sort((np.abs(h) ** 2).sum(axis=2), axis=1)[:, -2]
    spec = DistributionSpec.norm_order_stat(4, 2, 10)
    results["order_stat"] = stats.kstest(second, lambda x: cdf(spec, x)).statistic

    pair = _complex_gaussian(SeedSpec(703, 0).generator(), (n, 2, 4))
    h, g = pair[:, 0, :], pair[:, 1, :]
    cross = np.abs(np.einsum("km,km->k", h.conj(), g)) ** 2
    sin1 = 1.0 - cross / ((np.abs(h) ** 2).sum(axis=1) * (np.abs(g) ** 2).sum(axis=1))
    spec = DistributionSpec.sin_sq_angle(4, 1)
    results["sin_sq_1"] = stats.kstest(sin1, lambda x: cdf(spec, x)).statistic

    h = _complex_gaussian(SeedSpec(704, 0).generator(), (n, 4))
    # by unitary invariance the first two coordinates span an independent plane
    sin2 = (np.abs(h[:, 2:]) ** 2).sum(axis=1) / (np.abs(h) ** 2).sum(axis=1)
    spec = DistributionSpec.sin_sq_angle(4, 2)
    results["sin_sq_2"] = stats.kstest(sin2, lambda x: cdf(spec, x)).statistic

    block = _complex_gaussian(SeedSpec(705, 0).generator(), (n, 10, 4))
    h, g = block[:, 0, :], block[:, 1:, :]
    cross = np.abs(np.einsum("km,kjm->kj", h.conj(), g)) ** 2
    sin_all = 1.0 - cross / (
        (np.abs(h) ** 2).sum(axis=1)[:, None] * (np.abs(g) ** 2).sum(axis=2)
    )
    spec = DistributionSpec.sin_sq_angle_max(4, 9)
    results["sin_max"] = stats.kstest(sin_all.max(axis=1), lambda x: cdf(spec, x)).statistic

    passed = all(d < 0.01 for d in results.values())
    detail = " ".join(f"{name}={d:.4f}" for name, d in results.items())
    _check(capsys, 7, passed, f"KS distances (<0.01): {detail}")


def test_criterion_8_reciprocal_max_norm(capsys):
    # alpha(M, 1) must equal 1/(M-1) to 1e-9 relative for M in 2..10,
    # and alpha(4, 10) must agree with an independent 1e7-sample Monte
    # Carlo estimate of E[1/max] within 3 standard errors.
    worst = max(abs(alpha(m, 1) * (m - 1) - 1.0) for m in range(2, 11))

    rng = np.random.default_rng(808)
    total = total_sq = 0.0
    count = 0
    for _ in range(20):
        inv = 1.0 / rng.gamma(4.0, 1.0, size=(500_000, 10)).max(axis=1)
        total += inv.sum()
        total_sq += (inv * inv).sum()
        count += inv.size
    mc_mean = total / count
    stderr = float(np.sqrt((total_sq - count * mc_mean**2) / (count - 1) / count))
    value = alpha(4, 10)
    sigmas = abs(value - mc_mean) / stderr
    passed = worst <= 1e-9 and sigmas <= 3.0
    _check(capsys, 8, passed,
           f"alpha(M,1) worst rel={worst:.2e}; alpha(4,10)={value:.8f} "
           f"vs mc={mc_mean:.8f} ({sigmas:.2f} sigma, n=1e7)")


def test_criterion_9_reproducibility(capsys, tmp_path):
    # A simulation must produce byte-identical result and validation
    # tables across repeated runs and across worker counts 1, 4, 16,
    # with the same configuration hash in every manifest.
    base = [
        sys.executable, "-m", "sinrmin", "simulate",
        "--M", "4", "--K", "8", "--Ks", "2", "--gamma-db", "10",
        "--sigma-sq", "0.1", "--algorithms", "NUS,SUS,RUS",
        "--trials", "400", "--seed", "77",
    ]
    outputs = []
    for name, workers in (("r1", 1), ("r2", 1), ("w4", 4), ("w16", 16)):
        out = tmp_path / name
        proc = subprocess.run(
            [*base, "--workers", str(workers), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = dict(
            line.split("=", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )
        outputs.append((
            (out / "results.csv").read_bytes(),
            (out / "validation.csv").read_bytes(),
            manifest["config_hash"],
        ))
    first = outputs[0]
    passed = all(o == first for o in outputs[1:])
    _check(capsys, 9, passed,
           f"4 runs (workers 1,1,4,16): results/validation bytes "
           f"{'identical' if passed else 'DIFFER'}, config_hash={first[2][:12]}...")
