"""Acceptance suite: the shipped guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
fails loudly if any bound is missed. Statistical bounds use the seeds
frozen in the bundled scenario; timing bounds cover computation only,
not module import.
"""

import itertools
from time import perf_counter

import numpy as np
import pytest
from click.testing import CliRunner

from deadlinenet import (
    Deterministic,
    Exponential,
    Infinite,
    SimConfig,
    Uniform,
    Weibull,
    baseline_full_insensitivity,
    baseline_service_time_insensitivity,
    compute_min_stats,
    conditional_mean_given_min,
    expand_network,
    expected_min,
    min_probability,
    product_form,
    replicate,
    simulate,
    solve_expanded,
    two_node_deadline_example,
)
from deadlinenet.cli import main as cli_main
from deadlinenet.stats import (
    empirical_marginal,
    product_form_deviation,
    total_variation,
)

from helpers import (
    mc_min_stats,
    random_exponential_network,
    random_general_network,
)

SPEC = two_node_deadline_example()
RHO_EXACT = np.array([1.5819767068693264, 1.0])
RHO_3DP = np.array([1.582, 1.000])
FULL_3DP = np.array([2.000, 1.000])
SERVICE_3DP = np.array([1.251, 0.791])


def report(name: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    failed = "; ".join(text for flag, text in checks if not flag)
    assert ok, f"{name} failed: {failed}"


@pytest.fixture(scope="module")
def single_run():
    start = perf_counter()
    result = simulate(SPEC, SimConfig())
    return result, perf_counter() - start


@pytest.fixture(scope="module")
def replicated_runs():
    start = perf_counter()
    summary = replicate(SPEC, SimConfig(), 10)
    return summary, perf_counter() - start


def test_c01_exact_occupancies():
    start = perf_counter()
    rho = product_form(SPEC).rho
    elapsed = perf_counter() - start
    err = np.abs(rho - RHO_3DP).max()
    report("exact occupancies", [
        (err <= 5e-4, f"max |rho - (1.582, 1.000)| = {err:.2e} <= 5e-4"),
        (elapsed < 1.0, f"solve time {elapsed:.3f}s < 1s"),
    ])


def test_c02_baseline_occupancies():
    start = perf_counter()
    full = baseline_full_insensitivity(SPEC).rho
    service = baseline_service_time_insensitivity(SPEC).rho
    elapsed = perf_counter() - start
    err_full = np.abs(full - FULL_3DP).max()
    err_service = np.abs(service - SERVICE_3DP).max()
    report("baseline occupancies", [
        (err_full <= 5e-4, f"full insensitivity off by {err_full:.2e}"),
        (err_service <= 5e-4,
         f"service-time insensitivity off by {err_service:.2e}"),
        (elapsed < 1.0, f"solve time {elapsed:.3f}s < 1s"),
    ])


def test_c03_simulated_means(single_run, replicated_runs):
    result, run_time = single_run
    summary, rep_time = replicated_runs
    total = run_time + rep_time
    err = np.abs(result.means - RHO_EXACT).max()
    z = np.abs(summary.means - RHO_EXACT) / summary.standard_errors
    report("simulated means", [
        (err <= 0.10, f"single-run max error {err:.3f} <= 0.10"),
        (z.max() <= 3.0, f"pooled max z = {z.max():.2f} <= 3"),
        (total < 30.0, f"simulation time {total:.1f}s < 30s"),
    ])


def test_c04_joint_factorizes(single_run):
    result, _ = single_run
    short_sup = product_form_deviation(result)
    long_cfg = SimConfig(horizon=100_000.0, warmup=1_000.0)
    sups = [product_form_deviation(r)
            for r in replicate(SPEC, long_cfg, 5).results]
    pooled = float(np.mean(sups))
    report("joint factorization", [
        (short_sup <= 0.01, f"sup deviation {short_sup:.5f} <= 0.01"),
        (pooled < short_sup,
         f"pooled tenfold-horizon deviation {pooled:.5f} < {short_sup:.5f}"),
    ])


def test_c05_marginals_close_to_poisson(single_run):
    result, _ = single_run
    pf = product_form(SPEC)
    distances = [
        total_variation(empirical_marginal(result, n),
                        dict(enumerate(pf.marginal_pmf(n).tolist())))
        for n in range(SPEC.n_nodes)
    ]
    worst = max(distances)
    report("marginal agreement", [
        (worst <= 0.02,
         "TV to Poisson = "
         + ", ".join(f"{d:.4f}" for d in distances) + " <= 0.02"),
    ])


def test_c06_exponential_networks_are_insensitive():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        spec = random_exponential_network(rng)
        candidates = [
            product_form(spec).rho,
            baseline_full_insensitivity(spec).rho,
            baseline_service_time_insensitivity(spec).rho,
            solve_expanded(expand_network(spec)).supernode_rho,
        ]
        for a, b in itertools.combinations(candidates, 2):
            worst = max(worst, float(np.abs(a - b).max()))
    report("exponential collapse", [
        (worst <= 1e-9,
         f"20 networks, max pairwise solver gap {worst:.2e} <= 1e-9"),
    ])


def test_c07_expansion_matches_direct_solution():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        spec = random_general_network(rng)
        direct = product_form(spec).rho
        aggregated = solve_expanded(expand_network(spec)).supernode_rho
        worst = max(worst, float(np.abs(direct - aggregated).max()))
    report("expansion equivalence", [
        (worst <= 1e-9,
         f"20 networks, max |aggregated - direct| = {worst:.2e} <= 1e-9"),
    ])


MC_PAIRS = [
    (Exponential(1.0), Deterministic(1.0)),
    (Exponential(1.3), Exponential(0.6)),
    (Exponential(1.0), Uniform(0.0, 2.0)),
    (Exponential(0.9), Weibull(1.8, 1.1)),
    (Deterministic(0.8), Uniform(0.3, 1.5)),
    (Deterministic(1.2), Weibull(2.2, 1.0)),
    (Deterministic(0.5), Deterministic(1.5)),
    (Uniform(0.2, 1.2), Uniform(0.5, 2.0)),
    (Uniform(0.4, 1.6), Weibull(1.4, 0.8)),
    (Weibull(2.0, 1.0), Weibull(0.9, 1.3)),
]


def test_c08_quadrature_against_monte_carlo():
    rng = np.random.default_rng(808)
    draws = 1_000_000
    checks = []
    for components in MC_PAIRS:
        p_hat, p_se, cond_hat, cond_se, _, _ = mc_min_stats(
            components, draws, rng)
        p = np.array([min_probability(components, k) for k in range(2)])
        p_ok = np.all(np.abs(p - p_hat) <= 3.0 * p_se + 1e-9)
        cond_ok = True
        for k in range(2):
            if p[k] > 1e-6:
                cm = conditional_mean_given_min(components, k)
                cond_ok &= abs(cm - cond_hat[k]) <= 3.0 * cond_se[k] + 1e-9
        sum_gap = abs(p.sum() - 1.0)
        decomposition_gap = abs(
            sum(p[k] * conditional_mean_given_min(components, k)
                for k in range(2) if p[k] > 0.0) - expected_min(components))
        label = "/".join(type(d).__name__ for d in components)
        checks.append((bool(p_ok and cond_ok), f"{label} within 3 s.e."))
        checks.append((sum_gap <= 1e-9, f"{label} sum-to-one {sum_gap:.1e}"))
        checks.append((decomposition_gap <= 1e-8,
                       f"{label} mean decomposition {decomposition_gap:.1e}"))
    # components that never finish: handled exactly, no sampling needed
    for other in (Exponential(1.0), Deterministic(1.0), Uniform(0.5, 1.5),
                  Weibull(1.5, 1.0)):
        with_inf = (other, Infinite())
        exact_ok = (min_probability(with_inf, 0) == 1.0
                    and min_probability(with_inf, 1) == 0.0
                    and abs(conditional_mean_given_min(with_inf, 0)
                            - other.mean()) <= 1e-9)
        checks.append((exact_ok, f"{type(other).__name__}/Infinite exact"))
    compact = [(all(flag for flag, _ in checks),
                f"{len(MC_PAIRS)} pairs x {draws} draws, all within bounds")]
    report("minimum-statistics oracle",
           compact if all(flag for flag, _ in checks) else checks)


def test_c09_routing_uses_achieving_component(single_run):
    result, _ = single_run
    p = compute_min_stats(SPEC).p
    departures = result.event_counts.departures
    totals = departures.sum(axis=1, keepdims=True)
    freq = departures / totals
    se = np.sqrt(p * (1.0 - p) / totals)
    z = np.abs(freq - p) / se
    report("routing frequencies", [
        (bool(np.all(z <= 4.0)),
         f"max binomial z = {z.max():.2f} <= 4 over {int(totals.sum())} departures"),
    ])


def test_c10_cli_byte_determinism():
    runner = CliRunner()
    invocations = [
        ["solve", "--format", "json"],
        ["baselines", "--format", "csv"],
        ["expand"],
        ["simulate", "--format", "csv", "--horizon", "3000", "--warmup", "300"],
        ["compare", "--horizon", "3000", "--warmup", "300"],
    ]
    stable = True
    for args in invocations:
        first = runner.invoke(cli_main, args, catch_exceptions=False)
        second = runner.invoke(cli_main, args, catch_exceptions=False)
        assert first.exit_code == 0, first.output
        stable &= first.output == second.output
    report("cli determinism", [
        (stable, f"{len(invocations)} commands, reruns byte-identical"),
    ])
