"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible even under captured output).  Corpora are seeded and rebuilt
deterministically, so every number asserted here is reproducible bit-for-bit.
"""
import dataclasses
import math
import time

import pytest

from adasub import (
    EMPTY,
    ProductPrior,
    TablePrior,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    c_avg_exact,
    calibrate_tau,
    f_avg_exact,
    fixed_batch_greedy,
    fixed_sequence_policy,
    greedy_coverage,
    greedy_max,
    marginal,
    optimal_coverage_dp,
    optimal_policy_dp,
    optimal_value,
    run_policy,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    truncate,
)
from adasub.cli import EXIT_OK, main as cli_main
from adasub.errors import InfeasibleError
from adasub.verifiers import (
    check_adaptive_monotone,
    check_adaptive_submodular,
    measure_superround_decay,
    verify_batch_lemma8,
    verify_corollary_delta,
    verify_coverage_bound,
    verify_eq_main,
    verify_eta,
    verify_hardness,
    verify_lemma1,
    verify_round_complexity,
    verify_semi_max_bound,
)

BUDGETS = (1, 2, 3)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def corpus():
    """100 seeded random coverage-composed instances, n <= 6, two outcomes."""
    return [build_random_tabular(3 + s % 4, 5 + s % 4, s) for s in range(100)]


@pytest.fixture(scope="session")
def cover_corpus():
    """50 seeded stochastic-cover instances."""
    return [build_stochastic_cover(5, 8, 2, s) for s in range(50)]


def test_criterion_01_truncation_pair_witness(capsys):
    t0 = time.perf_counter()
    f_inst, g_inst = build_truncation_pair()
    cert_sub = check_adaptive_submodular(f_inst)
    cert_mono = check_adaptive_monotone(f_inst)
    refute = check_adaptive_submodular(g_inst)
    psi = EMPTY.extend(0, 1)
    near = marginal(g_inst.utility, g_inst.prior, psi, 2)
    far = marginal(g_inst.utility, g_inst.prior, psi.extend(1, 0), 2)
    elapsed = time.perf_counter() - t0
    ok = (
        cert_sub.satisfied
        and cert_mono.satisfied
        and not refute.satisfied
        and refute.witness is not None
        and near == 0.0
        and far == 1.0
        and elapsed < 1.0
    )
    _report(
        capsys, 1, ok,
        f"certified f, refuted min(f,1) with marginals {near} vs {far} in {elapsed:.3f}s",
    )


def test_criterion_02_scaled_optimum_bound(capsys, corpus):
    t0 = time.perf_counter()
    violations = checked = skipped = 0
    for inst in corpus:
        for k in BUDGETS:
            pi_star = optimal_policy_dp(k)
            for ell in range(1, k + 1):
                row = verify_lemma1(inst, pi_star, ell)
                checked += 1
                if "skipped" in str(row.witness or ""):
                    skipped += 1
                elif not row.satisfied:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(
        capsys, 2, ok,
        f"{checked} threshold-vs-optimum checks, {violations} violations, "
        f"{skipped} infeasible-skips, {elapsed:.1f}s",
    )


def test_criterion_03_concatenation_chain(capsys, corpus):
    violations = checked = 0
    for inst in corpus:
        for k in BUDGETS:
            pi_star = optimal_policy_dp(k)
            for i in range(1, k + 1):
                row = verify_eq_main(inst, pi_star, i)
                checked += 1
                violations += not row.satisfied
    ok = violations == 0
    _report(capsys, 3, ok, f"{checked} two-sided chain checks, {violations} violations")


def test_criterion_04_calibration_exactness(capsys, corpus):
    worst = 0.0
    checked = 0
    for inst in corpus:
        for mode in ("marginal", "sav"):
            for i in BUDGETS:
                try:
                    cal = calibrate_tau(inst, i, mode)
                except InfeasibleError:
                    continue
                err = abs(c_avg_exact(cal.policy(), inst) - i)
                worst = max(worst, err)
                checked += 1
    ok = checked > 0 and worst <= 1e-9
    _report(
        capsys, 4, ok,
        f"{checked} calibrated policies, worst |E[count]-i| = {worst:.2e}",
    )


def test_criterion_05_coverage_cost_bounds(capsys, cover_corpus):
    violations = 0
    for inst in cover_corpus:
        pi_star = optimal_coverage_dp()
        violations += not verify_eta(inst).satisfied
        violations += not verify_coverage_bound(inst, pi_star).satisfied
        violations += not verify_corollary_delta(inst, pi_star).satisfied
    ok = violations == 0
    _report(
        capsys, 5, ok,
        f"{3 * len(cover_corpus)} gap/cost-bound checks, {violations} violations",
    )


def test_criterion_06_semi_adaptive_bounds(capsys, corpus):
    violations = checked = 0
    for inst in corpus:
        for eps in (0.05, 0.1, 0.25):
            for k in BUDGETS:
                pi_star = optimal_policy_dp(k)
                for ell in range(1, k + 1):
                    violations += not verify_semi_max_bound(inst, pi_star, ell, eps, k).satisfied
                    violations += not verify_batch_lemma8(inst, pi_star, ell, eps).satisfied
                    checked += 2
    ok = violations == 0
    _report(capsys, 6, ok, f"{checked} semi-adaptive bound checks, {violations} violations")


def test_criterion_07_degenerate_collapse(capsys, corpus, cover_corpus):
    mismatches = det_failures = 0
    for inst in corpus:
        support = [phi for phi, _w in inst.prior.support()]
        for phi in support:
            for k in BUDGETS:
                for seed in (0, 1):
                    a = run_policy(greedy_max(k), inst, phi, seed=seed)
                    b = run_policy(fixed_batch_greedy(1, k), inst, phi, seed=seed)
                    same = (
                        a.selected == b.selected
                        and a.observed == b.observed
                        and a.rounds == b.rounds
                        and a.value == b.value
                    )
                    mismatches += not same
    for inst in corpus[:20]:
        phi = next(iter(inst.prior.support()))[0]
        det = dataclasses.replace(inst, prior=TablePrior([(phi, 1.0)], num_outcomes=2))
        semi = run_policy(semi_adaptive_greedy_max(det.n, 0.1), det, phi)
        plain = run_policy(greedy_max(det.n), det, phi)
        if semi.rounds != 1 or semi.selected != plain.selected:
            det_failures += 1
    for inst in cover_corpus[:10]:
        for phi, _w in list(inst.prior.support())[:2]:
            onehot = [
                [1.0 if o == phi[e] else 0.0 for o in range(inst.num_outcomes)]
                for e in range(inst.n)
            ]
            det = dataclasses.replace(inst, prior=ProductPrior(onehot), fast_sav=None)
            semi = run_policy(semi_adaptive_greedy_coverage(eps=0.1), det, phi)
            plain = run_policy(greedy_coverage(), det, phi)
            if semi.rounds != 1 or semi.selected != plain.selected:
                det_failures += 1
    ok = mismatches == 0 and det_failures == 0
    _report(
        capsys, 7, ok,
        f"batch(1,k)==greedy mismatches: {mismatches}, "
        f"deterministic-collapse failures: {det_failures}",
    )


def test_criterion_08_superround_decay(capsys):
    inst = build_stochastic_cover(32, 64, 2, 0)
    row = measure_superround_decay(inst, eps=0.2, delta=0.1, trials=1000, seed=7)
    ok = row.satisfied
    _report(
        capsys, 8, ok,
        f"decay-event frequency {row.lhs:.3f} >= {row.rhs:.3f} over 1000 trials (n=32)",
    )


def test_criterion_09_batch_hardness(capsys):
    t0 = time.perf_counter()
    ratios = []
    all_exact = all_bounded = True
    for k in (4, 6, 8):
        greedy_row, batch_row = verify_hardness(k, k, 10_000, seed=k)
        all_exact &= greedy_row.lhs == 1.0 and greedy_row.satisfied
        all_bounded &= batch_row.satisfied
        ratios.append(batch_row.rhs / k)
    elapsed = time.perf_counter() - t0
    decreasing = ratios[0] > ratios[1] > ratios[2]
    ok = all_exact and all_bounded and decreasing and elapsed < 300.0
    _report(
        capsys, 9, ok,
        f"greedy exact at k in all 30000 trials, batch means bounded, "
        f"batch/k trend {[round(r, 3) for r in ratios]}, {elapsed:.1f}s",
    )


def test_criterion_10_round_complexity_trend(capsys):
    sizes = (8, 16, 32, 64)
    insts = [build_stochastic_cover(n, 2 * n, 2, 40 + i) for i, n in enumerate(sizes)]
    rows = verify_round_complexity(
        insts, eps=0.1, k_for=lambda n: math.ceil(n / 4), trials=40, seed=11
    )
    summary = rows[-1]
    ok = summary.name == "round-complexity-ratio" and summary.satisfied
    _report(
        capsys, 10, ok,
        f"normalized-rounds spread {summary.rhs:.3f} <= {summary.lhs:.1f} over n={list(sizes)}",
    )


def _tree_best(inst, psi, remaining, budget):
    """Exhaustive policy-tree enumeration, no memoization: pick an element,
    branch on every outcome, keep the best expected value."""
    if budget == 0 or not remaining:
        return inst.utility(psi)
    best = -math.inf
    for e in remaining:
        rest = [x for x in remaining if x != e]
        ev = math.fsum(
            p * _tree_best(inst, psi.extend(e, o), rest, budget - 1)
            for o, p in inst.prior.outcome_dist(e, psi)
        )
        if ev > best:
            best = ev
    return best


def test_criterion_11_optimum_self_consistency(capsys, corpus):
    mismatches = dominated = checked = 0
    for inst in corpus:
        if inst.n > 4:
            continue
        for k in BUDGETS:
            brute = _tree_best(inst, EMPTY, list(range(inst.n)), min(k, inst.n))
            checked += 1
            mismatches += optimal_value(inst, k) != brute
    for inst in corpus:
        for k in BUDGETS:
            opt = optimal_value(inst, k)
            zoo = [
                greedy_max(k),
                fixed_batch_greedy(1, k),
                fixed_batch_greedy(min(2, k), k),
                semi_adaptive_greedy_max(min(k, inst.n), 0.1),
                semi_adaptive_greedy_max(min(k, inst.n), 0.25),
                fixed_sequence_policy(list(range(min(k, inst.n)))),
                fixed_sequence_policy(list(range(inst.n))[::-1][: min(k, inst.n)]),
            ]
            try:
                zoo.append(truncate(calibrate_tau(inst, k).policy(), k))
            except InfeasibleError:
                pass
            for pol in zoo:
                dominated += f_avg_exact(pol, inst) > opt + 1e-9
    ok = mismatches == 0 and dominated == 0
    _report(
        capsys, 11, ok,
        f"{checked} exhaustive-tree equalities, {mismatches} mismatches; "
        f"equal-budget dominance violations: {dominated}",
    )


def test_criterion_12_bit_identical_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    import json

    def bits(name):
        return (tmp_path / name).read_bytes()

    pairs = []
    for tag in ("a", "b"):
        assert cli_main(["gen", "tabular", "--n", "4", "--m", "6", "--seed", "3",
                         "--out", f"g{tag}.json"]) == EXIT_OK
        assert cli_main(["run", f"g{tag}.json", "greedy", "--k", "2",
                         "--out", f"r{tag}.csv"]) == EXIT_OK
        assert cli_main(["run", f"g{tag}.json", "batch:r=2", "--k", "3", "--mode", "mc",
                         "--samples", "200", "--seed", "9", "--out", f"m{tag}.csv"]) == EXIT_OK
        assert cli_main(["verify", "--corpus", "random", "--seeds", "5", "lemma1",
                         "--l", "2", "--out", f"v{tag}.csv"]) == EXIT_OK
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"sweeps": [
        {"id": "e0", "command": "run", "instance": {"file": "ga.json"},
         "policy": "greedy", "k": 2, "mode": "exact"},
        {"id": "e1", "command": "run", "instance": {"file": "ga.json"},
         "policy": "semi:eps=0.1", "k": 3, "mode": "mc", "samples": 100, "seed": 4},
        {"id": "e2", "command": "verify", "instance": {"file": "ga.json"},
         "suite": "submodular"},
    ]}))
    assert cli_main(["experiment", str(cfg), "--out", "ea.csv"]) == EXIT_OK
    assert cli_main(["experiment", str(cfg), "--jobs", "2", "--out", "eb.csv"]) == EXIT_OK
    pairs = [("ga.json", "gb.json"), ("ra.csv", "rb.csv"), ("ma.csv", "mb.csv"),
             ("va.csv", "vb.csv"), ("ea.csv", "eb.csv")]
    diffs = [a for a, b in pairs if bits(a) != bits(b)]
    ok = not diffs
    _report(
        capsys, 12, ok,
        f"{len(pairs)} command pairs byte-compared (exact, mc, corpus, parallel), "
        f"differing: {diffs or 'none'}",
    )
