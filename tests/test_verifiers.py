"""Numerical certificates: checkers, bound verifiers, and report plumbing."""
import dataclasses
import math
import time

import pytest

from adasub import policies
from adasub.engine import _MARGINAL_CACHE, c_avg_exact, f_avg_exact, marginal
from adasub.errors import InfeasibleError, MalformedInputError, TooLargeError
from adasub.instances import build_bags, build_random_tabular, build_stochastic_cover
from adasub.model import EMPTY, CoverageSpec, PartialRealization
from adasub.policies import (
    calibrate_tau,
    greedy_coverage,
    greedy_max,
    optimal_coverage_cost,
    optimal_coverage_dp,
    optimal_policy_dp,
    threshold_policy,
)
from adasub.verifiers import (
    VERIFY_COLUMNS,
    BoundCheckResult,
    MarginalPairWitness,
    check_adaptive_monotone,
    check_adaptive_submodular,
    expected_selection_count,
    measure_superround_decay,
    rows_to_csv,
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

# --- diminishing-returns checkers ----------------------------------------------------


def test_certify_plain_pair(trunc_pair):
    f_inst, _ = trunc_pair
    t0 = time.perf_counter()
    sub = check_adaptive_submodular(f_inst)
    mono = check_adaptive_monotone(f_inst)
    assert sub.satisfied and mono.satisfied
    assert sub.witness is None or sub.slack >= 0
    assert time.perf_counter() - t0 < 1.0


def test_refute_truncated_pair_with_exact_witness(trunc_pair):
    _, g_inst = trunc_pair
    res = check_adaptive_submodular(g_inst)
    assert not res.satisfied
    w = res.witness
    assert isinstance(w, MarginalPairWitness)
    assert w.e == 2
    # the reported marginals are exactly 0 before and 1 after the extension
    small = marginal(g_inst.utility, g_inst.prior, w.psi, w.e)
    big = marginal(g_inst.utility, g_inst.prior, w.sup, w.e)
    assert small == 1.0 and big == 0.0 or (small == 0.0 and big == 1.0)
    assert res.lhs == 0.0 and res.rhs == 1.0 and res.slack == -1.0


def test_truncated_pair_loses_monotonicity_too(trunc_pair):
    # completing the pair after one match-candidate is observed nets
    # min(f,1): 0.5*1 + 0.5*0 - 1 = -0.5, so truncation also breaks the
    # nonnegative-marginal property
    _, g_inst = trunc_pair
    res = check_adaptive_monotone(g_inst)
    assert not res.satisfied
    w = res.witness
    assert marginal(g_inst.utility, g_inst.prior, w.psi, w.e) < 0


def test_checker_is_deterministic(trunc_pair):
    _, g_inst = trunc_pair
    a = check_adaptive_submodular(g_inst)
    b = check_adaptive_submodular(g_inst)
    assert str(a.witness) == str(b.witness)
    assert str(a.witness) == "e=2 psi={0:0} sup={0:0, 1:1}"


def test_checker_flags_monotone_violation():
    # a utility that *loses* value on a second observation
    from adasub.instances import ModularUtility
    from adasub.model import Instance, TablePrior

    inst = Instance(
        name="dip", n=2, num_outcomes=2,
        prior=TablePrior([((1, 1), 1.0)]),
        utility=ModularUtility([[0.0, 1.0], [0.0, -1.0]]),
    )
    assert not check_adaptive_monotone(inst).satisfied
    assert check_adaptive_monotone(inst).witness is not None


def test_certificates_read_a_cache_that_clears(monkeypatch):
    # 181 reachable states and 352 (state, element) marginals: under a cap of
    # 200 the instance's marginal cache clears while the checks read it.
    checks = (check_adaptive_submodular, check_adaptive_monotone)
    inst = build_random_tabular(5, 12, 3)
    want = [check(inst) for check in checks]
    assert len(_MARGINAL_CACHE[inst]) == 352
    monkeypatch.setenv("ADASUB_MAX_STATES", "200")
    inst = build_random_tabular(5, 12, 3)
    assert [check(inst) for check in checks] == want
    assert len(_MARGINAL_CACHE[inst]) <= 200


# --- eta and selection counts ---------------------------------------------------------


def test_eta_gap(tiny_cover):
    res = verify_eta(tiny_cover)
    assert res.name == "eta-gap" and res.satisfied
    # integer-valued coverage: largest sub-quota value is 1, quota - eta = 1
    assert res.lhs == 1.0 and res.rhs == 1.0
    bad = verify_eta(dataclasses.replace(tiny_cover, coverage=CoverageSpec(quota=2.0, eta=1.5)))
    assert not bad.satisfied and bad.witness is not None


def test_expected_selection_count(anti_inst):
    pol = threshold_policy(0.5, coin_p=2.0 / 3.0)
    ek = expected_selection_count(pol, anti_inst)
    assert math.isclose(ek, c_avg_exact(pol, anti_inst), abs_tol=1e-12)
    assert math.isclose(ek, 1.0, abs_tol=1e-9)


def test_support_cap_stops_count_and_calibration(anti_inst, monkeypatch):
    monkeypatch.setenv("ADASUB_MAX_SUPPORT", "1")  # anti_inst has 2 realizations
    with pytest.raises(TooLargeError):
        expected_selection_count(greedy_max(1), anti_inst)
    with pytest.raises(TooLargeError):
        calibrate_tau(anti_inst, 1)
    calibrate_tau(anti_inst, 1, mode="sav")  # reads one support row, checks no cap


# --- performance bounds ----------------------------------------------------------------


def test_lemma1_frozen_numbers(anti_inst):
    res = verify_lemma1(anti_inst, optimal_policy_dp(1), 1)
    assert res.satisfied
    assert math.isclose(res.lhs, 2.0 / 3.0, abs_tol=1e-9)
    assert math.isclose(res.rhs, (1.0 - math.exp(-0.5)) * 0.5, abs_tol=1e-9)


def test_lemma1_vacuous_zero_value():
    from adasub.instances import ModularUtility
    from adasub.model import Instance, TablePrior

    flat = Instance(
        name="flat", n=2, num_outcomes=1,
        prior=TablePrior([((0, 0), 1.0)]),
        utility=ModularUtility([[0.0], [0.0]]),
    )
    res = verify_lemma1(flat, optimal_policy_dp(1), 1)
    assert res.satisfied and "vacuous" in str(res.witness)


def test_eq_main_chain(anti_inst):
    res = verify_eq_main(anti_inst, optimal_policy_dp(1), 1)
    assert res.satisfied and res.lhs >= -1e-9
    assert "A=" in str(res.witness) and "C=" in str(res.witness)
    skip = verify_eq_main(anti_inst, optimal_policy_dp(1), 0)
    assert skip.satisfied and "skipped" in str(skip.witness)


def test_eq_main_chain_on_corpus():
    for seed in range(4):
        inst = build_random_tabular(4, 5, seed=seed)
        for k in (1, 2):
            star = optimal_policy_dp(k)
            for i in range(1, k + 1):
                res = verify_eq_main(inst, star, i)
                assert res.satisfied, (seed, k, i, res)


def test_eq_main_replays_kernel_once(monkeypatch):
    # Levels i and i-1 come from one set of score paths.
    calls = []
    replay = policies._score_paths
    monkeypatch.setattr(policies, "_score_paths", lambda *a: calls.append(a) or replay(*a))
    res = verify_eq_main(build_random_tabular(4, 6, 2), optimal_policy_dp(2), 1)
    assert res.satisfied and len(calls) == 1


def test_coverage_bound_frozen(tiny_cover):
    res = verify_coverage_bound(tiny_cover, optimal_coverage_dp())
    assert res.satisfied
    assert math.isclose(res.rhs, 2.0, abs_tol=1e-12)  # greedy expected cost
    assert math.isclose(res.lhs, 3.0 * math.log(3.0 * 2.0) + 1.0, abs_tol=1e-9)


def test_corollary_delta(tiny_cover):
    res = verify_corollary_delta(tiny_cover, optimal_coverage_dp())
    assert res.satisfied
    # deterministic prior: min weight 1, so the log argument is Q/eta = 2
    assert math.isclose(res.lhs, 3.0 * math.log(2.0) + 1.0, abs_tol=1e-9)


def test_coverage_bounds_on_cover_family():
    for seed in range(3):
        inst = build_stochastic_cover(4, 6, 2, seed=seed)
        assert verify_eta(inst).satisfied
        star = optimal_coverage_dp()
        assert verify_coverage_bound(inst, star).satisfied, seed
        assert verify_corollary_delta(inst, star).satisfied, seed


def test_coverage_bounds_charge_the_instance_costs():
    # The optimum, its policy's report and both verifiers' c_star all charge
    # the goal's costs once that goal sits on the instance.
    spec = CoverageSpec(quota=1.0, costs=(0.5, 2.0, 1.0, 1.5))
    inst = dataclasses.replace(build_stochastic_cover(4, 6, 2, seed=0), coverage=spec)
    assert optimal_coverage_cost(inst) == c_avg_exact(optimal_coverage_dp(), inst) == 0.5
    star = optimal_coverage_dp()
    assert verify_coverage_bound(inst, star).witness == "c_star=0.5"
    assert verify_corollary_delta(inst, star).witness.startswith("c_star=0.5 delta=")


def test_semi_max_bound(anti_inst):
    res = verify_semi_max_bound(anti_inst, optimal_policy_dp(2), 2, 0.1)
    assert res.satisfied
    for seed in range(3):
        inst = build_random_tabular(4, 5, seed=seed)
        for eps in (0.05, 0.25):
            r = verify_semi_max_bound(inst, optimal_policy_dp(2), 2, eps)
            assert r.satisfied, (seed, eps)


def test_batch_lemma8(anti_inst):
    res = verify_batch_lemma8(anti_inst, optimal_policy_dp(2), 2, 0.1)
    assert res.satisfied
    for seed in range(3):
        inst = build_random_tabular(4, 5, seed=seed)
        r = verify_batch_lemma8(inst, optimal_policy_dp(2), 2, 0.25)
        assert r.satisfied, seed


@pytest.mark.parametrize("eps", [-0.1, 1.0, 2.0, math.nan])
def test_value_bounds_reject_eps_outside_unit_interval(anti_inst, eps):
    # eps >= 1 leaves a right-hand side of at most zero, which any policy meets.
    for check in (verify_semi_max_bound, verify_batch_lemma8):
        with pytest.raises(MalformedInputError, match=r"^eps must lie in \[0, 1\), got "):
            check(anti_inst, optimal_policy_dp(2), 2, eps)


# --- superround decay and round complexity ------------------------------------------------


def test_decay_validation(anti_inst):
    with pytest.raises(MalformedInputError):
        measure_superround_decay(anti_inst, eps=0.0, delta=0.1, trials=10)
    with pytest.raises(MalformedInputError):
        measure_superround_decay(anti_inst, eps=0.2, delta=1.5, trials=10)
    with pytest.raises(MalformedInputError):
        measure_superround_decay(anti_inst, eps=0.2, delta=0.1, trials=0)


def test_decay_smoke(anti_inst):
    res = measure_superround_decay(anti_inst, eps=0.2, delta=0.1, trials=100, seed=3)
    assert res.name == "superround-decay"
    assert res.satisfied
    assert res.lhs == 1.0  # the tiny policy always terminates before t+


def test_decay_later_t():
    inst = build_stochastic_cover(6, 10, 2, seed=3)
    res = measure_superround_decay(inst, eps=0.2, delta=0.1, trials=60, seed=1, t=1)
    assert res.satisfied
    assert "t=1" in str(res.witness)


def test_decay_witness_counts_runs_reaching_t_plus():
    # t_plus = 6 <= n = 8: sequential greedy queries after every pick and
    # reaches it; the batching default is judged at its final state here.
    inst = build_stochastic_cover(8, 16, 2, seed=3)
    res = measure_superround_decay(inst, 0.8, 0.5, 40, seed=1, policy=greedy_max(8))
    assert res.satisfied
    assert "t_plus=6 counted=40 reached=40 final=0" in str(res.witness)
    res = measure_superround_decay(inst, 0.8, 0.5, 40, seed=1)
    assert "t_plus=6 counted=40 reached=0 final=40" in str(res.witness)


def test_round_complexity_guards():
    with pytest.raises(MalformedInputError):
        verify_round_complexity([], eps=0.1)
    inst = build_stochastic_cover(4, 6, 2, seed=0)
    with pytest.raises(MalformedInputError):
        verify_round_complexity([inst], eps=0.1, k_for=lambda n: 1)
    with pytest.raises(MalformedInputError):
        verify_round_complexity([inst], eps=0.1, trials=0)


def test_round_complexity_rows():
    insts = [build_stochastic_cover(n, 2 * n, 2, seed=n) for n in (8, 12)]
    rows = verify_round_complexity(insts, eps=0.1, trials=8, seed=0)
    assert len(rows) == 3
    assert rows[0].name == "round-complexity" and rows[0].satisfied
    summary = rows[-1]
    assert summary.name == "round-complexity-ratio"
    assert summary.instance == "family"
    assert summary.lhs == 3.0 and summary.rhs >= 1.0


# --- hardness ---------------------------------------------------------------------------


def test_hardness_rows():
    rows = verify_hardness(2, 2, trials=400, seed=0)
    assert [r.name for r in rows] == ["hardness-greedy", "hardness-batch"]
    greedy_row, batch_row = rows
    assert greedy_row.satisfied and greedy_row.lhs == 1.0 and greedy_row.rhs == 1.0
    assert batch_row.satisfied
    # exact mean for k=2 full batch is 5/3
    assert abs(batch_row.rhs - 5.0 / 3.0) <= 4.0 * 0.03
    with pytest.raises(MalformedInputError):
        verify_hardness(2, 2, trials=1)


# --- report plumbing ----------------------------------------------------------------------


def test_rows_to_csv_golden():
    rows = [
        BoundCheckResult(
            name="demo", instance="inst", lhs=1.5, rhs=0.5, slack=1.0, satisfied=True
        ),
        BoundCheckResult(
            name="demo2", instance="inst2", lhs=0.0, rhs=1.0, slack=-1.0,
            satisfied=False, witness="e=2 psi={}",
        ),
    ]
    text = rows_to_csv(rows)
    assert text == (
        "verifier,instance,lhs,rhs,slack,satisfied,witness\n"
        "demo,inst,1.5,0.5,1.0,true,\n"
        "demo2,inst2,0.0,1.0,-1.0,false,e=2 psi={}\n"
    )
    assert tuple(VERIFY_COLUMNS) == (
        "verifier", "instance", "lhs", "rhs", "slack", "satisfied", "witness"
    )


def test_tolerance_boundary():
    near = BoundCheckResult(
        name="x", instance="y", lhs=1.0 - 5e-10, rhs=1.0,
        slack=-5e-10, satisfied=True,
    )
    assert near.to_row()["satisfied"] == "true"
    res = verify_eta(dataclasses.replace(
        build_stochastic_cover(3, 4, 2, seed=0),
        coverage=CoverageSpec(quota=4.0, eta=1.0 + 1e-10),
    ))
    assert res.satisfied  # within the 1e-9 comparison tolerance


def test_lemma1_infeasible_budget_is_skipped(anti_inst):
    res = verify_lemma1(anti_inst, optimal_policy_dp(1), 5)
    assert res.satisfied and "skipped" in str(res.witness)
